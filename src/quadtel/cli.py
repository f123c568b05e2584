"""Command-line interface.

Each subcommand is declared once, in ``build_parser``: its options, whose
dests are the keyword names of its harness driver, and the driver itself,
set as the subparser's ``driver`` default.  ``main`` calls that driver with
the parsed options, prints a pass/fail summary and optionally writes the full
JSON report; the exit code is 0 only if every assertion in the report passed,
1 if one failed (a catalog mismatch is one), and 2 if the command could not
produce or write a report (a usage error, bad input, an impossible forced
branch, a table that cannot be derived, or an ``--out`` path that cannot be
written), which prints one ``error:`` line and, when the command failed,
writes a failure report to ``--out``.
"""
from __future__ import annotations

import argparse
import sys

from . import harness, protocol
from .corrections import TableDerivationError
from .statevector import HARD_QUBIT_CAP, ImpossibleBranchError

# Errors that end a command without a report: exit 2, never a traceback.
COMMAND_ERRORS = (ValueError, OSError, ImpossibleBranchError, TableDerivationError)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2; the
    subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand's ``driver`` default is read from
    ``harness`` here, when the parser is built."""
    parser = _Parser(
        prog="quadtel",
        description="Simultaneous multiparty controlled teleportation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, driver, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(driver=driver)
        return p

    p = add_command("prepare-channel", harness.cmd_prepare_channel, "build the entangled channel and verify it")
    p.add_argument("--pairs", type=int, default=8, help="Bell pair count (default 8)")

    p = add_command("run", harness.cmd_run, "execute protocol runs")
    p.add_argument("--senders", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--seed", type=int, default=0, help="seed for random inputs and sampling")
    p.add_argument("--input", dest="input_file", help="JSON file with message states")
    p.add_argument("--mode", default="sampled:16",
                   help="sampled:N | forced:SPEC | exhaustive (SPEC: 2s Bell symbols plus z, "
                        "e.g. k+,l-,k+,k+,1)")
    p.add_argument("--engine", default="structured", choices=protocol.ENGINES)
    p.add_argument("--allow-large-dense", action="store_true",
                   help=f"opt in to dense states above {harness.DENSE_OPT_IN_QUBITS} qubits "
                        f"(up to {HARD_QUBIT_CAP})")

    p = add_command("verify-tables", harness.cmd_verify_tables, "re-derive the correction tables and catalog map")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report only: the sweep reads no random input")

    add_command("efficiency", harness.cmd_efficiency, "reproduce the protocol comparison table")

    p = add_command("verify-expansion", harness.cmd_verify_expansion, "adjudicate the global-expansion prefactor")
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    command, driver, out = options.pop("command"), options.pop("driver"), options.pop("out")
    try:
        report = driver(**options)
    except COMMAND_ERRORS as exc:
        message = f"error: {exc}"
        if out:
            try:
                harness.write_report({"error": str(exc), "command": command}, out)
            except OSError as write_exc:
                message += f"; cannot write the failure report: {write_exc}"
        print(message, file=sys.stderr)
        return 2
    try:
        harness.write_report(report, out)
    except OSError as exc:
        # the path that cannot take the report cannot take a failure report either
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(harness.summarize(report))
    n_branches = len(report.get("branches", []))
    if n_branches:
        print(f"{n_branches} branch record(s)")
    ok = harness.report_passed(report)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

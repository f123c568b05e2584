"""The four benchmark workloads: CLI commands made from a seed, and the checks
each report must pass.

A workload is a sequence of units; a unit is one or more CLI commands run in a
closed loop by one caller.  The program sees only what is generated here:
message states written to an input file, a forced branch, or a seed passed to
a checking subcommand.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Bell symbols accepted by `run --mode forced:`, in outcome-index order.
BELL_SYMBOLS = ("k+", "k-", "l+", "l-")

# Branches per `sample-s4` unit: about one second of structured-engine work
# and a report of about 0.6 MB.
SAMPLE_COUNT = 256

# Correction-table entries one verify-tables report matches against the
# corrections it derives by simulation: 32 keys (g, h, z) x 4 receivers.
TABLE_ENTRIES = 128

# Fidelity and probability tolerances of the benchmark's own checks; the
# same figures as the report assertions they re-check independently.
FIDELITY_TOL = 1e-9
PROBABILITY_TOL = 1e-12


@dataclass
class Command:
    """One CLI invocation and what its report must contain."""

    argv: list[str]
    out: Path
    key: str  # names the report's inputs, for the cross-run digest check
    branches: int
    checks: list = field(default_factory=list)  # extra (name, fn(report) -> bool)


def _messages(rng: random.Random, senders: int) -> dict:
    """Normalized random two-qubit messages in the CLI's input-file schema."""
    out = []
    for _ in range(senders):
        c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = sum(abs(x) ** 2 for x in c) ** 0.5
        out.append([[x.real / norm, x.imag / norm] for x in c])
    return {"senders": out}


def _write_inputs(out_dir: Path, name: str, seed: int, senders: int, rng: random.Random) -> str:
    path = out_dir / "inputs" / f"{name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_messages(rng, senders)) + "\n", encoding="utf-8")
    return str(path)


def _branch_checks(senders: int, engine: str) -> list:
    expected_p = 4.0 ** (-2 * senders) / 2

    def fidelities(report):
        return all(
            len(b["per_receiver_fidelity"]) == senders
            and min(b["per_receiver_fidelity"]) >= 1 - FIDELITY_TOL
            for b in report["branches"]
        )

    def probabilities(report):
        return all(abs(b["branch_probability"] - expected_p) <= PROBABILITY_TOL for b in report["branches"])

    def engines(report):
        return all(b["engine"] == engine for b in report["branches"])

    return [("fidelity_all_receivers", fidelities), ("probability_uniform", probabilities),
            ("engine_as_requested", engines)]


def _run_command(name, out_dir, seed, senders, mode, engine, branches, rng, extra=()):
    inputs = _write_inputs(out_dir, name, seed, senders, rng)
    out = out_dir / "reports" / f"{name}.json"
    argv = ["run", "--senders", str(senders), "--seed", str(seed), "--input", inputs,
            "--mode", mode, "--engine", engine]
    if engine == "dense":
        argv.append("--allow-large-dense")
    argv += ["--out", str(out)]
    return Command(argv, out, f"{name}:{seed}", branches, _branch_checks(senders, engine) + list(extra))


def sweep_s3(out_dir: Path, seed: int):
    rng = random.Random(f"sweep-s3:{seed}")

    def all_records(report):
        return len({(tuple(b["outcome"]["bell"]), b["outcome"]["z"]) for b in report["branches"]}) == 8192

    cmd = _run_command("sweep-s3", out_dir, seed, 3, "exhaustive", "structured", 8192, rng,
                       [("every_branch_distinct", all_records)])
    return itertools.repeat([cmd])


def sample_s4(out_dir: Path, seed: int):
    rng = random.Random(f"sample-s4:{seed}")
    cmd = _run_command("sample-s4", out_dir, seed, 4, f"sampled:{SAMPLE_COUNT}", "structured",
                       SAMPLE_COUNT, rng)
    return itertools.repeat([cmd])


def dense_s4(out_dir: Path, seed: int):
    rng = random.Random(f"dense-s4:{seed}")
    bells = [rng.randrange(4) for _ in range(8)]
    z = rng.randrange(2)
    spec = ",".join([BELL_SYMBOLS[b] for b in bells] + [str(z)])

    def forced_branch(report):
        return [b["outcome"]["bell"] + [b["outcome"]["z"]] for b in report["branches"]] == [bells + [z]]

    cmd = _run_command("dense-s4", out_dir, seed, 4, f"forced:{spec}", "dense", 1, rng,
                       [("outcome_as_forced", forced_branch)])
    return itertools.repeat([cmd])


def oracles(out_dir: Path, seed: int):
    """The four checking subcommands, one round per successive seed."""
    reports = out_dir / "reports"
    round_ = 0
    while True:
        s = 1000 * seed + round_
        yield [
            Command(["prepare-channel", "--pairs", "8", "--out", str(reports / "prepare-channel.json")],
                    reports / "prepare-channel.json", "prepare-channel", 0,
                    [("branch_sign_even", lambda r: r["branch_sign"] == 1)]),
            Command(["verify-tables", "--seed", str(s), "--out", str(reports / "verify-tables.json")],
                    reports / "verify-tables.json", f"verify-tables:{s}", 0,
                    [("tables_all_ok", lambda r: r["tables"]["all_ok"] is True),
                     ("table_branches_matched",
                      lambda r: r["tables"]["n_matched"] == r["tables"]["n_total"] == TABLE_ENTRIES)]),
            Command(["verify-expansion", "--seed", str(s), "--out", str(reports / "verify-expansion.json")],
                    reports / "verify-expansion.json", f"verify-expansion:{s}", 0,
                    [("prefactor_adjudicated",
                      lambda r: r["expansion"]["normalizing_prefactor"] == "1/(256*sqrt(2))")]),
            Command(["efficiency", "--out", str(reports / "efficiency.json")],
                    reports / "efficiency.json", "efficiency", 0,
                    [("transcript_bits", lambda r: r["transcript_bits"] == 20)]),
        ]
        round_ += 1


@dataclass(frozen=True)
class Workload:
    name: str
    units: object  # (out_dir, seed) -> iterator of lists of Command
    branches_per_unit: int  # branches (oracles: table entries) one unit's reports verify
    # Exact traced call counts per unit, checked in the traced run.
    expected_calls: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-s3", sweep_s3, 8192, {
            "protocol.run_protocol": 8192,
            "protocol.structured.prepare": 1,
            "protocol.structured.copy": 8192,
            "protocol.structured.bsm_pair": 49152,
            "protocol.structured.measure_controller": 8192,
            "protocol.structured.apply_correction": 24576,
            "protocol.structured.receiver_dm": 24576,
            "corrections.table_lookup": 24576,
            "protocol.ProtocolReport.to_dict": 8192,
            "harness.render_report": 1,
        }),
        Workload("sample-s4", sample_s4, SAMPLE_COUNT, {
            "protocol.run_protocol": SAMPLE_COUNT,
            "protocol.structured.prepare": SAMPLE_COUNT,
            "protocol.structured.bsm_pair": 8 * SAMPLE_COUNT,
            "protocol.structured.measure_controller": SAMPLE_COUNT,
            "protocol.structured.apply_correction": 4 * SAMPLE_COUNT,
            "protocol.structured.receiver_dm": 4 * SAMPLE_COUNT,
            "corrections.table_lookup": 4 * SAMPLE_COUNT,
            "protocol.ProtocolReport.to_dict": SAMPLE_COUNT,
        }),
        Workload("dense-s4", dense_s4, 1, {
            "protocol.run_protocol": 1,
            "protocol.dense.prepare": 1,
            "protocol.dense.bsm_pair": 8,
            "protocol.dense.measure_controller": 1,
            "protocol.dense.apply_correction": 4,
            "protocol.dense.receiver_dm": 4,
            "statevector.apply_cnot.q25": 8,
            "statevector.apply_1q.q25": 8,
            "statevector.measure_qubit.q25": 17,
            "statevector.measure_probabilities.q25": 17,
            "statevector.apply_pauli_word.q25": 4,
            "statevector.partial_trace.q25": 4,
            "statevector.tensor.q25": 2,
        }),
        # No protocol branches here: a round's unit of verified work is a
        # matched table entry (tables.n_matched, checked above).
        Workload("oracles", oracles, TABLE_ENTRIES, {
            "corrections.collapse_single_sender": 128,
            "corrections.derive_correction": 32,
            "corrections.match_eta": 32,
            "corrections.verify_tables": 1,
            "corrections.table_lookup": 516,
            "channel.prepare_channel_circuit": 1,
            "channel.build_channel_analytic": 129,
            "harness.adjudicate_expansion_prefactor": 1,
            "protocol.run_protocol": 1,
            "protocol.structured.bsm_pair": 8,
        }),
    )
}

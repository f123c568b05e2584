"""Analysis and reporting layer.

Hosts the intrinsic-efficiency accounting, the comparison table against
contemporary multidirectional protocols, the numerical adjudication of the
global-expansion normalization, and the report-producing drivers behind the
CLI subcommands.  Reports are plain dicts with a stable schema, built by
``_report`` for every subcommand::

    {config, seed, assertions: [{name, expected, measured, tolerance, pass}],
     branches: [...], efficiency: [...]}

and serialize deterministically as compact JSON (sorted keys, no whitespace,
no timestamps) through the standard library's C encoder, so identical
configuration and seed give byte-identical files.
"""
from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from . import corrections, protocol
from .channel import BELL_SYMBOLS, build_channel_analytic, prepare_channel_circuit
from .statevector import HARD_QUBIT_CAP, NORM_TOL

REPORT_DECIMALS = 4

# Assertion tolerances.  Each sits orders of magnitude above the float64
# round-off in the quantity it checks and far below the size of a real fault.
FIDELITY_TOL = 1e-9  # 1 - fidelity or 1 - |cosine|: a wrong correction word costs O(1)
PROBABILITY_TOL = 1e-12  # one branch probability; the smallest expected one, 2^-17, is 7.6e-6
PROBABILITY_SUM_TOL = 1e-10  # summing 2^17 branch probabilities can drift by 2^17 * 2^-53 = 1.5e-11
AMPLITUDE_TOL = 1e-12  # a state distance or term coefficient; the prefactor candidates differ by 8.3e-3
SUM_SQ_TOL = 1e-9  # 2^17 squared term coefficients against 1; the wrong prefactor implies 16

# Most runs one sampled command may ask for: the s=4 branch count, so the most
# records exhaustive mode ever writes.  A larger N only makes the command run
# for hours and its report grow past gigabytes.
MAX_SAMPLED_RUNS = 2 * 4 ** (2 * protocol.MAX_SENDERS)

# Largest dense-engine state ``cmd_run`` builds without ``allow_large_dense``
# (the CLI's ``--allow-large-dense``): two senders, 13 qubits.  Memory is no
# longer a reason for it: a 25-qubit array spans 512 MiB, but only the pages
# a run writes are resident.  Peak RSS of one ``run`` process, seed 0: s=4
# forced 82.8 MiB, s=4 ``sampled:1`` and ``sampled:4`` 128.6 MiB, s=3
# ``sampled:16`` 41.8 MiB, s=3 exhaustive 63.9 MiB.  It stays only because
# the benchmark's ``dense-s4`` command passes the flag (ROADMAP item 20).
DENSE_OPT_IN_QUBITS = 16


def intrinsic_efficiency(q_s: int, q_u: int, b_t: int) -> float:
    """Percentage yield tau = 100 * q_s / (q_u + b_t).

    q_s counts the quantum information bits transmitted, q_u the channel
    qubits consumed and b_t the classical bits transmitted.
    """
    if min(q_s, q_u, b_t) <= 0:
        raise ValueError("resource counts must be positive")
    return 100.0 * q_s / (q_u + b_t)


def classical_cost(n_bsm: int, n_sm: int, n_receivers: int) -> int:
    """Classical bits: two per Bell measurement plus the broadcast bits.

    Each single-qubit measurement result goes to every receiver separately,
    so it costs one bit per receiver.
    """
    if min(n_bsm, n_sm, n_receivers) < 0:
        raise ValueError("counts must be non-negative")
    return 2 * n_bsm + n_sm * n_receivers


def truncated_tau(q_s: int, q_u: int, b_t: int) -> int:
    """tau in hundredths of a percent, truncated as a compared paper prints it:
    18.75, 15.38 and 19.04 are 3/16, 4/26 and 4/21 cut at two decimals, where
    rounding would print 19.05.  In integers the rule is exact."""
    return 10000 * q_s // (q_u + b_t)


# Comparison rows: contemporary multidirectional teleportation protocols.
# Fields: label, senders, receivers, q_s, q_u, n_bsm, n_sm, published tau in
# hundredths of a percent.
COMPARISON_ROWS = (
    ("tri-directional, 3x1-qubit messages", 3, 3, 3, 7, 3, 1, 1875),
    ("quad-directional, 4x1-qubit, 10-qubit channel", 4, 4, 4, 10, 4, 2, 1538),
    ("quad-directional, 4x1-qubit, 9-qubit channel", 4, 4, 4, 9, 4, 1, 1904),
    ("this work, 4x2-qubit messages", 4, 4, 8, 17, 8, 1, 2165),
)
THIS_WORK_NOTE = "21.65 is no two-decimal truncation or rounding of 8/37; no integer q_u + b_t gives it at q_s = 8"


def reproduce_comparison_table() -> list[dict]:
    """Recompute every comparison row and whether its published tau is the truncation."""
    rows = []
    for label, senders, receivers, q_s, q_u, n_bsm, n_sm, published in COMPARISON_ROWS:
        b_t = classical_cost(n_bsm, n_sm, receivers)
        truncated = truncated_tau(q_s, q_u, b_t)
        rows.append(
            {
                "label": label,
                "senders": senders,
                "receivers": receivers,
                "q_s": q_s,
                "q_u": q_u,
                "b_t": b_t,
                "computed_tau": intrinsic_efficiency(q_s, q_u, b_t),
                "truncated_tau": truncated / 100,
                "published_tau": published / 100,
                "published_is_truncation": truncated == published,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Expansion normalization adjudication
# --------------------------------------------------------------------------

PREFACTOR_CANDIDATES = {
    "1/(64*sqrt(2))": 1.0 / (64 * np.sqrt(2.0)),
    "1/(256*sqrt(2))": 1.0 / (256 * np.sqrt(2.0)),
}


def adjudicate_expansion_prefactor(inputs: Sequence[protocol.InfoState]) -> dict:
    """Numerically expand the global state over every (outcomes, z) term.

    Each sender block's outcome table (``protocol.block_outcome_table``, the
    structured engine's block kernels with receiver i's own correction
    table) gives the probability and the corrected receiver fidelity of all
    16 Bell outcome pairs per controller branch.  The squared coefficient of
    each of the 2 * 4^8 terms is the product of its four block probabilities
    times the branch weight, and a term's receiver-i fidelity is block i's
    entry, so every term's probability and every receiver's fidelity are
    checked.  The report states which candidate prefactor matches the
    measured (uniform) term coefficient, whether the squared coefficients sum
    to one, and the worst |1 - fidelity| of any entry.
    """
    if len(inputs) != protocol.MAX_SENDERS:
        raise ValueError("the expansion is defined for the full four-sender state")

    tables = [protocol.block_outcome_table(info, receiver) for info, receiver in zip(inputs, corrections.RECEIVERS)]
    worst_direction = max(float(np.abs(1.0 - fidelities).max()) for _, fidelities in tables)

    branch_weight_sq = 0.5  # |1/sqrt(2)|^2 per controller branch
    term_sq_sums = []
    coeff_min, coeff_max = np.inf, 0.0
    for z in (0, 1):
        acc = np.array([1.0])
        for probs, _ in tables:
            acc = np.multiply.outer(acc, probs[z].ravel()).ravel()
        terms = branch_weight_sq * acc
        term_sq_sums.append(float(terms.sum()))
        coeff_min = min(coeff_min, float(np.sqrt(terms.min())))
        coeff_max = max(coeff_max, float(np.sqrt(terms.max())))

    n_terms = 2 * 16 ** len(tables)
    measured_sum = float(sum(term_sq_sums))
    candidates = {
        name: {
            "value": value,
            "implied_sum_sq": n_terms * value**2,
            "matches_measured_coefficient": bool(
                abs(coeff_min - value) < AMPLITUDE_TOL and abs(coeff_max - value) < AMPLITUDE_TOL
            ),
        }
        for name, value in PREFACTOR_CANDIDATES.items()
    }
    normalizing = [
        name for name, c in candidates.items() if abs(c["implied_sum_sq"] - 1.0) < SUM_SQ_TOL
    ]
    return {
        "n_terms": n_terms,
        "measured_sum_sq": measured_sum,
        "measured_coefficient_range": [coeff_min, coeff_max],
        "worst_direction_deviation": worst_direction,
        "candidates": candidates,
        "normalizing_prefactor": normalizing[0] if len(normalizing) == 1 else None,
    }


# --------------------------------------------------------------------------
# Assertions and report plumbing
# --------------------------------------------------------------------------

def check_close(name: str, expected: float, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "expected": expected,
        "measured": measured,
        "tolerance": tolerance,
        "pass": bool(abs(measured - expected) <= tolerance),
    }


def check_flag(name: str, ok: bool) -> dict:
    return {"name": name, "expected": True, "measured": bool(ok), "tolerance": 0, "pass": bool(ok)}


def report_passed(report: dict) -> bool:
    return all(a["pass"] for a in report.get("assertions", []))


def render_report(report: dict) -> str:
    """The report as compact JSON with sorted keys, plus a newline.

    A report holds no cycle: ``_report`` builds it from fresh containers, and
    the shared transcript records of the ``efficiency`` report hold only
    strings and integers.  So the encoder skips its circular-reference scan."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def write_report(report: dict, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))


def _report(command: str, seed, assertions: list, *, config=None, branches=(), efficiency=(), **sections) -> dict:
    """A report in the schema every subcommand writes, plus its own ``sections``;
    ``branches`` and ``efficiency`` lists are kept, not copied."""
    return {
        "config": {"command": command, **(config or {})},
        "seed": seed,
        "assertions": assertions,
        "branches": branches or [],
        "efficiency": efficiency or [],
        **sections,
    }


def summarize(report: dict) -> str:
    lines = []
    for a in report.get("assertions", []):
        status = "pass" if a["pass"] else "FAIL"
        expected, measured = a["expected"], a["measured"]
        if isinstance(measured, float):
            lines.append(
                f"[{status}] {a['name']}: measured {measured:.{REPORT_DECIMALS}f} "
                f"(expected {expected:.{REPORT_DECIMALS}f} +/- {a['tolerance']:g})"
            )
        else:
            lines.append(f"[{status}] {a['name']}: {measured}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Subcommand drivers
# --------------------------------------------------------------------------

def cmd_prepare_channel(pairs: int) -> dict:
    """Build the channel by circuit and by direct assembly, and compare."""
    circuit = prepare_channel_circuit(pairs)
    sign = (-1) ** pairs
    analytic = build_channel_analytic(pairs, sign)
    norm = circuit.norm()
    # the difference overwrites the analytic channel, so no third state is allocated
    diff = np.subtract(circuit.amps, analytic.amps, out=analytic.amps)
    assertions = [
        check_close("circuit_vs_analytic_distance", 0.0, float(np.linalg.norm(diff)), AMPLITUDE_TOL),
        check_close("circuit_norm", 1.0, norm, NORM_TOL),
    ]
    return _report("prepare-channel", None, assertions, config={"pairs": pairs}, branch_sign=sign)


def parse_forced_spec(spec: str, senders: int) -> protocol.OutcomeRecord:
    """Parse 'k+,k-,l+,l-,...,z' (2s Bell symbols then the controller bit)."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2 * senders + 1:
        raise ValueError(f"forced spec needs {2 * senders} Bell symbols plus z, got {len(parts)} fields")
    try:
        bells = tuple(BELL_SYMBOLS.index(p) for p in parts[:-1])
    except ValueError:
        raise ValueError(f"Bell symbols must be among {BELL_SYMBOLS}") from None
    if parts[-1] not in ("0", "1"):
        raise ValueError("controller bit must be 0 or 1")
    return protocol.OutcomeRecord(bells, int(parts[-1]))


def load_input_file(path: str) -> list[protocol.InfoState]:
    """Read message states from {"senders": [[[re, im] x4] xS]}; no silent fixes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input file nests JSON too deeply to read") from None
    if not isinstance(data, dict) or not isinstance(data.get("senders"), list):
        raise ValueError("input file must be an object whose 'senders' key holds a list")
    states = []
    for i, raw in enumerate(data["senders"]):
        pairs = isinstance(raw, list) and len(raw) == 4
        if not (pairs and all(isinstance(p, list) and len(p) == 2 for p in raw)):
            raise ValueError(f"sender {i}: expected 4 [re, im] pairs")
        # numpy would read "0.5" and true as numbers; the schema says JSON numbers
        bad = [x for p in raw for x in p if type(x) not in (int, float)]
        if bad:
            raise ValueError(f"sender {i}: coefficients must be JSON numbers, got {json.dumps(bad[0])}")
        try:
            arr = np.asarray(raw, dtype=float)
            with np.errstate(invalid="ignore"):  # 1j * inf; InfoState rejects the result
                coeffs = arr[:, 0] + 1j * arr[:, 1]
            states.append(protocol.InfoState(coeffs))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"sender {i}: {exc}") from None
    return states


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"bad --seed {seed}: the seed is a non-negative integer")


def cmd_run(
    *,
    senders: int,
    seed: int = 0,
    input_file: str | None = None,
    mode: str = "sampled:16",
    engine: str = "structured",
    allow_large_dense: bool = False,
) -> dict:
    """Protocol runs under one of the three modes, with per-branch records.

    A dense state above DENSE_OPT_IN_QUBITS qubits needs ``allow_large_dense``;
    that is checked once the inputs are known, before the mode is read.
    """
    _check_seed(seed)
    if input_file is not None:
        inputs = load_input_file(input_file)
        if len(inputs) != senders:
            raise ValueError(f"input file holds {len(inputs)} senders, --senders says {senders}")
        source = {"file": input_file}
    else:
        rng_inputs = np.random.default_rng(seed)
        inputs = [protocol.InfoState.random(rng_inputs) for _ in range(senders)]
        source = {"random_seed": seed}
    n_qubits = protocol.register_qubits(len(inputs))
    if engine == "dense" and n_qubits > DENSE_OPT_IN_QUBITS and not allow_large_dense:
        raise ValueError(
            f"dense state of {n_qubits} qubits exceeds the {DENSE_OPT_IN_QUBITS}-qubit default; "
            f"pass --allow-large-dense to opt in up to {HARD_QUBIT_CAP}"
        )

    expected_prob = 4.0 ** (-2 * senders) / 2
    expected_bits = classical_cost(2 * senders, 1, senders)
    if mode == "exhaustive":
        reports = protocol.run_exhaustive(inputs, engine=engine)
    elif mode.startswith("forced:"):
        record = parse_forced_spec(mode[len("forced:"):], senders)
        mode = f"forced:{record.symbols()}"
        reports = [protocol.run_protocol(inputs, engine=engine, forced=record)]
    elif mode.startswith("sampled:"):
        digits = mode[len("sampled:"):]
        try:
            count = int(digits) if digits.isascii() and digits.isdigit() else 0
        except ValueError:  # more digits than int() reads
            count = 0
        if not 1 <= count <= MAX_SAMPLED_RUNS:
            raise ValueError(
                f"bad mode {mode!r}: sampled mode is sampled:N with N >= 1 and at most {MAX_SAMPLED_RUNS}, in the digits 0-9"
            )
        mode = f"sampled:{count}"
        rng = np.random.default_rng(seed + 0x5A17)
        reports = [protocol.run_protocol(inputs, engine=engine, rng=rng) for _ in range(count)]
    else:
        raise ValueError(f"unknown mode {mode!r}; use sampled:N, forced:SPEC or exhaustive")

    min_fid = min(min(r.per_receiver_fidelity) for r in reports)
    worst_prob_dev = max(abs(r.branch_probability - expected_prob) for r in reports)
    # the run farthest from the cost model, so that a short run cannot hide behind a full one
    worst_bits = max((r.classical_bits_sent for r in reports), key=lambda bits: abs(bits - expected_bits))
    assertions = [
        check_close("post_correction_fidelity_min", 1.0, min_fid, FIDELITY_TOL),
        check_close("branch_probability_uniform_dev", 0.0, worst_prob_dev, PROBABILITY_TOL),
        check_close("classical_bits_per_run", float(expected_bits), float(worst_bits), 0.0),
    ]
    if mode == "exhaustive":
        total = sum(r.branch_probability for r in reports)
        assertions.append(check_close("branch_probability_sum", 1.0, total, PROBABILITY_SUM_TOL))
    config = {"senders": senders, "inputs": source, "mode": mode, "engine": engine,
              "allow_large_dense": allow_large_dense}
    return _report("run", seed, assertions, config=config, branches=[r.to_dict() for r in reports])


def cmd_verify_tables(seed: int = 0) -> dict:
    """Correction-table oracle sweep plus the collapse-catalog checks; ``seed`` is only recorded."""
    _check_seed(seed)
    result = corrections.verify_tables()
    assertions = [
        check_close("table_word_matches", float(result["n_total"]), float(result["n_matched"]), 0.0),
        check_flag("receiver_columns_identical", result["receiver_columns_identical"]),
        check_flag("entries_self_inverse_up_to_sign", result["self_inverse_ok"]),
        check_flag("catalog_map_total", result["eta_total"]),
        check_flag("catalog_map_two_to_one", result["eta_two_to_one"]),
    ]
    return _report("verify-tables", seed, assertions, tables=result)


def cmd_efficiency() -> dict:
    """Comparison-table reproduction with the protocol's own transcript, and its bits."""
    rows = reproduce_comparison_table()
    rng = np.random.default_rng(0xB17)
    inputs = [protocol.InfoState.random(rng) for _ in range(4)]
    record = protocol.OutcomeRecord((0,) * 8, 0)
    run = protocol.run_protocol(inputs, forced=record)
    transcript_bits = run.classical_bits_sent
    *theirs, ours = rows
    assertions = [
        check_flag(f"tau_row_{i}_is_truncation", row["published_is_truncation"])
        for i, row in enumerate(theirs)
    ] + [
        # 100 * q_s / (q_u + b_t) == 800 / 37, cross-multiplied
        check_flag("tau_this_work_is_800/37", 3700 * ours["q_s"] == 800 * (ours["q_u"] + ours["b_t"])),
        check_close("transcript_bits_match_cost_model", float(ours["b_t"]), float(transcript_bits), 0.0),
    ]
    return _report("efficiency", None, assertions, efficiency=rows, notes=[THIS_WORK_NOTE],
                   transcript=list(run.transcript), transcript_bits=transcript_bits)


def cmd_verify_expansion(seed: int = 0) -> dict:
    """Adjudicate the global-expansion prefactor on seeded random messages."""
    _check_seed(seed)
    rng = np.random.default_rng(seed + 0xE4)
    result = adjudicate_expansion_prefactor([protocol.InfoState.random(rng) for _ in range(4)])
    small = PREFACTOR_CANDIDATES["1/(256*sqrt(2))"]
    assertions = [
        check_close("sum_of_squared_coefficients", 1.0, result["measured_sum_sq"], SUM_SQ_TOL),
        check_close(
            "term_coefficient_vs_normalizing_prefactor",
            small,
            result["measured_coefficient_range"][1],
            AMPLITUDE_TOL,
        ),
        check_close(
            "term_coefficient_uniformity",
            0.0,
            result["measured_coefficient_range"][1] - result["measured_coefficient_range"][0],
            AMPLITUDE_TOL,
        ),
        check_flag(
            "unique_normalizing_prefactor_found",
            result["normalizing_prefactor"] == "1/(256*sqrt(2))",
        ),
        check_close("collapse_direction_vs_tables", 0.0, result["worst_direction_deviation"], FIDELITY_TOL),
    ]
    return _report("verify-expansion", seed, assertions, expansion=result)

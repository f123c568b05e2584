"""quadtel benchmark: four CLI workloads, end-to-end metrics and traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-s3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 1     # table of every workload

Each run launches the workload in its own subprocess (perfbench/worker.py)
and drives ``quadtel.cli.main`` there in a closed loop with one caller: the
next unit starts only after the previous report is on disk and checked.
Whole units are measured, at least one, and another starts only while it is
expected to end within ``--seconds``.  The run is pinned to one vCPU, and
unit times are scaled to reference seconds by a speed probe on the same vCPU
in a process of its own (probe.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
untraced units, then traced ones, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every
report is checked; any failed check makes the exit code 1.  Outputs (inputs,
reports, span files, results.jsonl, report digests) go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import speed_factors
from workloads import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
CPUS = sorted(os.sched_getaffinity(0))
PROBE = Path(__file__).resolve().parent / "probe.py"
OUT_DIR = Path(".perfbench")

SETUP_LAUNCHES = 5  # extra fresh launches timed for setup_s, besides the workload's own
RUN_LIMIT_S = 170  # a run is abandoned after this long, inside the 180 s a run may take
MIB = 1 << 20

END_TO_END = (
    ("wall_s", "s"),
    ("branches_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("report_mib", "MiB"),
)

ENGINE_LAYERS = {
    "structured": ("bsm_pair", "apply_correction", "receiver_dm", "measure_controller", "copy", "prepare"),
    "dense": ("bsm_pair", "apply_correction", "receiver_dm", "measure_controller", "prepare"),
}
# Full-state passes per call, the model behind the computed ``gb`` figures:
# full-size complex arrays the function's own numpy code reads plus those it
# writes (a half-size slice counts one half); temporaries are not counted.
KERNEL_PASSES = {
    "apply_1q": 2,  # read the state, write the result
    "apply_cnot": 3,  # copy (read + write), then swap the control=1 half
    "apply_pauli_word": 4,  # two factors, as every engine correction passes
    "measure_probabilities": 1,  # read both halves
    "measure_qubit": 2,  # zero-fill the result, copy the kept half
    "partial_trace": 6,  # transpose copy, conjugate copy, one gemm over both
    "tensor": 1,  # write the product
}
KERNEL_BUCKETS = (6, 25)  # qubits: one sender block; the full s=4 register
CORRECTIONS = ("derive_correction", "match_eta", "verify_tables", "table_lookup")
P99_MIN_SAMPLES = 1000  # at least ten samples beyond the 99th percentile


def per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for engine, methods in ENGINE_LAYERS.items():
        for m in methods:
            spec += [(f"protocol.{engine}.{m}.calls", "count"), (f"protocol.{engine}.{m}.s", "s")]
    for fn in KERNEL_PASSES:
        for q in KERNEL_BUCKETS:
            base = f"statevector.{fn}.q{q}"
            spec += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.gb", "GB")]
    spec += [("harness.render_report.s", "s"), ("protocol.ProtocolReport.to_dict.s", "s"),
             ("harness.cmd_run.self_s", "s")]
    for fn in CORRECTIONS:
        spec += [(f"corrections.{fn}.calls", "count"), (f"corrections.{fn}.s", "s")]
    spec += [("corrections.collapse_single_sender.calls", "count"),
             ("channel.prepare_channel_circuit.s", "s"), ("channel.build_channel_analytic.s", "s"),
             ("harness.adjudicate_expansion_prefactor.s", "s"),
             ("protocol.run_protocol.calls", "count"), ("protocol.run_protocol.ms_p50", "ms"),
             ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
             ("trace.spans", "count")]
    return spec


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# Machine facts
# --------------------------------------------------------------------------

def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="ascii").strip()
    except OSError:
        return None


def machine_facts(nproc: int, blas_threads: str) -> dict:
    import numpy as np

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(idx / "size")
    mem_kib = cpu = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_kib = int(line.split()[1])
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc, "cpu": cpu, "l2": caches.get("L2"), "l3": caches.get("L3"),
        "ram_mib": mem_kib // 1024 if mem_kib else None,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": blas_threads,
    }


# --------------------------------------------------------------------------
# Workload process
# --------------------------------------------------------------------------

class Worker:
    """One workload subprocess, spoken to one JSON line at a time."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--serve", json.dumps(argv)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )

    def send(self, msg: dict) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise BenchError(f"workload process gave no answer within {RUN_LIMIT_S} s of the start")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # a worker still reading commands exits on end of input
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _checkout_quadtel(reply: dict, src: Path) -> None:
    if Path(reply["quadtel"]) != (src / "quadtel").resolve():
        raise BenchError(f"imported quadtel from {reply['quadtel']}, not from {src}")


def setup_samples(argv: list[str], env: dict, src: Path) -> list[float]:
    """Launch-to-ready times of fresh processes that import quadtel and parse ``argv``."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(WORKER), "--setup-only", json.dumps(argv)],
                              stdout=subprocess.PIPE, env=env, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up launch exited with code {proc.returncode}")
        reply = json.loads(proc.stdout.decode().splitlines()[0])
        _checkout_quadtel(reply, src)
        samples.append(reply["ready"] - t0)
    return samples


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

class Gate:
    """Every check of a run: counts attempted and failed ones (``failed_frac``).

    Report digests are kept in ``digests.json`` across runs, keyed by the
    program's source digest and the report's input key, so a report must be
    byte-identical in every run of one program at a fixed seed.
    """

    def __init__(self, digests: Path, program: str, report_passed):
        self.attempted = 0
        self.failures: list[str] = []
        self._path = digests
        self._all = json.loads(digests.read_text()) if digests.exists() else {}
        self._known = self._all.setdefault(program, {})
        self._report_passed = report_passed

    def expect(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def check_report(self, cmd, rc: int) -> int:
        """Check one CLI report; returns its size in bytes."""
        label = cmd.argv[0]
        self.expect(f"{label}: exit code 0", rc == 0)
        if not self.expect(f"{label}: report written", cmd.out.is_file()):
            return 0
        data = cmd.out.read_bytes()
        try:
            report = json.loads(data)
        except ValueError:
            report = {}
        self.expect(f"{label}: report_passed", bool(report) and self._report_passed(report))
        self.expect(f"{label}: assertions present", bool(report.get("assertions")))
        self.expect(f"{label}: config command", report.get("config", {}).get("command") == label)
        self.expect(f"{label}: {cmd.branches} branch records", len(report.get("branches", [])) == cmd.branches)
        digest = hashlib.sha256(data).hexdigest()
        self.expect(f"{label}: report sha256 as in earlier runs ({cmd.key})",
                    self._known.setdefault(cmd.key, digest) == digest)
        for name, fn in cmd.checks:
            try:
                ok = bool(fn(report))
            except (KeyError, TypeError, IndexError):
                ok = False
            self.expect(f"{label}: {name}", ok)
        return len(data)

    def save(self) -> None:
        tmp = self._path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._all, sort_keys=True))
        tmp.replace(self._path)


def program_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "quadtel").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Running a workload
# --------------------------------------------------------------------------

@dataclass
class Phase:
    """Units run back to back; the first is left out of the mean when more than two ran."""

    units: int
    walls: list  # clock seconds per measured unit
    factors: list  # reference seconds per clock second over each measured unit
    sizes: list  # report bytes per unit

    def ref_walls(self) -> list:
        return [w * f for w, f in zip(self.walls, self.factors)]


def run_phase(worker: Worker, units, budget_s: float, gate: Gate, first_unit: int, probe_file) -> Phase:
    """Closed loop over whole units until the next one would overrun ``budget_s``."""
    walls, spans, sizes = [], [], []
    t_phase = time.monotonic()
    while True:
        unit = next(units)
        wall = size = 0.0
        t_unit = time.monotonic()
        for cmd in unit:
            cmd.out.unlink(missing_ok=True)
            worker.send({"argv": cmd.argv, "unit": first_unit + len(walls)})
            reply = worker.recv()
            t0 = time.perf_counter()
            size += gate.check_report(cmd, reply["rc"])
            wall += reply["main_s"] + time.perf_counter() - t0
        walls.append(wall)
        spans.append((t_unit, time.monotonic()))
        sizes.append(size)
        if time.monotonic() - t_phase + statistics.median(walls) > budget_s:
            break
    skip = 1 if len(walls) > 2 else 0
    return Phase(len(walls), walls[skip:], speed_factors(probe_file, spans[skip:]), sizes)


def per_layer_metrics(trace: dict, units: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer figures per traced unit, so runs of different lengths compare."""
    layers = trace["layers"]

    def get(name, field="calls"):
        return layers.get(name, {}).get(field, 0) / units

    values = {}
    for name, unit in per_layer_spec():
        base, _, field = name.rpartition(".")
        if base == "trace":
            continue
        if field == "gb":
            fn, q = base.split(".")[1], int(base.rsplit(".q", 1)[1])
            values[name] = get(base) * 16 * (1 << q) * KERNEL_PASSES[fn] / 1e9
        elif field == "ms_p50":
            samples = trace["run_protocol_ms"]
            values[name] = statistics.median(samples) if samples else 0.0
        else:
            values[name] = get(base, field)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    values["trace.spans"] = trace["spans"] / units
    return values


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    src = Path.cwd() / "src"
    if not (src / "quadtel" / "cli.py").is_file():
        raise BenchError(f"no quadtel sources under {src}; run from the root of a quadtel checkout")
    sys.path.insert(0, str(src))
    from quadtel.harness import report_passed

    workload = WORKLOADS[name]
    (OUT_DIR / "reports").mkdir(parents=True, exist_ok=True)
    nproc = len(CPUS)
    # Everything a unit's time covers runs on one vCPU, the one the speed
    # probe measures: the workload process, and this process, which checks
    # the reports.  The two take turns (closed loop), and the children inherit
    # the affinity before numpy starts its threads.
    work_cpu = CPUS[-1]
    os.sched_setaffinity(0, {work_cpu})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    blas_threads = "1"  # the workload has one vCPU
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = blas_threads
    facts = machine_facts(nproc, blas_threads)

    t_start = time.monotonic()
    gate = Gate(OUT_DIR / "digests.json", program_digest(src), report_passed)
    units = workload.units(OUT_DIR, seed)
    first = next(units)
    units = itertools.chain([first], units)
    span_file = OUT_DIR / f"spans-{name}-{seed}.npz" if traced else None
    budget = seconds / 2 if traced else seconds
    probe_file = OUT_DIR / "probe.txt"
    probe_file.unlink(missing_ok=True)
    probe = subprocess.Popen([sys.executable, str(PROBE), str(work_cpu), str(probe_file)])
    try:
        setup = setup_samples(first[0].argv, env, src)
        worker = Worker(first[0].argv, env, t_start + RUN_LIMIT_S)
        try:
            ready = worker.recv()
            _checkout_quadtel(ready, src)
            setup.append(ready["ready"] - worker.launched)
            plain = run_phase(worker, units, budget, gate, 0, probe_file)
            if traced:
                worker.send({"trace": True})
                worker.recv()
                traced_phase = run_phase(worker, units, budget, gate, plain.units, probe_file)
            worker.send({"finish": str(span_file) if traced else None})
            final = worker.recv()
        finally:
            worker.close()
    finally:
        probe.terminate()
        probe.wait()
    gate.save()
    gate.expect(f"workload threads {final['threads']} <= nproc {nproc}", final["threads"] <= nproc)

    # The mean, not the median: the host's speed flips between a fast and a
    # slow state every few hundred milliseconds, so the median of short units
    # jumps between the two states while the mean follows the time spent in each.
    wall = statistics.fmean(plain.ref_walls())
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "facts": facts,
        "units": plain.units, "unit_walls_s": plain.walls, "unit_speed_factors": plain.factors,
        "setup_samples": setup, "threads": final["threads"],
        "end_to_end": {
            "wall_s": wall,
            "branches_per_s": workload.branches_per_unit / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": final["peak_rss_kib"] / 1024,
            "report_mib": statistics.median(plain.sizes) / MIB,
        },
    }
    if traced:
        trace = final["trace"]
        for span, per_unit in workload.expected_calls.items():
            got = trace["layers"].get(span, {}).get("calls", 0)
            want = per_unit * traced_phase.units
            gate.expect(f"traced {span} calls {got} == {want}", got == want)
        samples = trace["run_protocol_ms"]
        latency = {"samples": len(samples)}
        if samples:
            latency["p50"] = statistics.median(samples)
        if len(samples) >= P99_MIN_SAMPLES:
            latency["p99"] = statistics.quantiles(samples, n=100)[98]
        result.update(
            traced_unit_walls_s=traced_phase.walls, traced_unit_speed_factors=traced_phase.factors,
            span_file=str(span_file), layers=trace["layers"], run_protocol_ms=latency,
            per_layer=per_layer_metrics(trace, traced_phase.units, wall,
                                        statistics.fmean(traced_phase.ref_walls())),
        )
    result.update(checks_attempted=gate.attempted, check_failures=gate.failures,
                  failed_frac=len(gate.failures) / gate.attempted)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")
    return result


def result_line(result: dict) -> dict:
    if result["trace"]:
        spec, values = per_layer_spec(), result["per_layer"]
    else:
        spec, values = END_TO_END, result["end_to_end"]
    return {
        "correct": not result["check_failures"],
        "attempted": result["checks_attempted"],
        "failed": len(result["check_failures"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec},
    }


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} units={result['units']} "
          f"facts={json.dumps(result['facts'], sort_keys=True)}")
    spec = per_layer_spec() if result["trace"] else END_TO_END
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    for n, unit in spec:
        print(f"{n:48s} {values[n]:>16.6g} {unit}")
    if result["trace"]:
        lat = result["run_protocol_ms"]
        tail = f", p99 {lat['p99']:.4g} ms" if "p99" in lat else ""
        print(f"{'protocol.run_protocol latency':48s} p50 {lat.get('p50', 0):.4g} ms{tail} "
              f"over {lat['samples']} samples")
    print(f"{'failed_frac':48s} {result['failed_frac']:>16.6g} ratio "
          f"({len(result['check_failures'])}/{result['checks_attempted']} checks)")
    for failure in result["check_failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)


def print_table(results: list[dict]) -> None:
    names = [r["workload"] for r in results]
    print(f"{'metric':16s}{'unit':>7s}" + "".join(f"{n:>14s}" for n in names))
    rows = [(m, u, [r["end_to_end"][m] for r in results]) for m, u in END_TO_END]
    rows.append(("failed_frac", "ratio", [r["failed_frac"] for r in results]))
    for metric, unit, row in rows:
        print(f"{metric:16s}{unit:>7s}" + "".join(f"{v:>14.6g}" for v in row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in WORKLOADS]
            for r in results:
                print_result(r)
            print_table(results)
            return 0 if not any(r["check_failures"] for r in results) else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    line = result_line(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

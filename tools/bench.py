"""Benchmark runner for quadtel: one commit's medians, or two commits A/B.

Usage, from anywhere inside a quadtel git checkout:

    python3 tools/bench.py --runs 10 --workload all --seconds 8 --seed 1
    python3 tools/bench.py --ab PARENT CHANGE --workload sweep-s3 --pairs 10 --seconds 8 --seed 1
    python3 tools/bench.py --ab HEAD~1 HEAD --workload sweep-s3 sample-s4 --pairs 10
    python3 tools/bench.py --ab HEAD~1 HEAD --workload oracles --pairs 10 --trace

``all`` stands for every workload that the measured commit's
``BENCHMARK.json`` names, in its order.  Each commit is exported with ``git
archive`` into a fresh temporary directory, so no side holds a
``__pycache__`` or any other file left by an earlier command; ``--runs``
measures the commit at HEAD.  A run is ``perfbench/run.py --workload W
--seed S --seconds T --trace 0``, and its last JSON line is read.  The runs
set PYTHONDONTWRITEBYTECODE=1, so every launch compiles the package, as the
first launch in a fresh checkout does.

``--runs N`` runs each workload N times and gives each end-to-end metric's
median and quartiles.  ``--ab`` runs N pairs, the parent first when pair k
is even and the change first when k is odd.  For each workload and
end-to-end metric it prints each side's median and quartiles, the change's
wins (ties count for neither) and whether a gain holds: the change wins at
least nine tenths of the pairs, its median is better than the parent's by
more than the parent's interquartile range, and it failed no larger share
of its checks than the parent did.  It also prints the no-regression
verdict: ``ok`` where the change's median is worse than the parent's by at
most the metric's bound times the parent's median, ``worse`` where by more,
and ``unresolved`` where the parent's interquartile range exceeds that
allowance, unless every change run beats every parent run.  Which way is
better, and each bound, come from the measured commit's ``BENCHMARK.json``,
the change's under ``--ab``.  Either mode writes all of it, with every run's
values, to ``BENCH_<n>.json`` at the root of the checkout, n the next free
number.

``--trace`` adds one run per side and workload with ``--trace 1``, after
the untraced ones.  A traced run pays its tracer's overhead, so it feeds no
end-to-end figure; its per-layer call counts (``.calls``) and seconds
(``.s``) go into the workload's ``layers`` section, the seconds as clock
seconds (``clock_s``), which run.py does not scale to reference seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 600  # run.py abandons a run after 170 s; this only catches a hung child


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by ``statistics.quantiles``' default (exclusive) method."""
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def failed(lines: list[dict]) -> list[list[int]]:
    """Each run's [failed, attempted] checks."""
    return [[line["failed"], line["attempted"]] for line in lines]


def summarize(lines: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the quartiles of one commit's runs, from run.py result
    lines; ``better`` maps each metric to "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        metrics[name] = {"unit": lines[0]["metrics"][name]["unit"], "better": direction,
                         **quartiles([line["metrics"][name]["value"] for line in lines])}
    return {"metrics": metrics, "failed": failed(lines)}


def compare(parent: list[dict], change: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric, both sides' quartiles, the change's wins, the gain rule
    and the no-regression verdict.

    ``parent`` and ``change`` are run.py result lines, pair k of each run
    together; ``better`` maps each metric to "lower" or "higher", and
    ``bounds`` to its allowed fraction of the parent's median.  No metric
    gains where the change failed a larger share of its checks.
    """
    pairs = len(parent)
    pf, pa = (sum(line[k] for line in parent) for k in ("failed", "attempted"))
    cf, ca = (sum(line[k] for line in change) for k in ("failed", "attempted"))
    fails_no_more = cf * pa <= pf * ca  # cf / ca <= pf / pa, with no division by 0
    metrics = {}
    for name, direction in better.items():
        p = [line["metrics"][name]["value"] for line in parent]
        c = [line["metrics"][name]["value"] for line in change]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        ps, cs = quartiles(p), quartiles(c)
        margin = sign * (ps["median"] - cs["median"])
        allowed = bounds[name] * ps["median"]
        if ps["q3"] - ps["q1"] > allowed and not all(sign * (a - b) > 0 for a in p for b in c):
            verdict = "unresolved"
        else:
            verdict = "ok" if -margin <= allowed else "worse"
        metrics[name] = {
            "unit": parent[0]["metrics"][name]["unit"], "better": direction,
            "parent": ps, "change": cs, "wins": wins,
            "gain": 10 * wins >= 9 * pairs and margin > ps["q3"] - ps["q1"] and fails_no_more,
            "verdict": verdict,
        }
    return {"pairs": pairs, "metrics": metrics, "failed": {"parent": failed(parent), "change": failed(change)}}


def layers(traced: dict[str, list[dict]]) -> dict:
    """The ``layers`` section from each side's traced run.py result lines:
    per ``.calls`` and ``.s`` metric, each side's median, and each run's
    [failed, attempted] checks.  Seconds are labelled ``clock_s``."""
    first = next(iter(traced.values()))[0]["metrics"]
    names = [n for n in first if n.rpartition(".")[2] in ("calls", "s")]
    metrics = {
        name: {"unit": "clock_s" if name.endswith(".s") else first[name]["unit"],
               **{side: statistics.median(line["metrics"][name]["value"] for line in lines)
                  for side, lines in traced.items()}}
        for name in names
    }
    return {"metrics": metrics, "failed": {side: failed(lines) for side, lines in traced.items()}}


def workload_names(requested: list[str], spec: dict) -> list[str]:
    """The requested workloads, with ``all`` standing for every one that
    ``spec`` (a ``BENCHMARK.json``) names; each once, in order.  A name that
    ``spec`` does not know is a ValueError."""
    known = [w["name"] for w in spec["workloads"]]
    names = []
    for name in requested:
        if name != "all" and name not in known:
            raise ValueError(f"unknown workload {name!r}; BENCHMARK.json names {known}")
        for w in known if name == "all" else [name]:
            if w not in names:
                names.append(w)
    return names


def next_bench_path(root: Path) -> Path:
    """``BENCH_<n>.json`` under ``root``, n one above the highest taken."""
    taken = [int(m.group(1)) for p in root.iterdir() if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def last_json_line(stdout: str) -> dict:
    """The result object that run.py prints on its last line, with its
    metrics and check counts; a ValueError where the last line is not one,
    as after a traceback."""
    last = stdout.strip().rsplit("\n", 1)[-1]
    try:
        line = json.loads(last)
    except json.JSONDecodeError:
        line = None
    if not (isinstance(line, dict) and {"metrics", "failed", "attempted"} <= line.keys()):
        raise ValueError(f"its last line is not a result object: {last[:120]!r}")
    return line


def machine_facts(stdout: str) -> dict | None:
    """The facts run.py prints on its "# <workload> ... facts={...}" line."""
    for line in stdout.splitlines():
        if line.startswith("# ") and " facts=" in line:
            return json.loads(line.split(" facts=", 1)[1])
    return None


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def export(root: Path, commit: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", commit],
                             check=True, stdout=subprocess.PIPE).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> tuple[dict, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    failure = f"{workload} in {checkout} exited with code {proc.returncode}"
    if proc.returncode not in (0, 1):  # 1: the run finished and a check failed, or it raised
        raise RuntimeError(failure)
    try:
        return last_json_line(proc.stdout), proc.stdout
    except ValueError as err:
        raise RuntimeError(f"{failure}; {err}") from None


def spread(q: dict) -> str:
    return "{median:.6g} [{q1:.6g}, {q3:.6g}]".format(**q)


def failed_total(runs: list[list[int]]) -> str:
    return f"{sum(f for f, _ in runs)} of {sum(a for _, a in runs)}"


def print_summary(workload: str, result: dict) -> None:
    print(f"{workload}: {len(result['runs'])} runs")
    print(f"  {'metric':16s}{'unit':>6s}  {'median [q1, q3]':>34s}")
    for name, m in result["metrics"].items():
        print(f"  {name:16s}{m['unit']:>6s}  {spread(m):>34s}")
    print(f"  failed checks: {failed_total(result['failed'])}")


def print_comparison(workload: str, result: dict) -> None:
    print(f"{workload}: {result['pairs']} pairs")
    print(f"  {'metric':16s}{'unit':>6s}  {'parent median [q1, q3]':>34s}  {'change median [q1, q3]':>34s}"
          f"  {'wins':>6s}  gain  verdict")
    for name, m in result["metrics"].items():
        print(f"  {name:16s}{m['unit']:>6s}  {spread(m['parent']):>34s}  {spread(m['change']):>34s}"
              f"  {m['wins']:>3d}/{result['pairs']:<2d}  {'yes' if m['gain'] else 'no':4s}  {m['verdict']}")
    for side, runs in result["failed"].items():
        print(f"  {side} failed checks: {failed_total(runs)}")


def print_layers(workload: str, result: dict) -> None:
    sides = list(result["failed"])
    print(f"{workload}: traced layers, nonzero only")
    print(f"  {'layer':48s}{'unit':>8s}" + "".join(f"{side:>14s}" for side in sides))
    for name, m in result["metrics"].items():
        if any(m[side] for side in sides):
            print(f"  {name:48s}{m['unit']:>8s}" + "".join(f"{m[side]:>14.6g}" for side in sides))
    for side, runs in result["failed"].items():
        print(f"  {side} traced failed checks: {failed_total(runs)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--runs", type=int, metavar="N", help="run each workload N times on HEAD")
    mode.add_argument("--ab", nargs=2, metavar=("PARENT", "CHANGE"), help="the two commits to compare")
    parser.add_argument("--workload", nargs="+", required=True, help="perfbench workload names, or all")
    parser.add_argument("--pairs", type=int, default=10, help="with --ab: pairs per workload")
    parser.add_argument("--seconds", type=float, default=25, help="run.py --seconds, the same on every run")
    parser.add_argument("--seed", type=int, default=0, help="run.py --seed")
    parser.add_argument("--trace", action="store_true",
                        help="also one traced run per side and workload, for the layers section")
    args = parser.parse_args(argv)
    count = args.pairs if args.ab else args.runs
    if count < 1:
        parser.error(f"--{'pairs' if args.ab else 'runs'} must be at least 1")
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    revs = dict(zip(("parent", "change"), args.ab)) if args.ab else {"commit": "HEAD"}
    commits = {side: git(root, "rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revs.items()}
    bench = {**commits, "seed": args.seed, "seconds": args.seconds, "facts": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="quadtel-bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(root, commit, checkouts[side])
        # the measured commit's spec: the change's, under --ab
        spec = json.loads((checkouts[list(commits)[-1]] / "BENCHMARK.json").read_text())
        try:
            workloads = workload_names(args.workload, spec)
        except ValueError as err:
            parser.error(str(err))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for workload in workloads:
            lines = {side: [] for side in commits}
            for k in range(count):
                for side in list(commits) if k % 2 == 0 else list(commits)[::-1]:
                    line, stdout = run_once(checkouts[side], workload, args.seed, args.seconds)
                    lines[side].append(line)
                    bench["facts"] = bench["facts"] or machine_facts(stdout)
                    print(f"{workload} {'pair' if args.ab else 'run'} {k + 1}/{count} {side}: "
                          + " ".join(f"{n}={m['value']:.6g}" for n, m in line["metrics"].items()), flush=True)
            values = {side: [{n: m["value"] for n, m in line["metrics"].items()} for line in runs]
                      for side, runs in lines.items()}
            if args.ab:
                result = compare(lines["parent"], lines["change"], better, bounds)
                result["runs"] = values
                print_comparison(workload, result)
            else:
                result = summarize(lines["commit"], better)
                result["runs"] = values["commit"]
                print_summary(workload, result)
            if args.trace:
                traced = {side: [run_once(checkouts[side], workload, args.seed, args.seconds, trace=True)[0]]
                          for side in commits}
                result["layers"] = layers(traced)
                print_layers(workload, result["layers"])
            bench["workloads"][workload] = result
    path = next_bench_path(root)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload at minimum length.

    python3 perfbench/smoke.py              # from the root of a checkout
    python3 -m pytest perfbench/smoke.py

Runs each workload for one second, untraced and traced, and asserts that the
result line names exactly the metrics of BENCHMARK.json with their units,
that the table above it prints each of them with its unit, and that every
check passed.  It also asserts that the benchmark refuses to run (non-zero
exit, no result line) in a directory holding only BENCHMARK.json and
perfbench/.  It takes about three minutes and peaks at about 2.1 GiB, the
size of the dense s=4 workload.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def check_workload(workload: str) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json"
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
        for name, unit in want.items():
            assert table.get(name) == unit, f"{workload} trace={trace}: {name} not printed with {unit}"


def test_workloads():
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_refuses_without_sources()
    test_workloads()
    print("smoke test passed")

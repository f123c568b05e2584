"""The benchmark runner's arithmetic (``tools/bench.py``) on made-up run.py
result lines: quartiles, one commit's summary, wins, the gain rule, the
no-regression verdict, the workload names ``all`` stands for, the next BENCH
file number, the reading of run.py's output and the traced layers section.
No benchmark runs here."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


TRACEBACK = "# sweep-s3 seed=1\nTraceback (most recent call last):\nKeyError: 'x'\n"
BOUNDS = {"wall_s": 0.25, "branches_per_s": 0.25}


def line(failed=0, **values):
    """A run.py result line with the given metric values."""
    units = {"wall_s": "s", "branches_per_s": "1/s"}
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def test_quartiles_use_the_exclusive_method():
    assert bench.quartiles([float(v) for v in range(10, 0, -1)]) == {"q1": 2.75, "median": 5.5, "q3": 8.25}
    assert bench.quartiles([3.0, 1.0]) == {"q1": 0.5, "median": 2.0, "q3": 3.5}
    assert bench.quartiles([0.7]) == {"q1": 0.7, "median": 0.7, "q3": 0.7}


def test_compare_counts_wins_and_applies_the_gain_rule():
    # parent walls 1.00..1.09 (quartiles 1.0175, 1.0725: IQR 0.055); pair k of
    # the change runs 0.9 + k/100, so it wins every pair but the tied last,
    # and the higher-is-better rate mirrors it.  Each side fails one check,
    # in different pairs
    parent = [line(wall_s=1 + k / 100, branches_per_s=100 - k, failed=int(k == 5)) for k in range(10)]
    change = [line(wall_s=0.9 + k / 100 if k < 9 else 1.09, branches_per_s=101 - k if k < 9 else 91,
                   failed=int(k == 3)) for k in range(10)]
    result = bench.compare(parent, change, {"wall_s": "lower", "branches_per_s": "higher"}, BOUNDS)
    wall, rate = result["metrics"]["wall_s"], result["metrics"]["branches_per_s"]
    assert result["pairs"] == 10
    assert wall["parent"] == pytest.approx({"q1": 1.0175, "median": 1.045, "q3": 1.0725})
    assert wall["change"]["median"] == pytest.approx(0.945)
    assert (wall["wins"], wall["gain"], wall["unit"], wall["better"]) == (9, True, "s", "lower")
    # 9 wins of 10, but the medians differ by 1, less than the parent's IQR of 5.5
    assert (rate["wins"], rate["gain"]) == (9, False)
    assert result["failed"]["change"][3] == [1, 100] and result["failed"]["parent"][3] == [0, 100]
    assert result["failed"]["parent"][5] == [1, 100] and result["failed"]["change"][5] == [0, 100]


def test_gain_needs_nine_wins_in_ten():
    parent = [line(wall_s=1.0) for _ in range(10)]
    for wins, gain in ((8, False), (9, True), (10, True)):
        change = [line(wall_s=0.5 if k < wins else 1.5) for k in range(10)]
        got = bench.compare(parent, change, {"wall_s": "lower"}, BOUNDS)["metrics"]["wall_s"]
        assert (got["wins"], got["gain"]) == (wins, gain)


def test_no_gain_where_the_change_fails_a_larger_share_of_checks():
    # the change wins every pair by far; it gains only while its failed share
    # (failed over attempted, summed over the runs) is at most the parent's
    parent = [line(wall_s=1.0, failed=int(k < 2)) for k in range(10)]  # 2 of 1000
    for change_failed, gain in ((0, True), (2, True), (3, False)):
        change = [line(wall_s=0.5, failed=int(k < change_failed)) for k in range(10)]
        assert bench.compare(parent, change, {"wall_s": "lower"}, BOUNDS)["metrics"]["wall_s"]["gain"] is gain
    clean = [line(wall_s=1.0) for _ in range(10)]
    one_failed = [line(wall_s=0.5, failed=int(k == 9)) for k in range(10)]
    assert bench.compare(clean, one_failed, {"wall_s": "lower"}, BOUNDS)["metrics"]["wall_s"]["gain"] is False


def test_verdict_allows_the_bound_and_is_unresolved_where_the_parent_spreads_wider():
    # tight parent: walls 1.00..1.09 (median 1.045, IQR 0.055) and rates
    # 100..91 (median 95.5); a 25 % bound allows 0.26125 s and 23.875 /s
    better = {"wall_s": "lower", "branches_per_s": "higher"}
    parent = [line(wall_s=1 + k / 100, branches_per_s=100 - k) for k in range(10)]
    for wall, rate, verdict in ((1.2, 75.0, "ok"), (1.31, 71.0, "worse"), (0.5, 200.0, "ok")):
        change = [line(wall_s=wall, branches_per_s=rate) for _ in range(10)]
        got = bench.compare(parent, change, better, BOUNDS)["metrics"]
        assert (got["wall_s"]["verdict"], got["branches_per_s"]["verdict"]) == (verdict, verdict)
    # wide parent: walls 1 and 2 alternating (median 1.5, IQR 1 > 0.375), so
    # neither a like nor a far worse change is resolved; a change whose every
    # run beats every parent run is
    wide = [line(wall_s=1.0 + k % 2) for k in range(10)]
    for wall, verdict in ((1.5, "unresolved"), (5.0, "unresolved"), (0.99, "ok")):
        change = [line(wall_s=wall) for _ in range(10)]
        assert bench.compare(wide, change, {"wall_s": "lower"}, BOUNDS)["metrics"]["wall_s"]["verdict"] == verdict


def test_summarize_gives_one_commits_quartiles_and_failed_checks():
    lines = [line(wall_s=w, branches_per_s=1 / w, failed=int(w == 0.8)) for w in (0.5, 0.8, 0.6, 0.7)]
    got = bench.summarize(lines, {"wall_s": "lower", "branches_per_s": "higher"})
    assert got["metrics"]["wall_s"] == pytest.approx(
        {"unit": "s", "better": "lower", "q1": 0.525, "median": 0.65, "q3": 0.775})
    rate = got["metrics"]["branches_per_s"]
    assert (rate["unit"], rate["better"], rate["median"]) == ("1/s", "higher", pytest.approx((1 / 0.7 + 1 / 0.6) / 2))
    assert got["failed"] == [[0, 100], [1, 100], [0, 100], [0, 100]]


def test_all_stands_for_every_workload_the_spec_names():
    spec = {"workloads": [{"name": n} for n in ("sweep-s3", "sample-s4", "dense-s4", "oracles")]}
    assert bench.workload_names(["all"], spec) == ["sweep-s3", "sample-s4", "dense-s4", "oracles"]
    assert bench.workload_names(["oracles", "all", "sweep-s3"], spec) == ["oracles", "sweep-s3", "sample-s4",
                                                                          "dense-s4"]
    assert bench.workload_names(["dense-s4"], spec) == ["dense-s4"]
    with pytest.raises(ValueError, match="unknown workload 'sweep-s4'"):
        bench.workload_names(["sweep-s4"], spec)


def test_next_bench_path_takes_one_above_the_highest(tmp_path):
    assert bench.next_bench_path(tmp_path) == tmp_path / "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_7.json.tmp", "OTHER_9.json"):
        (tmp_path / name).write_text("{}")
    assert bench.next_bench_path(tmp_path) == tmp_path / "BENCH_4.json"


def test_result_line_and_facts_are_read_from_run_output():
    facts = {"nproc": 2, "python": "3.11.7"}
    stdout = "\n".join([f"# sweep-s3 seed=1 units=9 facts={json.dumps(facts)}", "wall_s  0.6 s",
                        json.dumps(line(wall_s=0.6)), ""])
    assert bench.last_json_line(stdout) == line(wall_s=0.6)
    assert bench.machine_facts(stdout) == facts
    assert bench.machine_facts("wall_s 0.6 s\n") is None
    for stdout in (TRACEBACK, "", "[1, 2]\n", '{"metrics": {}}\n'):
        with pytest.raises(ValueError, match="its last line is not a result object"):
            bench.last_json_line(stdout)


def test_a_run_without_a_result_line_names_its_workload_checkout_and_exit_code(monkeypatch):
    # run.py exits 1 both when a check fails and when it dies with a
    # traceback; only a last line holding a result object is a finished run
    def run_prints(stdout, code):
        monkeypatch.setattr(bench.subprocess, "run",
                            lambda argv, **kw: subprocess.CompletedProcess(argv, code, stdout=stdout))

    finished = json.dumps(line(wall_s=0.6, failed=1)) + "\n"
    run_prints(finished, 1)
    assert bench.run_once(Path("change"), "sweep-s3", 1, 8.0) == (line(wall_s=0.6, failed=1), finished)
    for stdout, code in ((TRACEBACK, 1), ("[1, 2]\n", 0), ("", 3)):
        run_prints(stdout, code)
        with pytest.raises(RuntimeError, match=f"^sweep-s3 in change exited with code {code}"):
            bench.run_once(Path("change"), "sweep-s3", 1, 8.0)


def traced_line(failed=0, **values):
    """A run.py --trace 1 result line: per-layer metrics with run.py's units."""
    units = {"calls": "count", "s": "s", "gb": "GB", "self_s": "s", "ms_p50": "ms", "wall_s": "s"}
    return {"correct": not failed, "attempted": 50, "failed": failed,
            "metrics": {n.replace("__", "."): {"value": v, "unit": units[n.rpartition("__")[2]]}
                        for n, v in values.items()}}


def test_layers_keep_the_calls_and_clock_seconds_of_the_traced_runs():
    # a traced line also holds modelled GB, a self time, a latency and the
    # tracer's own figures; the layers section keeps only the .calls and
    # .s metrics, per side, and labels the seconds as clock seconds
    def side(circuit_s, failed=0):
        return traced_line(failed, channel__prepare_channel_circuit__s=circuit_s,
                           corrections__match_eta__calls=129.0, statevector__apply_1q__q25__gb=0.5,
                           harness__cmd_run__self_s=0.01, protocol__run_protocol__ms_p50=0.2,
                           trace__wall_s=0.06)

    got = bench.layers({"parent": [side(0.0065)], "change": [side(0.0010, failed=1)]})
    assert got["metrics"] == {
        "channel.prepare_channel_circuit.s": {"unit": "clock_s", "parent": 0.0065, "change": 0.0010},
        "corrections.match_eta.calls": {"unit": "count", "parent": 129.0, "change": 129.0},
    }
    assert got["failed"] == {"parent": [[0, 50]], "change": [[1, 50]]}
    # more than one traced run per side gives the median
    many = bench.layers({"commit": [side(s) for s in (0.003, 0.001, 0.002)]})
    assert many["metrics"]["channel.prepare_channel_circuit.s"]["commit"] == 0.002


def test_a_traced_run_asks_run_py_for_its_layers(monkeypatch):
    # --trace 1 in the argv of a traced run, --trace 0 in every other
    argvs, out = [], json.dumps(traced_line(corrections__match_eta__calls=129.0)) + "\n"
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda argv, **kw: argvs.append(argv) or subprocess.CompletedProcess(argv, 0, stdout=out))
    bench.run_once(Path("change"), "oracles", 1, 8.0)
    line, _ = bench.run_once(Path("change"), "oracles", 1, 8.0, trace=True)
    assert [argv[argv.index("--trace") + 1] for argv in argvs] == ["0", "1"]
    assert line["metrics"]["corrections.match_eta.calls"]["value"] == 129.0

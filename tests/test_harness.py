"""Harness tests: efficiency numbers, comparison table, expansion
adjudication, input parsing, report schema determinism, and the CLI."""
import argparse
import contextlib
import inspect
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtel import channel as ch
from quadtel import cli
from quadtel import corrections as co
from quadtel import harness as hz
from quadtel import protocol as pr
from quadtel import statevector as sv
from routes import traced_peak


# ---------------------------------------------------------------- efficiency

def test_efficiency_three_party_row():
    assert hz.intrinsic_efficiency(3, 7, 9) == 18.75


def test_efficiency_ten_qubit_row():
    assert abs(hz.intrinsic_efficiency(4, 10, 16) - 15.384615384615385) < 1e-12


def test_efficiency_this_work_row_is_800_over_37():
    row = hz.reproduce_comparison_table()[3]
    assert 100 * row["q_s"] * 37 == 800 * (row["q_u"] + row["b_t"])
    assert row["computed_tau"] == hz.intrinsic_efficiency(8, 17, 20) == 800 / 37


def test_efficiency_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        hz.intrinsic_efficiency(0, 7, 9)


def test_classical_cost_rows():
    assert hz.classical_cost(3, 1, 3) == 9
    assert hz.classical_cost(4, 1, 4) == 12
    assert abs(hz.intrinsic_efficiency(4, 9, hz.classical_cost(4, 1, 4)) - 19.047619047619047) < 1e-12
    assert hz.classical_cost(8, 1, 4) == 20
    assert hz.classical_cost(4, 2, 4) == 16


def test_comparison_table_follows_the_truncation_rule():
    rows = hz.reproduce_comparison_table()
    assert [hz.truncated_tau(r["q_s"], r["q_u"], r["b_t"]) for r in rows] == [1875, 1538, 1904, 2162]
    assert [r["truncated_tau"] for r in rows] == [18.75, 15.38, 19.04, 21.62]
    assert [r["published_tau"] for r in rows] == [18.75, 15.38, 19.04, 21.65]
    assert [r["published_is_truncation"] for r in rows] == [True, True, True, False]
    assert [round(r["computed_tau"], 4) for r in rows] == [18.75, 15.3846, 19.0476, 21.6216]
    # the rule is truncation: rounding 4/21 would print 19.05
    assert (2 * 40000 + 21) // (2 * 21) == 1905


def test_no_denominator_gives_the_published_21_65():
    # 800/D percent in hundredths, by floor and by rounding half up, in integers
    hits = [d for d in range(1, 1000) if 80000 // d == 2165 or (2 * 80000 + d) // (2 * d) == 2165]
    assert hits == []


# ---------------------------------------------------------------- expansion

def test_expansion_prefactor_adjudication():
    rng = np.random.default_rng(3)
    result = hz.adjudicate_expansion_prefactor([pr.InfoState.random(rng) for _ in range(4)])
    assert result["n_terms"] == 131072
    assert abs(result["measured_sum_sq"] - 1) < 1e-9
    lo, hi = result["measured_coefficient_range"]
    assert abs(hi - 1 / (256 * np.sqrt(2))) < 1e-12
    assert hi - lo < 1e-12
    assert result["normalizing_prefactor"] == "1/(256*sqrt(2))"
    big = result["candidates"]["1/(64*sqrt(2))"]
    assert abs(big["implied_sum_sq"] - 16.0) < 1e-9
    assert not big["matches_measured_coefficient"]
    assert result["worst_direction_deviation"] < 1e-9


def test_expansion_with_explicit_inputs():
    rng = np.random.default_rng(4)
    inputs = [pr.InfoState.random(rng) for _ in range(4)]
    result = hz.adjudicate_expansion_prefactor(inputs)
    assert abs(result["measured_sum_sq"] - 1) < 1e-9
    with pytest.raises(ValueError):
        hz.adjudicate_expansion_prefactor(inputs[:2])


# ------------------------------------------------------------------ parsing

def test_parse_forced_spec_roundtrip():
    record = hz.parse_forced_spec("k+,k-,l+,l-,1", 2)
    assert record == pr.OutcomeRecord((0, 1, 2, 3), 1)
    assert record.symbols() == "k+,k-,l+,l-,1"


def test_parse_forced_spec_errors():
    with pytest.raises(ValueError):
        hz.parse_forced_spec("k+,k-,1", 2)
    with pytest.raises(ValueError):
        hz.parse_forced_spec("k+,k-,l+,xx,1", 2)
    with pytest.raises(ValueError):
        hz.parse_forced_spec("k+,k-,l+,l-,2", 2)


def write_inputs(path, vectors):
    data = {"senders": [[[float(c.real), float(c.imag)] for c in v] for v in vectors]}
    path.write_text(json.dumps(data))


def test_load_input_file(tmp_path):
    rng = np.random.default_rng(9)
    vectors = [pr.InfoState.random(rng).coeffs for _ in range(2)]
    path = tmp_path / "inputs.json"
    write_inputs(path, vectors)
    states = hz.load_input_file(str(path))
    assert len(states) == 2
    assert np.allclose(states[0].coeffs, vectors[0], atol=1e-12)


def test_load_input_file_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.json"
    write_inputs(path, [np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)])
    with pytest.raises(ValueError, match="not normalized"):
        hz.load_input_file(str(path))


def test_load_input_file_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"senders": [[[1.0, 0.0]]]}))
    with pytest.raises(ValueError, match="4 \\[re, im\\] pairs"):
        hz.load_input_file(str(path))
    path.write_text(json.dumps({"nope": []}))
    with pytest.raises(ValueError, match="senders"):
        hz.load_input_file(str(path))
    path.write_text(json.dumps({"senders": [[[1.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]]}))
    with pytest.raises(ValueError, match="sender 0: expected 4 \\[re, im\\] pairs"):
        hz.load_input_file(str(path))


def test_load_input_file_rejects_integer_beyond_float(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"senders": [[[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [0, 0]]]}')
    with pytest.raises(ValueError, match="sender 0: int too large"):
        hz.load_input_file(str(path))


# -------------------------------------------------------------------- cmd_run

def test_cmd_run_exhaustive_schema():
    report = hz.cmd_run(senders=1, mode="exhaustive", engine="structured")
    assert set(report) >= {"config", "seed", "assertions", "branches", "efficiency"}
    assert len(report["branches"]) == 32
    assert hz.report_passed(report)
    names = [a["name"] for a in report["assertions"]]
    assert "branch_probability_sum" in names


def test_cmd_run_forced_and_sampled():
    forced = hz.cmd_run(senders=2, mode="forced:k+,l-,k-,l+,0")
    assert len(forced["branches"]) == 1
    assert forced["branches"][0]["outcome"]["symbols"] == "k+,l-,k-,l+,0"
    assert hz.report_passed(forced)
    sampled = hz.cmd_run(senders=4, seed=11, mode="sampled:6")
    assert len(sampled["branches"]) == 6
    assert hz.report_passed(sampled)


def test_cmd_run_rejects_bad_mode_and_counts(tmp_path):
    with pytest.raises(ValueError):
        hz.cmd_run(senders=1, mode="warp")
    with pytest.raises(ValueError):
        hz.cmd_run(senders=1, mode="sampled:0")
    rng = np.random.default_rng(10)
    path = tmp_path / "inputs.json"
    write_inputs(path, [pr.InfoState.random(rng).coeffs])
    with pytest.raises(ValueError, match="--senders"):
        hz.cmd_run(senders=2, mode="exhaustive", input_file=str(path))


def test_cmd_run_input_file_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    vectors = [pr.InfoState.random(rng).coeffs for _ in range(2)]
    path = tmp_path / "inputs.json"
    write_inputs(path, vectors)
    report = hz.cmd_run(senders=2, mode="forced:k+,k+,k+,k+,0", input_file=str(path))
    assert hz.report_passed(report)
    assert report["config"]["inputs"] == {"file": str(path)}


def test_cmd_verify_tables_report():
    report = hz.cmd_verify_tables(seed=1)
    assert hz.report_passed(report)
    assert report["tables"]["n_matched"] == 128
    assert report["tables"]["all_ok"]


def test_cmd_verify_tables_reads_no_random_input():
    assert hz.cmd_verify_tables(seed=0)["tables"] == hz.cmd_verify_tables(seed=7)["tables"]


def test_cmd_prepare_channel_peaks_at_two_states():
    # 10 pairs are 21 qubits, a 32 MiB state: the circuit and the analytic
    # channel, with the difference written into the analytic one's array
    report, peak = traced_peak(lambda: hz.cmd_prepare_channel(10))
    assert hz.report_passed(report)
    assert peak <= 2 * (32 << 20) + (4 << 20)


@pytest.mark.parametrize("call", [ch.prepare_channel_circuit, ch.build_channel_analytic, hz.cmd_prepare_channel,
                                  pr.register_qubits],
                         ids=["prepare_channel_circuit", "build_channel_analytic", "cmd_prepare_channel",
                              "register_qubits"])
def test_pair_and_sender_counts_must_be_integers(call):
    # 1.0 and True equal 1, and "1" and None mean nothing here: each is
    # refused with one line, by statevector._is_integer's rule, which takes
    # a numpy integer
    for bad in (1.0, np.float64(1.0), True, np.True_, "1", None):
        with pytest.raises(ValueError, match=r"count must be an integer.*, got ") as err:
            call(bad)
        assert "\n" not in str(err.value)
    call(np.int64(1))


# ------------------------------------------------------------------- reports

def test_reports_are_byte_identical_for_same_config():
    a = hz.render_report(hz.cmd_run(senders=2, seed=5, mode="sampled:4"))
    b = hz.render_report(hz.cmd_run(senders=2, seed=5, mode="sampled:4"))
    assert a == b
    c = hz.render_report(hz.cmd_run(senders=2, seed=6, mode="sampled:4"))
    assert a != c


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), object()])
def test_render_report_refuses_what_json_refuses(bad):
    for report in (bad, {"a": [1, bad]}, [{"b": bad}]):
        with pytest.raises(TypeError):
            json.dumps(report, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            hz.render_report(report)
    if not isinstance(bad, set):  # a set cannot be a dict key
        with pytest.raises(TypeError):
            hz.render_report({bad: 1})


def test_exhaustive_report_branches_match_forced_reports():
    # each branch of the exhaustive sweep is reported as a forced run of the
    # same record would report it, whatever the sweep ran before it; no
    # record repeats the transcript, which its outcome gives
    swept = hz.cmd_run(senders=1, seed=9, mode="exhaustive")
    assert not any("transcript" in branch for branch in swept["branches"])
    for branch in swept["branches"]:
        forced = hz.cmd_run(senders=1, seed=9, mode="forced:" + branch["outcome"]["symbols"])
        assert forced["branches"] == [branch]


def test_classical_bits_check_reads_every_run(monkeypatch):
    # one run of eight sends Elle's bit to one receiver too few: the check
    # reads the run farthest from the cost model, not the largest count
    count, calls = pr._bits_sent, []

    def one_short(bsm_messages, controller_messages):
        calls.append(controller_messages)
        return count(bsm_messages, controller_messages - (len(calls) == 3))

    monkeypatch.setattr(pr, "_bits_sent", one_short)
    report = hz.cmd_run(senders=2, seed=1, mode="sampled:8")
    bits = [b["classical_bits_sent"] for b in report["branches"]]
    assert bits == [10, 10, 9, 10, 10, 10, 10, 10]
    check = next(a for a in report["assertions"] if a["name"] == "classical_bits_per_run")
    assert check["measured"] == 9.0 and not check["pass"]


def test_summarize_mentions_every_assertion():
    report = hz.cmd_efficiency()
    text = hz.summarize(report)
    assert text.count("[pass]") == len(report["assertions"])


# ----------------------------------------------------------------------- CLI

def test_cli_prepare_channel_small(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = cli.main(["prepare-channel", "--pairs", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["pairs"] == 2
    assert all(a["pass"] for a in data["assertions"])
    assert "OK" in capsys.readouterr().out


def test_cli_run_exhaustive_dense(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = cli.main(["run", "--senders", "1", "--mode", "exhaustive",
                     "--engine", "dense", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["branches"]) == 32
    assert "32 branch record(s)" in capsys.readouterr().out


def test_dense_cap_enforced_for_large_runs(monkeypatch):
    def build_nothing(cls, inputs):
        raise AssertionError("a dense state was built before the opt-in check")

    spec = "forced:k+,k-,l+,l-,k+,l-,1"
    with monkeypatch.context() as patch:
        patch.setattr(pr.DenseState, "prepare", classmethod(build_nothing))
        with pytest.raises(ValueError) as refused:
            hz.cmd_run(senders=3, engine="dense", mode=spec)
        assert str(refused.value) == (
            "dense state of 19 qubits exceeds the 16-qubit default; "
            "pass --allow-large-dense to opt in up to 26"
        )
        # a double fault: the opt-in error comes before the forced spec's
        with pytest.raises(ValueError, match="^dense state of 25 qubits exceeds"):
            hz.cmd_run(senders=4, engine="dense", mode="forced:k+,k+")
    report = hz.cmd_run(senders=3, engine="dense", mode=spec, allow_large_dense=True)
    assert report["config"]["allow_large_dense"] is True
    assert hz.report_passed(report)


def test_cli_large_dense_needs_flag(capsys):
    code = cli.main(["run", "--senders", "3", "--mode", "forced:k+,k+,k+,k+,k+,k+,0",
                     "--engine", "dense"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds" in err and "--allow-large-dense" in err
    assert len(err.splitlines()) == 1
    code = cli.main(["run", "--senders", "3", "--mode", "forced:k+,k+,k+,k+,k+,k+,0",
                     "--engine", "dense", "--allow-large-dense"])
    assert code == 0


def test_cli_rejects_bad_input_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_inputs(path, [np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)])
    out = tmp_path / "report.json"
    code = cli.main(["run", "--senders", "1", "--input", str(path), "--out", str(out)])
    assert code == 2
    assert "not normalized" in capsys.readouterr().err
    assert "error" in json.loads(out.read_text())


def test_cli_rejects_deeply_nested_input_file(tmp_path, capsys):
    # json.load gives up on this with a RecursionError, not a ValueError
    path = tmp_path / "deep.json"
    path.write_text('{"senders": ' + "[" * 100000 + "]" * 100000 + "}")
    code = cli.main(["run", "--senders", "1", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: input file nests JSON too deeply to read\n"


@pytest.mark.parametrize("mode", ["sampled:2", "forced:k+,k+,0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cli_rejects_non_finite_input(tmp_path, capsys, bad, mode):
    path = tmp_path / "bad.json"
    write_inputs(path, [np.array([bad, 0.0, 0.0, 0.0], dtype=complex)])
    code = cli.main(["run", "--senders", "1", "--input", str(path), "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sender 0:") and "finite" in err
    assert len(err.splitlines()) == 1


def test_cli_rejects_non_list_senders(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"senders": 5}))
    code = cli.main(["run", "--senders", "1", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "list" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("sender, bad", [
    ([["0.5", "0"], ["0.5", "0"], ["0.5", "0"], ["0.5", "0"]], '"0.5"'),
    ([[True, 0], [0, 0], [0, 0], [0, 0]], "true"),
], ids=["strings", "booleans"])
def test_cli_rejects_non_number_coefficients(tmp_path, capsys, sender, bad):
    # numpy would convert both to floats; only JSON numbers are coefficients
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"senders": [sender]}))
    code = cli.main(["run", "--senders", "1", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: sender 0: coefficients must be JSON numbers, got {bad}\n"


@pytest.mark.parametrize("mode", ["sampled:abc", "sampled:0", "sampled:", "sampled:2.5",
                                  "sampled:1_0", "sampled: +3 ", "sampled:+3", "sampled:\u0663"])
def test_cli_rejects_bad_sampled_count(capsys, mode):
    code = cli.main(["run", "--senders", "1", "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(mode) in err and "sampled:N" in err and "N >= 1" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mode, canonical", [
    ("sampled:016", "sampled:16"),
    ("forced: k+ , k+ ,0", "forced:k+,k+,0"),
], ids=["sampled", "forced"])
def test_two_spellings_of_one_mode_render_the_same_report(mode, canonical):
    typed, plain = (hz.render_report(hz.cmd_run(senders=1, seed=3, mode=m)) for m in (mode, canonical))
    assert typed == plain
    assert json.loads(plain)["config"]["mode"] == canonical


@pytest.mark.parametrize("count", [hz.MAX_SAMPLED_RUNS + 1, 10**20, pytest.param("9" * 5000, id="5000-digits")])
def test_cli_rejects_sampled_count_above_the_limit(capsys, monkeypatch, count):
    # the count is refused before any run starts: a run here fails the test
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(pr, "run_protocol", no_run)
    code = cli.main(["run", "--senders", "1", "--mode", f"sampled:{count}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"sampled:{count}" in err and f"at most {hz.MAX_SAMPLED_RUNS}" in err
    assert len(err.splitlines()) == 1


def test_cli_unwritable_out_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = cli.main(["run", "--senders", "2", "--engine", "dense", "--mode", "forced:k+,k+,k+,k+,0",
                     "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "OK" not in captured.out
    # a failing command whose failure report cannot be written either
    code = cli.main(["run", "--senders", "1", "--mode", "sampled:0", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad mode") and "failure report" in err
    assert len(err.splitlines()) == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("argv, names", [
    ([], "command"),
    (["run", "--senders", "7"], "--senders"),
    (["run", "--seed", "x"], "--seed"),
    (["run", "--bogus"], "--bogus"),
], ids=["no-subcommand", "senders-7", "seed-x", "unknown-option"])
def test_cli_usage_errors_are_one_line(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and names in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--senders", "1", "--mode", "sampled:2"],
    ["run", "--senders", "1", "--mode", "exhaustive"],
    ["run", "--senders", "1", "--mode", "forced:k+,k+,0"],
    ["verify-tables"],
    ["verify-expansion"],
], ids=["sampled:2", "exhaustive", "forced:k+,k+,0", "verify-tables", "verify-expansion"])
def test_cli_rejects_negative_seed(capsys, argv):
    for seed in ("-3", "-3000"):
        code = cli.main(argv + ["--seed", seed])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: bad --seed {seed}: the seed is a non-negative integer\n"


@pytest.mark.parametrize("error", [sv.ImpossibleBranchError])
@pytest.mark.parametrize("argv, cmd_name", [
    (["run", "--senders", "1"], "cmd_run"),
    (["verify-tables"], "cmd_verify_tables"),
    (["verify-expansion"], "cmd_verify_expansion"),
])
def test_cli_reports_engine_and_table_errors_as_bad_input(tmp_path, capsys, monkeypatch, error, argv, cmd_name):
    def fail(**kwargs):
        raise error("block 0 qubit 2 outcome 1 has probability 0.000e+00")

    monkeypatch.setattr(hz, cmd_name, fail)
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: block 0 qubit 2 outcome 1 has probability 0.000e+00\n"
    assert "Traceback" not in captured.out + captured.err
    assert json.loads(out.read_text()) == {
        "command": argv[0], "error": "block 0 qubit 2 outcome 1 has probability 0.000e+00"}


def test_broken_catalog_pattern_fails_the_catalog_checks(tmp_path, capsys, monkeypatch):
    # one sign flipped in one row of pattern 5 leaves it ± no inverse word, so
    # the two keys whose word it relabels lose their pattern: a failed check
    broken = co.PATTERNS.copy()
    broken[4, 2] *= -1
    monkeypatch.setattr(co, "_WORD_PATTERNS", co._catalog_map(broken))
    out = tmp_path / "tables.json"
    assert cli.main(["verify-tables", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out
    report = json.loads(out.read_text())
    assert {a["name"] for a in report["assertions"] if not a["pass"]} == {
        "catalog_map_total", "catalog_map_two_to_one"}
    eta_map = report["tables"]["eta_map"]
    assert sorted(key for key, pattern in eta_map.items() if pattern is None) == ["0,2,1", "3,1,0"]
    assert 5 not in eta_map.values() and len(eta_map) == 32


def test_underivable_table_fails_its_checks_without_a_traceback(tmp_path, capsys, monkeypatch):
    # a 3e-5 rad phase on one kappa+ amplitude leaves no word fitting the
    # branch operator of any z=0 key: the report names those keys with a
    # null word, and verify-tables exits 1, a failed check, not 2
    kappa = ch.BELL_COEFFS[ch.BellKind.KAPPA_PLUS] * np.array([1, 1, 1, np.exp(3e-5j)])
    monkeypatch.setitem(ch.BELL_COEFFS, ch.BellKind.KAPPA_PLUS, kappa)
    out = tmp_path / "tables.json"
    assert cli.main(["verify-tables", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out
    report = json.loads(out.read_text())
    words = next(a for a in report["assertions"] if a["name"] == "table_word_matches")
    assert (words["expected"], words["measured"]) == (128.0, 64.0)
    assert {a["name"] for a in report["assertions"] if not a["pass"]} == {
        "table_word_matches", "catalog_map_total", "catalog_map_two_to_one"}
    comparisons = report["tables"]["comparisons"]
    null_keys = {tuple(c["key"]) for c in comparisons if c["derived"] is None}
    assert null_keys == {(g, h, 0) for g in range(4) for h in range(4)}
    assert {k for k, v in report["tables"]["eta_map"].items() if v is None} == {f"{g},{h},0" for g, h, _ in null_keys}


def test_catalog_error_names_its_key(monkeypatch):
    # (2, 1, 1) derives this word; with its pattern gone, eta_map names the
    # keys deriving it, and only those, as unmatched
    word = co.derive_correction(co.branch_operator((2, 1, 1)))
    unmatched = dict(co._WORD_PATTERNS)
    lost = unmatched[word.first, word.second]
    unmatched[word.first, word.second] = None
    monkeypatch.setattr(co, "_WORD_PATTERNS", unmatched)
    tables = co.verify_tables()
    nulls = sorted(key for key, pattern in tables["eta_map"].items() if pattern is None)
    assert "2,1,1" in nulls and len(nulls) == 2
    for key in nulls:
        g, h, z = map(int, key.split(","))
        assert co.derive_correction(co.branch_operator((g, h, z))).same_word(word)
    assert lost not in tables["eta_map"].values()
    assert not tables["eta_total"] and not tables["eta_two_to_one"] and not tables["all_ok"]
    assert tables["n_matched"] == tables["n_total"]


def test_each_subcommand_declares_its_drivers_keywords():
    # main passes every parsed option but the command, its driver and --out
    # to the driver by name: a flag without a keyword would be a TypeError
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == {"prepare-channel", "run", "verify-tables", "efficiency", "verify-expansion"}
    for name in commands:
        options = vars(parser.parse_args([name]))
        driver = options.pop("driver")
        assert set(options) - {"command", "out"} == set(inspect.signature(driver).parameters), name


def test_cli_verify_tables_and_expansion(tmp_path):
    assert cli.main(["verify-tables", "--out", str(tmp_path / "t.json")]) == 0
    assert cli.main(["verify-expansion", "--out", str(tmp_path / "e.json")]) == 0
    data = json.loads((tmp_path / "e.json").read_text())
    assert data["expansion"]["normalizing_prefactor"] == "1/(256*sqrt(2))"


def test_cli_seed_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", "--senders", "2", "--seed", "7", "--mode", "sampled:5",
                     "--out", str(out1)]) == 0
    assert cli.main(["run", "--senders", "2", "--seed", "7", "--mode", "sampled:5",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------- CLI robustness

# JSON values of any shape, and sender lists of the right shape holding any
# floats, half of them scaled to unit norm
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_VECTORS = st.lists(st.lists(st.floats(), min_size=8, max_size=8), min_size=0, max_size=4)
_TAIL = st.lists(st.sampled_from(["--bogus", "extra", "--seed", "--mode", "--senders", "-1", "--help"]),
                 max_size=2)


@st.composite
def _input_json(draw):
    if draw(st.booleans()):
        return draw(_JSON)
    vectors = draw(_VECTORS)
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            vectors = [list(np.asarray(v) / (np.linalg.norm(v) or 1.0)) for v in vectors]
    return {"senders": [[[v[2 * k], v[2 * k + 1]] for k in range(4)] for v in vectors]}


@st.composite
def _cli_call(draw):
    """argv within 13 built dense qubits and 512 branches, plus an optional input file."""
    command = draw(st.sampled_from(
        ["run", "prepare-channel", "verify-tables", "verify-expansion", "efficiency", "bogus", None]))
    argv = [] if command is None else [command]
    payload = None
    if command == "run":
        engine = draw(st.sampled_from(pr.ENGINES))
        senders = draw(st.integers(1, 4))
        modes = [st.integers(-1, 8).map(lambda n: f"sampled:{n}"), st.text(max_size=6),
                 st.lists(st.sampled_from(["k+", "k-", "l+", "l-", "0", "1", "2", "x"]),
                          max_size=10).map(lambda parts: "forced:" + ",".join(parts))]
        if senders <= (1 if engine == "dense" else 2):
            modes.append(st.just("exhaustive"))
        argv += ["--senders", str(senders), "--engine", engine, "--mode", draw(st.one_of(modes))]
        # a dense run above two senders is refused at once, never built
        if (engine != "dense" or senders <= 2) and draw(st.booleans()):
            argv.append("--allow-large-dense")
        if draw(st.booleans()):
            payload = draw(_input_json())
    elif command == "prepare-channel":
        argv += ["--pairs", str(draw(st.integers(-1, 6)))]
    if command in ("run", "verify-tables", "verify-expansion") and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-5, 2 ** 40)))]
    out = draw(st.sampled_from([None, "report.json", "missing/report.json"]))
    return argv, payload, out, draw(_TAIL)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(call=_cli_call())
def test_cli_never_fails_with_a_traceback(call):
    argv, payload, out, tail = call
    with tempfile.TemporaryDirectory() as tmp:
        if payload is not None:
            (Path(tmp) / "in.json").write_text(json.dumps(payload))
            argv = argv + ["--input", str(Path(tmp) / "in.json")]
        if out is not None:
            argv = argv + ["--out", str(Path(tmp) / out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            # a warning would print lines of its own to the CLI's stderr
            warnings.simplefilter("error")
            try:
                code = cli.main(argv + tail)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

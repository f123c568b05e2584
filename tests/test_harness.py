"""Harness tests: efficiency numbers, comparison table, expansion
adjudication, input parsing, report schema determinism, and the CLI."""
import json

import numpy as np
import pytest

from quadtel import cli
from quadtel import corrections as co
from quadtel import harness as hz
from quadtel import protocol as pr
from quadtel import statevector as sv


# ---------------------------------------------------------------- efficiency

def test_efficiency_three_party_row():
    rec = hz.intrinsic_efficiency(3, 7, 9)
    assert rec.tau == 18.75


def test_efficiency_ten_qubit_row():
    rec = hz.intrinsic_efficiency(4, 10, 16)
    assert abs(rec.tau - 15.384615384615385) < 1e-12


def test_efficiency_this_work_row_rounding_slip():
    rec = hz.intrinsic_efficiency(8, 17, 20)
    assert abs(rec.tau - 800 / 37) < 1e-12
    # the published 21.65 is a rounding slip away from 8/37
    assert abs(rec.tau - 21.65) < 0.05 and abs(rec.tau - 21.65) > 0.01


def test_efficiency_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        hz.intrinsic_efficiency(0, 7, 9)


def test_classical_cost_rows():
    assert hz.classical_cost(3, 1, 3) == 9
    assert hz.classical_cost(4, 1, 4) == 12
    assert abs(hz.intrinsic_efficiency(4, 9, hz.classical_cost(4, 1, 4)).tau - 19.047619047619047) < 1e-12
    assert hz.classical_cost(8, 1, 4) == 20
    assert hz.classical_cost(4, 2, 4) == 16


def test_comparison_table_deviations():
    rows = hz.reproduce_comparison_table()
    assert [round(r["computed_tau"], 4) for r in rows] == [18.75, 15.3846, 19.0476, 21.6216]
    assert rows[0]["deviation"] < 0.01
    assert rows[1]["deviation"] < 0.01
    assert rows[2]["deviation"] < 0.01
    assert 0.01 < rows[3]["deviation"] < 0.05
    assert all(r["within_tolerance"] for r in rows)


# ---------------------------------------------------------------- expansion

def test_expansion_prefactor_adjudication():
    result = hz.adjudicate_expansion_prefactor(rng=np.random.default_rng(3))
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


# ------------------------------------------------------------------- reports

def test_reports_are_byte_identical_for_same_config():
    a = hz.render_report(hz.cmd_run(senders=2, seed=5, mode="sampled:4"))
    b = hz.render_report(hz.cmd_run(senders=2, seed=5, mode="sampled:4"))
    assert a == b
    c = hz.render_report(hz.cmd_run(senders=2, seed=6, mode="sampled:4"))
    assert a != c


def test_exhaustive_report_branches_match_forced_reports():
    # each branch of the exhaustive sweep is reported as a forced run of the
    # same record would report it, whatever the sweep ran before it
    swept = hz.cmd_run(senders=1, seed=9, mode="exhaustive")
    for branch in swept["branches"]:
        forced = hz.cmd_run(senders=1, seed=9, mode="forced:" + branch["outcome"]["symbols"])
        assert forced["branches"] == [branch]


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


def test_cli_large_dense_needs_flag(capsys):
    code = cli.main(["run", "--senders", "3", "--mode", "forced:k+,k+,k+,k+,k+,k+,0",
                     "--engine", "dense"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err
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


@pytest.mark.parametrize("mode", ["sampled:abc", "sampled:0", "sampled:", "sampled:2.5"])
def test_cli_rejects_bad_sampled_count(capsys, mode):
    code = cli.main(["run", "--senders", "1", "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(mode) in err and "sampled:N" in err and "N >= 1" in err
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
    assert not out.parent.exists()


@pytest.mark.parametrize("mode", ["sampled:2", "exhaustive", "forced:k+,k+,0"])
def test_cli_rejects_negative_seed(capsys, mode):
    code = cli.main(["run", "--senders", "1", "--seed", "-5", "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed -5" in err and "non-negative integer" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("error", [sv.ImpossibleBranchError, co.TableDerivationError, co.CatalogMatchError])
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

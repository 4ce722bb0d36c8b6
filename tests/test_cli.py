"""CLI: commands, exit codes, golden JSON stability."""

from __future__ import annotations

import json

import pytest

from balex.cli import main
from balex.model import market_to_json, matching_to_json
from balex.fixtures import load_fixture


@pytest.fixture()
def thm4_file(tmp_path):
    path = tmp_path / "thm4.json"
    assert main(["fixture", "thm4-base", "--output", str(path)]) == 0
    return str(path)


def test_fixture_emits_loadable_market(thm4_file):
    doc = json.loads(open(thm4_file).read())
    fx = load_fixture("thm4-base")
    assert doc == market_to_json(fx.instance, fx.prefs)


def test_run_text_and_trace(thm4_file, capsys):
    assert main(["run", "--input", thm4_file, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "1: q1" in out and "3: o p" in out
    assert "rounds: 3" in out


def test_run_json_golden(thm4_file, capsys):
    assert main(["run", "--input", thm4_file, "--format", "json", "--trace"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--input", thm4_file, "--format", "json", "--trace"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["matching"] == {"1": ["q1"], "2": ["r"], "3": ["o", "p"], "4": ["q2"]}
    assert [r["round"] for r in doc["trace"]["rounds"]] == [1, 2, 3]
    assert doc["trace"]["elicitation_round"] == {"1": 1, "2": 1, "3": 2, "4": 2}


def test_run_priority_override_still_audits_green(thm4_file, tmp_path, capsys):
    assert main(["run", "--input", thm4_file, "--priority", "4,3,2,1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    matching_file = tmp_path / "mu.json"
    matching_file.write_text(json.dumps({"assignment": doc["matching"]}))
    code = main(["audit", "--input", thm4_file, "--priority", "4,3,2,1",
                 "--matching", str(matching_file)])
    assert code == 0


def test_audit_mechanism_all_green(thm4_file, capsys):
    code = main(["audit", "--input", thm4_file, "--mechanism", "--core",
                 "--strict-acceptability", "--truncation"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CIR: ok" in out
    assert "unambiguously efficient: yes" in out


def test_audit_example1_famous_matching_reports_pivot(tmp_path, capsys):
    market = tmp_path / "ex1.json"
    assert main(["fixture", "example1", "--output", str(market)]) == 0
    fx = load_fixture("example1")
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(matching_to_json(fx.instance, fx.expected["famous_matching"])))
    code = main(["audit", "--input", str(market), "--matching", str(mu)])
    out = capsys.readouterr().out
    assert code == 2
    assert "not CIR; witness agent 2, pivot p1" in out


def test_audit_sp_no_manipulation_on_strongly_trichotomous(tmp_path, capsys):
    market = tmp_path / "m.json"
    assert main(["generate", "--agents", "2", "--seed", "3",
                 "--strongly-trichotomous", "--output", str(market)]) == 0
    code = main(["audit", "--input", str(market), "--mechanism", "--sp",
                 "--domain", "strongly-trichotomous"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no manipulation found" in out


def test_audit_sp_finds_thm4_witness(tmp_path, capsys):
    market = tmp_path / "m.json"
    assert main(["fixture", "thm4-p2", "--output", str(market)]) == 0
    code = main(["audit", "--input", str(market), "--mechanism", "--sp",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out)
    assert doc["checks"]["strategy_proofness"]["witness"]["agent"] == "3"


def test_generate_deterministic_and_loadable(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--agents", "4", "--seed", "7", "--output", str(f1)]) == 0
    assert main(["generate", "--agents", "4", "--seed", "7", "--output", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()
    assert main(["run", "--input", str(f1)]) == 0


def test_bench_rows_match_grid(capsys):
    assert main(["bench", "--sizes", "3:2,5:2", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("seed,agents,objects")
    assert len(out) == 3
    assert out[1].split(",")[1] == "3" and out[2].split(",")[1] == "5"


@pytest.mark.parametrize("sizes", ["3:x", "3", "3:0", "0:2"])
def test_bench_bad_sizes_entry_is_invalid_input(sizes, capsys):
    assert main(["bench", "--sizes", f"5:2,{sizes}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(sizes) in err


def test_enumeration_bound_maps_to_invalid_input(tmp_path, capsys):
    market = tmp_path / "big.json"
    assert main(["generate", "--agents", "8", "--max-endowment", "3",
                 "--seed", "5", "--output", str(market)]) == 0
    code = main(["audit", "--input", str(market), "--mechanism", "--core",
                 "--bound", "6"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_internal_invariant_exit_code(thm4_file, monkeypatch):
    from balex import cli
    from balex.mechanism import MechanismInvariantError

    def boom(instance, prefs):
        raise MechanismInvariantError("synthetic non-growing elicitation set")

    monkeypatch.setattr(cli.mechanism, "run_ir_priority", boom)
    assert main(["run", "--input", thm4_file]) == 3


def test_internal_key_error_is_not_reported_as_invalid_input(thm4_file, monkeypatch):
    from balex import cli

    def boom(instance, prefs):
        raise KeyError("o9")

    monkeypatch.setattr(cli.mechanism, "run_ir_priority", boom)
    with pytest.raises(KeyError, match="o9"):
        main(["run", "--input", thm4_file])


def test_invalid_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["run", "--input", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"agents": ["1"], "objects": ["o"],
                               "endowments": {"1": []}}))
    assert main(["run", "--input", str(bad)]) == 1
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"agents": ["1", "2"], "objects": ["o"],
                                   "endowments": {"1": ["o"], "2": ["o"]}}))
    assert main(["run", "--input", str(overlap)]) == 1

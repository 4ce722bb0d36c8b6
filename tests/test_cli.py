"""CLI: commands, exit codes, golden JSON stability."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.cli import main
from balex.generate import random_market
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


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_generate_non_positive_max_endowment_is_invalid_input(bound, capsys):
    assert main(["generate", "--agents", "2", "--max-endowment", bound, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: max_endowment must be positive")


@pytest.mark.parametrize("audit", ["--sp", "--truncation"])
def test_report_audits_refuse_markets_over_the_bound(audit, tmp_path, capsys):
    market = tmp_path / "nu1.json"
    assert main(["fixture", "thm1-nu1", "--output", str(market)]) == 0
    assert main(["audit", "--input", str(market), "--mechanism", audit]) == 1
    assert "12 objects, enumeration bound is 10" in capsys.readouterr().err


def test_traced_run_is_byte_identical_across_hash_seeds(tmp_path):
    market = tmp_path / "m100.json"
    market.write_text(json.dumps(market_to_json(*random_market(0, 100, 4, exact_endowment=4))))
    src = str(Path(balex.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "balex", "run", "--input", str(market),
             "--trace", "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert len(json.loads(outputs[0])["matching"]) == 100
    assert outputs[0] == outputs[1]


def test_internal_invariant_exit_code(thm4_file, monkeypatch):
    from balex import cli
    from balex.mechanism import MechanismInvariantError

    def boom(instance, prefs):
        raise MechanismInvariantError("synthetic non-growing elicitation set")

    monkeypatch.setattr(cli.mechanism, "run_ir_priority", boom)
    assert main(["run", "--input", thm4_file]) == 3


def test_internal_invariant_message_is_one_line(thm4_file, monkeypatch, capsys):
    """The mechanism's error also carries the finished rounds; only its
    message is printed."""
    from balex.flownet import ExchangeFlow

    monkeypatch.setattr(ExchangeFlow, "can_improve", lambda self, i: True)
    assert main(["run", "--input", thm4_file]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violation: non-improvable set failed to grow at round 1\n"
    )


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


@pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
@pytest.mark.parametrize("command", ["run", "audit"])
def test_unreadable_file_is_invalid_input(command, unreadable, thm4_file, tmp_path, capsys):
    path = tmp_path / "unreadable"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"assignment": {"1": ["\u00e9"]}}'.encode("latin-1"))
    if command == "run":
        argv = ["run", "--input", str(path)]
    else:
        argv = ["audit", "--input", thm4_file, "--matching", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_strict_core_audit_refuses_a_matching_that_is_not_cir(thm4_file, tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"assignment": {"1": ["p"], "2": ["o"], "3": ["q1", "q2"], "4": ["r"]}}))
    argv = ["audit", "--input", thm4_file, "--matching", str(mu), "--core"]
    assert main(argv + ["--strict-acceptability"]) == 1
    assert capsys.readouterr().err == "error: strict-acceptability core audit needs a CIR matching\n"
    assert main(argv) == 2
    assert "not CIR; witness agent 1, pivot o" in capsys.readouterr().out


def _thm4_doc() -> dict:
    fx = load_fixture("thm4-base")
    return market_to_json(fx.instance, fx.prefs)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("endowments", "1"), 5, "endowment of agent '1' must be a list"),
        (("endowments", "1"), "o", "endowment of agent '1' must be a list"),
        (("preferences", "1", "attractive"), 3, "'attractive' of agent '1' must be a list"),
        (("preferences", "1", "bearable"), None, "'bearable' of agent '1' must be a list"),
        (("preferences", "1"), {"classes": 5}, "'classes' of agent '1' must be a list"),
        (("preferences", "1"), {"classes": ["o", "p"]}, "a class of agent '1' must be a list"),
        (("objects",), {"o": 1}, "'objects' must be a list"),
        (("agents",), [["x"]], "agent identifiers must be strings"),
        ((), ["agents"], "market document must be a JSON object"),
    ],
)
def test_malformed_market_documents_are_invalid_input(path, value, message, tmp_path, capsys):
    doc = _thm4_doc()
    if path:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    else:
        doc = value
    market = tmp_path / "m.json"
    market.write_text(json.dumps(doc))
    assert main(["run", "--input", str(market)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"assignment": {"1": 5, "2": ["p"], "3": ["q1", "q2"], "4": ["r"]}}, "bundle of agent '1'"),
        ({"assignment": {"1": "o", "2": ["p"], "3": ["q1", "q2"], "4": ["r"]}}, "bundle of agent '1'"),
        ([["1", "o"]], "matching document must be a JSON object"),
    ],
)
def test_malformed_matching_documents_are_invalid_input(doc, message, thm4_file, tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(doc))
    assert main(["audit", "--input", thm4_file, "--matching", str(mu)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def _paths(node, prefix=()):
    """Every place in a JSON document that holds a value: map values and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_OTHER_JSON = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    st.lists(st.lists(st.text(max_size=2), max_size=2), max_size=2),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_type_mutated_documents_never_raise(data, tmp_path_factory):
    """Any one value of the thm4-base market or matching document replaced by a
    value of another JSON type: exit 0 or 2 when the result is still valid,
    otherwise exit 1 with one `error:` line."""
    market = _thm4_doc()
    matching = {"assignment": {"1": ["q1"], "2": ["r"], "3": ["o", "p"], "4": ["q2"]}}
    target = data.draw(st.sampled_from([market, matching]))
    path = data.draw(st.sampled_from(list(_paths(target))))
    node = target
    for key in path[:-1]:
        node = node[key]
    value = data.draw(_OTHER_JSON.filter(lambda v: type(v) is not type(node[path[-1]])))
    node[path[-1]] = value

    folder = tmp_path_factory.mktemp("mutated")
    market_file, matching_file = folder / "m.json", folder / "mu.json"
    market_file.write_text(json.dumps(market))
    matching_file.write_text(json.dumps(matching))
    for argv in (
        ["run", "--input", str(market_file)],
        ["audit", "--input", str(market_file), "--matching", str(matching_file)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

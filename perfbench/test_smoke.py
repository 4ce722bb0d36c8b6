"""Smoke tests of the benchmark: each workload at tiny size, the traced run's
wrapping, the self-time arithmetic and the bare-directory exit.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"scale": {"agents": 5}, "audit": {"agents": 2}, "verify": {"max_objects": 6}}


def _items(name: str, count: int = 6) -> list:
    docs = inputs.make_docs(name, seed=3, count=count, **TINY[name])
    return [workloads.WORKLOADS[name].prepare(m) for m in workloads.load(docs)]


def test_same_seed_same_documents():
    assert inputs.make_docs("verify", 5, count=50) == inputs.make_docs("verify", 5, count=50)
    assert inputs.make_docs("verify", 5, count=50) != inputs.make_docs("verify", 6, count=50)
    assert len(inputs.verify_shapes()) == 42  # more shapes than audits keeps cached


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_clean(name):
    items = _items(name)
    wl = workloads.WORKLOADS[name]
    latencies, outputs, failed = run.timed_loop(wl, items, seconds=0.0)
    assert failed == 0 and len(outputs) == len(latencies) == 1
    outputs = [wl.op(item) for item in items + items[:2]]  # repeats must agree
    assert run.check_outputs(wl, items, outputs) == []


def test_checks_reject_wrong_outputs():
    market = next(m for m in _items("scale") if m.efficiency(dict(m.instance.endowment))[0] is False)
    problems = workloads.SCALE.check(market, dict(market.instance.endowment))
    assert problems and "not efficient" in problems[0]
    item = _items("verify")[0]
    per_matching, selected = workloads.VERIFY.op(item)
    flipped = (per_matching[0][:1] + (not per_matching[0][1],) + per_matching[0][2:],) + per_matching[1:]
    assert workloads.VERIFY.check(item, (flipped, selected))
    assert workloads.AUDIT.check(_items("audit")[0], ("not None", None))


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    spans = [  # name, parent, start, end
        ("root", -1, 0, 100),
        ("a", 0, 10, 30),
        ("b", 0, 40, 60),
        ("leaf", 2, 45, 50),
        ("a", -1, 200, 210),
    ]
    for name, parent, start, end in spans:
        tr.name.append(tr.name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    self_ns, calls = tr.self_times(0, len(spans))
    assert self_ns == {"root": 60, "a": 30, "b": 15, "leaf": 5}
    assert calls == {"root": 1, "a": 2, "b": 1, "leaf": 1}
    # a window that cuts off a parent leaves its children's time with nobody
    assert tr.self_times(1, 4)[0] == {"a": 20, "b": 15, "leaf": 5}


def test_traced_run_patches_every_lookup_site_and_emits_all_layers():
    from balex import audits, cycles, flownet, mechanism, optimize

    items = _items("verify", 2)
    original = mechanism.run_ir_priority
    tr = tracing.Tracer()
    sites, uninstall = tracing.install(tr)
    try:
        assert audits.run_ir_priority is mechanism.run_ir_priority is not original
        assert cycles.max_attractive is optimize.max_attractive
        assert "balex.audits.run_ir_priority" in sites["balex.mechanism.run_ir_priority"]
        assert "balex.cycles.max_attractive" in sites["balex.optimize.max_attractive"]
        tr.recording = True
        for item in items:
            workloads.VERIFY.op(item)
        tr.recording = False
        metrics = tracing.layer_metrics(tr, (0, 0), (0, len(tr.name)), len(items))
    finally:
        uninstall()
    assert audits.run_ir_priority is mechanism.run_ir_priority is original
    assert not hasattr(flownet.ExchangeFlow.__init__, "__wrapped__")
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"]: m["unit"] for m in declared}
    assert {k: u for k, (_, u) in metrics.items()} == {
        k: u for k, u in names.items() if k != "bench.traced_op_p50_ms"
    }
    assert metrics["audits.core_ms"][0] > 0 and metrics["flownet.extract_calls"][0] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""

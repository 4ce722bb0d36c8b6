"""Spans and counters for the traced run, recorded from outside the library.

`install` wraps the library's public functions and `ExchangeFlow` methods in
place.  A wrapped function is replaced under every name that holds it in any
loaded `balex` module (for example `audits` imports `run_ir_priority` by
name), so no call goes through an unwrapped alias.  Spans are kept in memory
as parallel arrays and written out at the end; a layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """In-memory span store: name id, parent index, start and end in ns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self.recording = False
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        span: str | Callable[[tuple, dict], str],
        fn: Callable[..., Any],
        after: Callable[[Tracer, Any, tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """`fn` recorded as a span; `span` is a name or picks one from the arguments."""
        fixed = self.name_id(span) if isinstance(span, str) else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self.name_id(span(args, kwargs))
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counting(self, counter: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """`fn` counted per call, without a span."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            if self.recording:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def self_times(self, lo: int, hi: int) -> tuple[dict[str, int], dict[str, int]]:
        """Per name: total self time in ns and span count, over spans [lo, hi).

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly, so children never overlap each other.
        """
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            self_ns[name] += self.end[i] - self.start[i] - child[i - lo]
            calls[name] += 1
        return dict(self_ns), dict(calls)

    def child_counts(self, lo: int, hi: int, child: str, parents: set[str]) -> int:
        """Spans named `child` whose direct parent is named in `parents`."""
        cid = self._ids.get(child)
        pids = {self._ids[p] for p in parents if p in self._ids}
        return sum(
            1
            for i in range(lo, hi)
            if self.name[i] == cid and self.parent[i] >= 0 and self.name[self.parent[i]] in pids
        )

    def write(self, stem: Path, header: dict[str, object]) -> None:
        """Write the spans as `<stem>.spans` (int32 name, int32 parent, int64
        start, int64 end; native byte order, one array after another) and a
        JSON header `<stem>.json` that names the layout."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        doc = {
            **header,
            "names": self.names,
            "spans": len(self.name),
            "layout": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")


def _replace_everywhere(original: Any, replacement: Any) -> list[str]:
    """Rebind every `balex` module global that is `original`; returns the sites."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "balex" or mod_name.startswith("balex.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append(f"{mod_name}.{attr}")
    return sites


def _efficiency_span(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "brute")
    return f"audits.efficiency_{mode}"


def _after_build(tr: Tracer, _result: Any, args: tuple) -> None:
    tr.counters["flownet.edges"] += len(args[0].to) // 2


def _after_can_improve(tr: Tracer, result: Any, _args: tuple) -> None:
    tr.counters["flownet.improvable_true"] += bool(result)


def _after_run(tr: Tracer, result: Any, _args: tuple) -> None:
    trace = result[1]
    tr.counters["mechanism.rounds"] += len(trace.rounds) - 1  # last is the final pass
    tr.counters["mechanism.flow_queries"] += trace.flow_queries


def _counter_if_found(counter: str) -> Callable[[Tracer, Any, tuple], None]:
    def after(tr: Tracer, result: Any, _args: tuple) -> None:
        tr.counters[counter] += result is not None

    return after


def install(tracer: Tracer) -> tuple[dict[str, list[str]], Callable[[], None]]:
    """Wrap the traced layers; returns the patched sites per span and an undo."""
    from balex import audits, cycles, flownet, mechanism, model, optimize, responsive

    functions = [
        (mechanism, "run_ir_priority", "mechanism.run", _after_run),
        (model, "market_from_json", "model.load", None),
        (model, "trichotomous_profile", "model.load", None),
        (audits, "check_strategy_proofness", "audits.sp", None),
        (audits, "check_truncation_proofness", "audits.truncation", None),
        (audits, "unambiguously_efficient", _efficiency_span, None),
        (audits, "unambiguously_in_weak_core", "audits.core", _counter_if_found("audits.blocks_found")),
        (audits, "find_efficient_core_matching", "audits.core_select", None),
        (responsive, "compare_unambiguous", "responsive.compare", None),
        (responsive, "cir_violation", "responsive.cir", None),
        (responsive, "strict_witness_extension", "responsive.witness", None),
        (cycles, "find_cir_pareto_improving_cycle", "cycles.improving_cycle", _counter_if_found("cycles.cycles_found")),
        (optimize, "max_attractive", "optimize.max_attractive", None),
    ]
    methods = [
        (flownet.ExchangeFlow, "__init__", "flownet.build", _after_build),
        (flownet.ExchangeFlow, "solve_feasible", "flownet.feasible", None),
        (flownet.ExchangeFlow, "maximize", "flownet.maximize", None),
        (flownet.ExchangeFlow, "can_improve", "flownet.can_improve", _after_can_improve),
        (flownet.ExchangeFlow, "extract_canonical", "flownet.extract", None),
        (model.Instance, "mask", "model.mask", None),
        (model.Instance, "unmask", "model.unmask", None),
    ]
    sites: dict[str, list[str]] = {}
    undo: list[Callable[[], None]] = []
    for module, attr, span, after in functions:
        original = getattr(module, attr)
        wrapper = tracer.wrap(span, original, after)
        found = _replace_everywhere(original, wrapper)
        sites[f"{module.__name__}.{attr}"] = found
        undo.append(lambda o=original, w=wrapper: _replace_everywhere(w, o))
    for cls, attr, span, after in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(span, original, after))
        sites[f"{cls.__module__}.{cls.__qualname__}.{attr}"] = [f"{cls.__module__}.{cls.__qualname__}"]
        undo.append(lambda c=cls, a=attr, o=original: setattr(c, a, o))
    cache = audits._OutcomeCache
    original_final = cache.__dict__["final"]
    cache.final = tracer.counting("audits.reports_enumerated", original_final)
    sites["balex.audits._OutcomeCache.final"] = ["balex.audits._OutcomeCache"]
    undo.append(lambda: setattr(cache, "final", original_final))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return sites, uninstall


# Per-layer metrics: self time (ms per operation) of each span name.
SELF_MS = {
    "flownet.extract_ms": "flownet.extract",
    "flownet.build_ms": "flownet.build",
    "flownet.feasible_ms": "flownet.feasible",
    "flownet.maximize_ms": "flownet.maximize",
    "flownet.can_improve_ms": "flownet.can_improve",
    "mechanism.run_ms": "mechanism.run",
    "model.mask_ms": "model.mask",
    "model.unmask_ms": "model.unmask",
    "audits.sp_ms": "audits.sp",
    "audits.truncation_ms": "audits.truncation",
    "audits.efficiency_brute_ms": "audits.efficiency_brute",
    "audits.core_ms": "audits.core",
    "audits.core_select_ms": "audits.core_select",
    "responsive.compare_ms": "responsive.compare",
    "responsive.cir_ms": "responsive.cir",
    "responsive.witness_ms": "responsive.witness",
    "cycles.improving_cycle_ms": "cycles.improving_cycle",
    "optimize.max_attractive_ms": "optimize.max_attractive",
    "bench.unattributed_ms": "bench.op",
}
# Span counts per operation.
CALLS = {
    "flownet.extract_calls": "flownet.extract",
    "flownet.builds": "flownet.build",
    "flownet.maximize_calls": "flownet.maximize",
    "flownet.can_improve_calls": "flownet.can_improve",
    "mechanism.runs": "mechanism.run",
    "model.mask_calls": "model.mask",
    "model.unmask_calls": "model.unmask",
    "responsive.compare_calls": "responsive.compare",
    "optimize.max_attractive_calls": "optimize.max_attractive",
}
# Counters per operation.
COUNTERS = (
    "flownet.edges",
    "mechanism.rounds",
    "mechanism.flow_queries",
    "audits.reports_enumerated",
    "audits.blocks_found",
    "cycles.cycles_found",
)


def layer_metrics(
    tracer: Tracer, load: tuple[int, int], timed: tuple[int, int], ops: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the load phase's spans in `load`, the timed phase's in `timed`."""
    self_ns, calls = tracer.self_times(*timed)
    load_ns, _ = tracer.self_times(*load)
    out: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_MS.items():
        out[metric] = (self_ns.get(span, 0) / 1e6 / ops, "ms/op")
    for metric, span in CALLS.items():
        out[metric] = (calls.get(span, 0) / ops, "count/op")
    for counter in COUNTERS:
        out[counter] = (tracer.counters[counter] / ops, "count/op")
    out["audits.mechanism_calls"] = (
        tracer.child_counts(*timed, "mechanism.run", {"audits.sp", "audits.truncation"}) / ops,
        "count/op",
    )
    improve_calls = calls.get("flownet.can_improve", 0)
    out["flownet.improvable_ratio"] = (
        tracer.counters["flownet.improvable_true"] / improve_calls if improve_calls else 0.0,
        "ratio",
    )
    out["model.load_ms"] = (load_ns.get("model.load", 0) / 1e6, "ms")
    return out

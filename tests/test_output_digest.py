"""The library's outputs, pinned by one SHA-256 per family.

Each family renders a fixed set of outputs as canonical JSON and hashes it:
mechanism traces (`trace_to_json`, `flow_queries` included), the
strategy-proofness, truncation and obvious-manipulability witnesses, the
`verify` verdicts, the flow queries behind them, and `_final_masks` outcome
tables of small markets.  The inputs are the fixtures and seeded
`generate.random_market` markets.  The test computes the digests in two
processes with different `PYTHONHASHSEED` values, so it also checks that the
outputs do not depend on hash order, and compares them with
`tests/golden/digests.json`.  A failure names the families that moved.

    PYTHONPATH=src python tests/test_output_digest.py           # print the digests
    PYTHONPATH=src python tests/test_output_digest.py --write   # record them

Record digests only for an intended output change, and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import enum
import fractions
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator, Mapping

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"


def _plain(x: object) -> object:
    """`x` as JSON-ready data in a fixed order: sets sorted, mappings by key."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, Mapping):
        return {str(k): _plain(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, fractions.Fraction):
        return str(x)
    return x


def _outcome(call: Callable[[], object]) -> object:
    """What a call returns, or the name of the error it raises."""
    from balex import EnumerationLimitError, MechanismInvariantError, ValidationError

    try:
        return _plain(call())
    except (EnumerationLimitError, MechanismInvariantError, ValidationError, ValueError) as exc:
        return {"raises": type(exc).__name__}


def _fixtures(trichotomous: bool = True) -> Iterator[tuple[str, object, dict]]:
    """The fixtures whose profiles are trichotomous, class-based ones coerced,
    or else the others, class-based."""
    from balex import FIXTURE_NAMES, NotTrichotomousError, load_fixture, trichotomous_profile

    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        try:
            prefs = trichotomous_profile(fx.instance, fx.prefs)
        except NotTrichotomousError:
            if not trichotomous:
                yield name, fx.instance, fx.prefs
            continue
        if trichotomous:
            yield name, fx.instance, prefs


def _random(shapes, seeds, strongly=(False, True)) -> Iterator[tuple[str, object, dict]]:
    from balex import random_market

    for n, most in shapes:
        for strong in strongly:
            for seed in seeds:
                instance, prefs = random_market(seed, n, most, strongly_trichotomous=strong)
                yield f"random({seed}, {n}, {most}, strong={strong})", instance, prefs


def _small(markets, max_objects: int):
    return [(k, i, p) for k, i, p in markets if len(i.object_ids) <= max_objects]


def _stand_in(instance) -> Callable:
    """A stand-in for `mechanism._final_masks` on `instance`: a matching fixed
    by the reported masks among those that keep every bundle within its
    agent's reported A ∪ B, of which the endowment is one.  The mechanism is
    truncation-proof and not obviously manipulable, so only under such a
    stand-in do those audits return witnesses, and their search order and
    certificates get pinned."""
    from balex.optimize import mask_matchings

    full = (1 << len(instance.object_ids)) - 1

    def final(flow, a_masks, b_masks, endow):
        reach = [a | b for a, b in zip(a_masks, b_masks)]
        within = list(mask_matchings(instance.sizes, full, lambda i, m: not m & ~reach[i]))
        return list(within[random.Random(repr((a_masks, b_masks))).randrange(len(within))])

    return final


def _under_stand_in(instance, audit: Callable[[], object]) -> object:
    from balex import audits

    kernel = audits._final_masks
    audits._final_masks = _stand_in(instance)
    try:
        return _outcome(audit)
    finally:
        audits._final_masks = kernel


def _traces() -> list:
    from balex import run_ir_priority, trace_to_json

    markets = list(_fixtures()) + list(
        _random([(2, 2), (3, 2), (4, 1), (4, 3), (6, 2), (8, 2), (16, 3)], range(8))
    )
    return [
        (key, _outcome(lambda: trace_to_json(inst, run_ir_priority(inst, prefs)[1])))
        for key, inst, prefs in markets
    ]


# markets of which the strategy-proofness search finds a witness: thm4-p2,
# and these random ones
_MANIPULABLE = [(187, 3, 2), (227, 3, 2), (278, 3, 2), (37, 4, 2)]


def _manipulable_markets() -> list:
    from balex import random_market

    out = _small(list(_fixtures()), 6) + _small(list(_random([(2, 2), (3, 2)], range(6))), 5)
    for seed, n, most in _MANIPULABLE:
        out.append((f"random({seed}, {n}, {most})", *random_market(seed, n, most)))
    return out


def _strategy_proofness() -> list:
    from balex import DomainSpec, check_strategy_proofness

    strong = DomainSpec.strongly_trichotomous()
    return [
        (key, _outcome(lambda: check_strategy_proofness(inst, prefs)),
         _outcome(lambda: check_strategy_proofness(inst, prefs, strong)))
        for key, inst, prefs in _manipulable_markets()
    ]


def _truncation() -> list:
    from balex import check_truncation_proofness

    out = [
        (key, _outcome(lambda: check_truncation_proofness(inst, prefs)))
        for key, inst, prefs in _manipulable_markets()
    ]
    for key, inst, prefs in _small(list(_random([(2, 2), (3, 2)], range(10), (False,))), 5):
        out.append((key, _under_stand_in(inst, lambda: check_truncation_proofness(inst, prefs))))
    return out


def _obvious_manipulability() -> list:
    from balex import check_obvious_manipulability

    markets = _small(list(_random([(2, 1), (2, 2)], range(6), (False,))), 3)
    out = [
        (key, _outcome(lambda: check_obvious_manipulability(inst, prefs)))
        for key, inst, prefs in markets
    ]
    for key, inst, prefs in markets:
        out.append((key, _under_stand_in(inst, lambda: check_obvious_manipulability(inst, prefs))))
    return out


def _verify() -> list:
    from balex import (
        efficient_ir_set,
        find_cir_pareto_improving_cycle,
        find_efficient_core_matching,
        run_ir_priority,
        unambiguously_efficient,
        unambiguously_in_weak_core,
    )

    markets = _small(list(_fixtures()), 6) + _small(
        list(_random([(2, 2), (3, 2), (4, 1)], range(5))), 6
    )
    out = []
    for key, inst, prefs in markets:
        final, _ = run_ir_priority(inst, prefs)
        for mu in (final, inst.endowment_matching()):
            out.append((
                key,
                _outcome(lambda: unambiguously_efficient(inst, mu, prefs)),
                _outcome(lambda: unambiguously_efficient(inst, mu, prefs, mode="cycle")),
                _outcome(lambda: find_cir_pareto_improving_cycle(inst, mu, prefs)),
                _outcome(lambda: unambiguously_in_weak_core(inst, mu, prefs)),
                _outcome(lambda: unambiguously_in_weak_core(inst, mu, prefs, True)),
            ))
        out.append((
            key,
            _outcome(lambda: efficient_ir_set(inst, prefs)),
            _outcome(lambda: find_efficient_core_matching(inst, prefs)),
        ))
    for key, inst, prefs in _fixtures(trichotomous=False):
        mu = inst.endowment_matching()
        out.append((
            key,
            _outcome(lambda: unambiguously_efficient(inst, mu, prefs)),
            _outcome(lambda: unambiguously_in_weak_core(inst, mu, prefs)),
            _outcome(lambda: efficient_ir_set(inst, prefs)),
        ))
    return out


def _queries() -> list:
    """The flow queries the mechanism and the efficiency check are built from."""
    from balex import (
        WelfareConstraints,
        feasible,
        max_attractive,
        non_improvable_set,
        run_ir_priority,
        serial_refine,
    )

    out = []
    markets = list(_fixtures()) + list(_random([(3, 2), (5, 2)], range(5)))
    for key, inst, prefs in markets:
        final, _ = run_ir_priority(inst, prefs)
        attractive = {a: prefs[a].attractive for a in inst.agents}
        bearable = {a: prefs[a].bearable for a in inst.agents}
        for mu in (inst.endowment_matching(), final):
            welfare = {a: len(mu.assignment[a] & attractive[a]) for a in inst.agents}
            constraints = WelfareConstraints(
                allowed={a: prefs[a].acceptable() for a in inst.agents},
                attractive=attractive,
                min_attractive=welfare,
            )
            out.append((
                key,
                _outcome(lambda: serial_refine(inst, attractive, bearable, mu)),
                _outcome(lambda: non_improvable_set(inst, attractive, bearable, mu)),
                _outcome(lambda: feasible(inst, constraints)),
                [_outcome(lambda: max_attractive(inst, constraints, a)) for a in inst.agents],
            ))
    return out


def _final_masks_tables() -> list:
    """Per small market, the final bundle masks of every report of every
    agent against the others' truthful reports, as the misreport audits read
    them from their outcome table."""
    from balex.audits import _OutcomeCache, _report_masks

    out = []
    for key, inst, prefs in _small(list(_random([(2, 2), (3, 2)], range(4))), 5):
        cache = _OutcomeCache(inst, prefs)
        every = range(1 << len(inst.object_ids))
        for i in range(len(inst.agents)):
            for report in _report_masks(inst, i, every):
                profile = cache.truth[:i] + (report,) + cache.truth[i + 1:]
                out.append((key, i, report, _outcome(lambda: cache.final(profile))))
    return out


FAMILIES: dict[str, Callable[[], list]] = {
    "trace": _traces,
    "strategy_proofness": _strategy_proofness,
    "truncation": _truncation,
    "obvious_manipulability": _obvious_manipulability,
    "verify": _verify,
    "queries": _queries,
    "final_masks": _final_masks_tables,
}


def digests() -> dict[str, str]:
    out = {}
    for family, outputs in FAMILIES.items():
        text = json.dumps(_plain(outputs()), sort_keys=True, separators=(",", ":"))
        out[family] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _digests_in_subprocesses(*hash_seeds: str) -> list[dict[str, str]]:
    """`digests()` in one new process per hash seed, run side by side, on the
    `balex` that this process imports."""
    import balex

    src = str(Path(balex.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in hash_seeds
    ]
    outs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"digest process exited {proc.returncode}"
        outs.append(json.loads(stdout))
    return outs


def test_every_family_holds_a_witness_where_it_pins_witnesses():
    """A witness family of only None verdicts would pin no witness."""
    for family in ("strategy_proofness", "truncation", "obvious_manipulability"):
        rows = FAMILIES[family]()
        assert any(
            isinstance(v, dict) and "agent" in v for row in rows for v in row[1:]
        ), family


def test_outputs_match_the_recorded_digests():
    first, second = _digests_in_subprocesses("1", "2")
    unstable = sorted(f for f in first if first[f] != second.get(f))
    assert not unstable, f"outputs depend on PYTHONHASHSEED in: {unstable}"
    want = json.loads(GOLDEN.read_text())
    moved = sorted(f for f in set(want) | set(first) if want.get(f) != first.get(f))
    assert not moved, f"outputs moved in: {moved}"


if __name__ == "__main__":
    try:
        import balex  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    result = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))

"""The mask-level efficiency and core-selection audits against their
frozenset formulation, kept here as the reference: every matching built from
frozensets, bundles compared through prefix_counts, CIR read per object."""

from __future__ import annotations

import itertools
import random

from balex import audits
from balex.audits import (
    efficient_ir_set,
    enumerate_matchings,
    find_efficient_core_matching,
    marginal_profile,
    unambiguously_efficient,
    unambiguously_in_weak_core,
    welfare_vector,
)
from balex.fixtures import load_fixture
from balex.model import Instance, MarginalPreference, Matching
from balex.responsive import cir_trichotomous, is_component_wise_IR, prefix_counts
from conftest import make_instance, random_matching, random_profile


def _ref_matchings(instance: Instance) -> list[Matching]:
    agents, sizes = instance.agents, instance.sizes
    acc: list[frozenset[str]] = []

    def rec(i: int, remaining: tuple[str, ...]):
        if i == len(agents):
            yield Matching(dict(zip(agents, acc)))
            return
        for combo in itertools.combinations(remaining, sizes[i]):
            bundle = frozenset(combo)
            acc.append(bundle)
            yield from rec(i + 1, tuple(o for o in remaining if o not in bundle))
            acc.pop()

    return list(rec(0, instance.object_ids))


def _ref_is_dominated(instance, mu, margs, matchings) -> bool:
    agents = instance.agents
    mu_prefix = [prefix_counts(margs[a], mu.assignment[a]) for a in agents]
    for nu in matchings:
        strict = False
        ok = True
        for i, a in enumerate(agents):
            pv = prefix_counts(margs[a], nu.assignment[a])
            mv = mu_prefix[i]
            if pv == mv:
                continue
            if all(x <= y for x, y in zip(pv, mv)):
                ok = False
                break
            strict = True
        if ok and strict:
            return True
    return False


def _ref_efficient_ir_set(instance, prefs, matchings) -> list[Matching]:
    margs = marginal_profile(instance, prefs)
    return [
        mu
        for mu in matchings
        if is_component_wise_IR(instance, mu, margs)
        and not _ref_is_dominated(instance, mu, margs, matchings)
    ]


def _ref_core_matching(instance, prefs, matchings) -> Matching | None:
    cir = [
        (mu, welfare_vector(instance, mu, prefs))
        for mu in matchings
        if cir_trichotomous(instance, mu, prefs)
    ]
    vectors = [w for _, w in cir]
    for mu, w in cir:
        if any(all(x >= y for x, y in zip(v, w)) and v != w for v in vectors):
            continue
        if unambiguously_in_weak_core(instance, mu, prefs, strict_acceptability=True) is None:
            return mu
    return None


def _four_class_profile(instance: Instance, rng: random.Random) -> dict[str, MarginalPreference]:
    """Class-based marginals with 4 classes, one of them left empty."""
    out = {}
    for a in instance.agents:
        empty = rng.randrange(4)
        used = [k for k in range(4) if k != empty]
        classes: list[set[str]] = [set() for _ in range(4)]
        for o in instance.object_ids:
            classes[rng.choice(used)].add(o)
        out[a] = MarginalPreference(a, tuple(frozenset(c) for c in classes))
    return out


def _markets(seed: int, count: int, max_objects: int):
    rng = random.Random(seed)
    while count:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        if sum(sizes) > max_objects:
            continue
        count -= 1
        yield rng, make_instance(sizes)


def test_enumeration_order_is_the_frozenset_order():
    for _, inst in _markets(5, 20, 8):
        assert list(enumerate_matchings(inst)) == _ref_matchings(inst)


def test_brute_efficiency_agrees_with_the_frozenset_scan():
    checked = dominated = 0
    for rng, inst in _markets(11, 40, 8):
        matchings = _ref_matchings(inst)
        for prefs in (random_profile(inst, rng), _four_class_profile(inst, rng)):
            margs = marginal_profile(inst, prefs)
            for mu in [inst.endowment_matching()] + [random_matching(inst, rng) for _ in range(4)]:
                want = not _ref_is_dominated(inst, mu, margs, matchings)
                assert unambiguously_efficient(inst, mu, prefs, mode="brute") == want
                checked += 1
                dominated += not want
    assert checked == 400 and 0 < dominated < checked


def test_efficient_ir_set_agrees_with_the_frozenset_filter():
    nonempty = 0
    for rng, inst in _markets(13, 30, 8):
        matchings = _ref_matchings(inst)
        for prefs in (random_profile(inst, rng), _four_class_profile(inst, rng)):
            got = efficient_ir_set(inst, prefs)
            assert got == _ref_efficient_ir_set(inst, prefs, matchings)
            nonempty += bool(got)
    assert nonempty > 30


def test_core_selection_agrees_with_the_frozenset_loop():
    for rng, inst in _markets(17, 40, 8):
        prefs = random_profile(inst, rng)
        want = _ref_core_matching(inst, prefs, _ref_matchings(inst))
        assert want is not None
        assert find_efficient_core_matching(inst, prefs) == want


def test_object_names_only_for_core_candidates(monkeypatch):
    """Brute efficiency names no objects; core selection names them once per
    agent of each candidate it checks against the weak core."""
    fx = load_fixture("thm4-p3")
    named = []
    checked = []
    unmask = Instance.unmask
    in_core = audits.unambiguously_in_weak_core

    def counting_unmask(self, mask):
        named.append(mask)
        return unmask(self, mask)

    def counting_core(*args, **kwargs):
        checked.append(args[1])
        return in_core(*args, **kwargs)

    monkeypatch.setattr(Instance, "unmask", counting_unmask)
    monkeypatch.setattr(audits, "unambiguously_in_weak_core", counting_core)
    for mu in (fx.expected["mechanism_output"], fx.instance.endowment_matching()):
        unambiguously_efficient(fx.instance, mu, fx.prefs, mode="brute")
    assert named == []
    find_efficient_core_matching(fx.instance, fx.prefs)
    assert len(checked) == 2
    assert len(named) == 2 * len(fx.instance.agents) == 8

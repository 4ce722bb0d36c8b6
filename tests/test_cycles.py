"""Cycle algebra: distance, application, reversal, decomposition, welfare effects."""

from __future__ import annotations

import random

import pytest

from balex.cycles import (
    Cycle,
    apply_cycle,
    classify_cycle,
    decompose,
    distance,
    find_cir_pareto_improving_cycle,
    reverse_cycle,
)
from balex.fixtures import load_fixture
from balex.flownet import ExchangeFlow
from balex.mechanism import non_improvable_set, run_ir_priority
from balex.model import Matching, TrichotomousPreference
from conftest import make_instance, random_matching, random_profile


def fs(*objs):
    return frozenset(objs)


THM4 = make_instance([1, 1, 2, 1])  # a1:o1  a2:o2  a3:o3,o4  a4:o5


def thm4_prefs():
    return {
        "a1": TrichotomousPreference("a1", fs("o3"), fs("o1", "o5")),
        "a2": TrichotomousPreference("a2", fs("o3"), fs("o2", "o5")),
        "a3": TrichotomousPreference("a3", fs("o1", "o2"), fs("o3", "o4")),
        "a4": TrichotomousPreference("a4", fs("o4"), fs("o5")),
    }


def test_distance_examples():
    omega = THM4.endowment_matching()
    assert distance(omega, omega) == 0
    ex1 = make_instance([2, 2])
    swap = Matching({"a1": fs("o3", "o4"), "a2": fs("o1", "o2")})
    assert distance(ex1.endowment_matching(), swap) == 4
    two = Matching({"a1": fs("o2"), "a2": fs("o1"), "a3": fs("o3", "o4"), "a4": fs("o5")})
    assert distance(THM4.endowment_matching(), two) == 2


def test_apply_cycle_pair_swap():
    omega = THM4.endowment_matching()
    c = Cycle.of(omega, (("a1", "o2"), ("a2", "o1")))
    nu = apply_cycle(omega, c)
    assert nu.assignment["a1"] == fs("o2")
    assert nu.assignment["a2"] == fs("o1")


def test_apply_cycle_example1_swap():
    # introductory market: agents swap p1 for o1
    ex1 = make_instance([2, 2])  # a1: o1,o2   a2: o3,o4 (p1,p2)
    omega = ex1.endowment_matching()
    c = Cycle.of(omega, (("a1", "o3"), ("a2", "o1")))
    nu = apply_cycle(omega, c)
    assert nu.assignment["a1"] == fs("o2", "o3")
    assert nu.assignment["a2"] == fs("o1", "o4")


def test_apply_cycle_three_way_trade():
    # 3 gives q2 to 4, 4 gives r to 2, 2 gives p to 3: each agent's step names
    # the object received, the next agent is the current holder of that object
    omega = THM4.endowment_matching()
    c = Cycle.of(omega, (("a4", "o4"), ("a3", "o2"), ("a2", "o5")))
    nu = apply_cycle(omega, c)
    assert nu.assignment["a4"] == fs("o4")
    assert nu.assignment["a2"] == fs("o5")
    assert nu.assignment["a3"] == fs("o2", "o3")


def test_apply_then_reverse_is_identity():
    rng = random.Random(3)
    for _ in range(50):
        inst = make_instance([rng.randint(1, 3) for _ in range(rng.randint(2, 4))])
        mu = random_matching(inst, rng)
        nu = random_matching(inst, rng)
        for c in decompose(nu, mu):
            stepped = apply_cycle(mu, c)
            assert apply_cycle(stepped, reverse_cycle(c)) == mu
            assert reverse_cycle(reverse_cycle(c)).steps == c.steps
            mu = stepped
        assert mu == nu


def test_reverse_of_pair_swap():
    c = Cycle((("1", "a"), ("2", "b")))
    assert reverse_cycle(c).steps == (("1", "b"), ("2", "a"))


def test_cycle_validation_rejects_bad_steps():
    omega = THM4.endowment_matching()
    with pytest.raises(ValueError, match="does not hold"):
        Cycle.of(omega, (("a1", "o2"), ("a2", "o3")))
    with pytest.raises(ValueError, match="already holds"):
        Cycle.of(omega, (("a3", "o4"), ("a1", "o3")))
    with pytest.raises(ValueError, match="at least two"):
        Cycle((("a1", "o2"),))


def test_decompose_examples():
    omega = THM4.endowment_matching()
    assert decompose(omega, omega) == []
    ex1 = make_instance([2, 2])
    swap = Matching({"a1": fs("o3", "o4"), "a2": fs("o1", "o2")})
    cycles = decompose(swap, ex1.endowment_matching())
    seen: set[str] = set()
    mu = ex1.endowment_matching()
    for c in cycles:
        objs = set(c.objects())
        assert not objs & seen  # object-disjoint
        seen |= objs
        mu = apply_cycle(mu, c)
    assert mu == swap


def test_decompose_random_reexecution():
    rng = random.Random(9)
    for _ in range(300):
        inst = make_instance([2] * 4)
        mu = random_matching(inst, rng)
        nu = random_matching(inst, rng)
        cycles = decompose(nu, mu)
        seen: set[str] = set()
        cur = mu
        for c in cycles:
            objs = set(c.objects())
            assert not objs & seen
            seen |= objs
            nxt = apply_cycle(cur, c)
            assert distance(nxt, nu) < distance(cur, nu)
            cur = nxt
        assert cur == nu
        assert (cycles == []) == (mu == nu)


def test_classify_cycle_spec_examples():
    prefs = thm4_prefs()
    omega = THM4.endowment_matching()
    # 1 and 3 trade q1 (=o3) for o (=o1): both gain an attractive object
    c = Cycle.of(omega, (("a1", "o3"), ("a3", "o1")))
    eff = classify_cycle(c, omega, prefs)
    assert eff.cir and eff.pareto_improving
    assert eff.increases == fs("a1", "a3") and eff.decreases == fs()
    # giving a2 an unacceptable object (o1) is not CIR
    c2 = Cycle.of(omega, (("a2", "o1"), ("a1", "o2")))
    eff2 = classify_cycle(c2, omega, prefs)
    assert not eff2.cir
    # bearable-for-bearable swap affects nobody
    c3 = Cycle.of(omega, (("a1", "o5"), ("a4", "o1")))
    eff3 = classify_cycle(c3, omega, prefs)
    assert eff3.increases == fs() and eff3.decreases == fs()
    assert not eff3.pareto_improving


def test_classify_reverse_swaps_increases_and_decreases():
    rng = random.Random(21)
    for _ in range(100):
        inst = make_instance([rng.randint(1, 2) for _ in range(3)])
        prefs = random_profile(inst, rng)
        mu = random_matching(inst, rng)
        nu = random_matching(inst, rng)
        for c in decompose(nu, mu):
            eff = classify_cycle(c, mu, prefs)
            stepped = apply_cycle(mu, c)
            rev = classify_cycle(reverse_cycle(c), stepped, prefs)
            assert rev.increases == eff.decreases
            assert rev.decreases == eff.increases
            mu = stepped


def test_find_improving_cycle_on_thm4_endowment():
    prefs = thm4_prefs()
    omega = THM4.endowment_matching()
    c = find_cir_pareto_improving_cycle(THM4, omega, prefs)
    assert c is not None
    eff = classify_cycle(c, omega, prefs)
    assert eff.cir and eff.pareto_improving


def test_find_improving_cycle_none_on_mechanism_output():
    prefs = thm4_prefs()
    final, _ = run_ir_priority(THM4, prefs)
    assert find_cir_pareto_improving_cycle(THM4, final, prefs) is None


def test_efficiency_check_builds_one_network_and_extracts_nothing(monkeypatch):
    fx = load_fixture("thm4-base")
    final, _ = run_ir_priority(fx.instance, fx.prefs)
    calls = {"build": 0, "extract": 0}
    build, extract = ExchangeFlow.__init__, ExchangeFlow.extract_canonical

    def counting_build(self, *args, **kwargs):
        calls["build"] += 1
        build(self, *args, **kwargs)

    def counting_extract(self, order):
        calls["extract"] += 1
        return extract(self, order)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "extract_canonical", counting_extract)
    assert find_cir_pareto_improving_cycle(fx.instance, final, fx.prefs) is None
    assert calls == {"build": 1, "extract": 0}


def test_the_search_maximizes_the_first_agent_that_can_improve(monkeypatch):
    """On a random market's endowment, the search maximizes one agent: the
    first, in priority order, outside the non-improvable set of the same
    system, and it finds a cycle exactly when there is such an agent."""
    maximized = []
    maximize = ExchangeFlow.maximize

    def spy(self, i):
        maximized.append(i)
        return maximize(self, i)

    monkeypatch.setattr(ExchangeFlow, "maximize", spy)
    rng = random.Random(181)
    several = 0
    for _ in range(150):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 5))])
        prefs = random_profile(inst, rng)
        mu = inst.endowment_matching()
        stuck = non_improvable_set(
            inst,
            {a: p.attractive for a, p in prefs.items()},
            {a: p.bearable for a, p in prefs.items()},
            mu,
        )
        improvable = [i for i, a in enumerate(inst.agents) if a not in stuck]
        maximized.clear()
        cycle = find_cir_pareto_improving_cycle(inst, mu, prefs)
        assert maximized == improvable[:1]
        assert (cycle is None) == (not improvable)
        several += len(improvable) > 1
    assert several > 30


def test_find_improving_cycle_single_agent():
    inst = make_instance([2])
    prefs = {"a1": TrichotomousPreference("a1", fs("o1"), fs("o2"))}
    assert find_cir_pareto_improving_cycle(inst, inst.endowment_matching(), prefs) is None


def test_find_improving_cycle_requires_cir_base():
    prefs = thm4_prefs()
    bad = Matching({"a1": fs("o2"), "a2": fs("o1"), "a3": fs("o3", "o4"), "a4": fs("o5")})
    with pytest.raises(ValueError, match="individually rational"):
        find_cir_pareto_improving_cycle(THM4, bad, prefs)

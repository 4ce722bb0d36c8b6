"""Constrained attractive-count maximization: flow solver vs enumeration oracle."""

from __future__ import annotations

import random

import pytest

from balex.model import TrichotomousPreference
from balex.optimize import (
    EnumerationLimitError,
    InfeasibleError,
    WelfareConstraints,
    brute_force_max,
    enumerate_constrained,
    feasible,
    max_attractive,
    network_dump,
)
from balex.responsive import cir_trichotomous
from conftest import make_instance, random_profile


def fs(*objs):
    return frozenset(objs)


THM4 = make_instance([1, 1, 2, 1])  # a1:o1(o)  a2:o2(p)  a3:o3,o4(q1,q2)  a4:o5(r)

A = {"a1": fs("o3"), "a2": fs("o3"), "a3": fs("o1", "o2"), "a4": fs("o4")}
B_FULL = {"a1": fs("o1", "o5"), "a2": fs("o2", "o5"), "a3": fs("o3", "o4"), "a4": fs("o5")}
B_FLOOR = {a: THM4.endowment[a] - A[a] for a in THM4.agents}


def round0() -> WelfareConstraints:
    return WelfareConstraints(
        allowed={a: A[a] | B_FLOOR[a] for a in THM4.agents},
        attractive=A,
        min_attractive={a: len(THM4.endowment[a] & A[a]) for a in THM4.agents},
    )


def test_feasible_round0_returns_a_matching_containing_endowment_welfare():
    mu = feasible(THM4, round0())
    assert mu is not None
    prefs = {a: TrichotomousPreference(a, A[a], B_FLOOR[a]) for a in THM4.agents}
    assert cir_trichotomous(THM4, mu, prefs)


def test_feasible_endowment_only_allowed_sets_yield_endowment():
    c = WelfareConstraints(
        allowed={a: THM4.endowment[a] for a in THM4.agents},
        attractive=A,
        min_attractive={a: 0 for a in THM4.agents},
    )
    assert feasible(THM4, c) == THM4.endowment_matching()


def test_feasible_exact_promises_pin_the_thm4_matching():
    c = WelfareConstraints(
        allowed={a: A[a] | B_FULL[a] for a in THM4.agents},
        attractive=A,
        min_attractive={a: 0 for a in THM4.agents},
        exact_attractive={"a1": 1, "a2": 0, "a3": 2, "a4": 1},
    )
    mu = feasible(THM4, c)
    assert mu.assignment == {
        "a1": fs("o3"),
        "a2": fs("o5"),
        "a3": fs("o1", "o2"),
        "a4": fs("o4"),
    }


def test_max_attractive_thm4_round0_examples():
    k, mu = max_attractive(THM4, round0(), "a1")
    assert k == 1 and "o3" in mu.assignment["a1"]
    c = WelfareConstraints(
        allowed=round0().allowed,
        attractive=A,
        min_attractive=round0().min_attractive,
        exact_attractive={"a1": 1, "a2": 0},
    )
    k3, _ = max_attractive(THM4, c, "a3")
    assert k3 == 1  # o2 (p) is locked to agent 2 once a1 takes o3


def test_max_attractive_unreachable_attractive_objects():
    c = WelfareConstraints(
        allowed={a: THM4.endowment[a] for a in THM4.agents},
        attractive={"a1": fs("o3"), "a2": fs(), "a3": fs(), "a4": fs()},
        min_attractive={a: 0 for a in THM4.agents},
    )
    k, _ = max_attractive(THM4, c, "a1")
    assert k == 0


def test_infeasible_raises_and_feasible_returns_none():
    c = WelfareConstraints(
        allowed={"a1": fs("o1"), "a2": fs("o2"), "a3": fs("o3"), "a4": fs("o5")},
        attractive=A,
        min_attractive={a: 0 for a in THM4.agents},
    )
    # a3 needs two objects but is allowed only one
    assert feasible(THM4, c) is None
    with pytest.raises(InfeasibleError):
        max_attractive(THM4, c, "a1")
    with pytest.raises(InfeasibleError):
        brute_force_max(THM4, c, "a1")


def test_brute_force_bound_guard():
    inst = make_instance([3, 3, 3, 3])
    c = WelfareConstraints(
        allowed={a: inst.objects for a in inst.agents},
        attractive={a: fs() for a in inst.agents},
        min_attractive={a: 0 for a in inst.agents},
    )
    with pytest.raises(EnumerationLimitError):
        brute_force_max(inst, c, "a1")


def test_single_agent_brute_force():
    inst = make_instance([2])
    c = WelfareConstraints(
        allowed={"a1": inst.objects},
        attractive={"a1": fs("o1")},
        min_attractive={"a1": 0},
    )
    k, mu = brute_force_max(inst, c, "a1")
    assert k == 1 and mu == inst.endowment_matching()


def _random_query(rng: random.Random):
    inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
    allowed, attractive, mins, exact = {}, {}, {}, {}
    for a in inst.agents:
        attractive[a] = frozenset(o for o in inst.object_ids if rng.random() < 0.4)
        allowed[a] = (
            frozenset(o for o in inst.object_ids if rng.random() < 0.7)
            | inst.endowment[a]
        )
        mins[a] = rng.randint(0, len(inst.endowment[a])) if rng.random() < 0.4 else 0
        if rng.random() < 0.2:
            exact[a] = rng.randint(mins[a], len(inst.endowment[a]))
    c = WelfareConstraints(
        allowed=allowed, attractive=attractive, min_attractive=mins, exact_attractive=exact
    )
    return inst, c, rng.choice(inst.agents)


def test_flow_agrees_with_brute_force_on_random_queries():
    rng = random.Random(171)
    for _ in range(250):
        inst, c, target = _random_query(rng)
        try:
            kb, _ = brute_force_max(inst, c, target)
        except InfeasibleError:
            kb = None
        try:
            kf, wf = max_attractive(inst, c, target)
        except InfeasibleError:
            kf = None
        assert kb == kf
        if kf is not None:
            assert len(wf.assignment[target] & c.attractive.get(target, fs())) == kf


def test_monotonicity_in_allowed_sets_and_minima():
    rng = random.Random(172)
    for _ in range(120):
        inst, c, target = _random_query(rng)
        if c.exact_attractive:
            continue
        try:
            k0, _ = max_attractive(inst, c, target)
        except InfeasibleError:
            continue
        grown = WelfareConstraints(
            allowed={a: inst.objects for a in inst.agents},
            attractive=c.attractive,
            min_attractive={a: 0 for a in inst.agents},
        )
        k1, _ = max_attractive(inst, grown, target)
        assert k1 >= k0


def test_witnesses_are_cir_when_constraints_encode_cir():
    rng = random.Random(173)
    for _ in range(80):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 4))])
        prefs = random_profile(inst, rng)
        c = WelfareConstraints(
            allowed={a: prefs[a].acceptable() for a in inst.agents},
            attractive={a: prefs[a].attractive for a in inst.agents},
            min_attractive={
                a: len(inst.endowment[a] & prefs[a].attractive) for a in inst.agents
            },
        )
        target = rng.choice(inst.agents)
        _, mu = max_attractive(inst, c, target)
        assert cir_trichotomous(inst, mu, prefs)


def test_canonical_tie_break_is_lexicographic_minimum():
    rng = random.Random(174)
    checked = 0
    for _ in range(150):
        inst, c, target = _random_query(rng)
        try:
            kf, wf = max_attractive(inst, c, target)
        except InfeasibleError:
            continue
        best = min(
            (
                m
                for m in enumerate_constrained(inst, c)
                if len(m.assignment[target] & c.attractive.get(target, fs())) == kf
            ),
            key=lambda m: m.key(inst),
        )
        assert wf.key(inst) == best.key(inst)
        checked += 1
    assert checked > 80


def test_network_dump_mentions_all_layers():
    text = network_dump(THM4, round0())
    assert "tierA0" in text and "obj0" in text and "-> T" in text


def _milp_optimum(inst, c: WelfareConstraints, target: str) -> int | None:
    """Largest attractive count of `target` over the constraint set by an
    integer program (one 0/1 variable per allowed agent-object pair), or None
    when the set is empty."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    agents, objects = inst.agents, inst.object_ids
    pairs = [(i, o) for i, a in enumerate(agents) for o in objects if o in c.allowed.get(a, fs())]
    rows, lower, upper = [], [], []

    def row(members, lo, hi):
        rows.append([1.0 if members(i, o) else 0.0 for i, o in pairs])
        lower.append(lo)
        upper.append(hi)

    for obj in objects:
        row(lambda i, o: o == obj, 1, 1)
    for k, a in enumerate(agents):
        size = inst.sizes[k]
        row(lambda i, o: i == k, size, size)
        attractive = c.attractive.get(a, fs())
        if a in c.exact_attractive:
            lo = hi = c.exact_attractive[a]
        else:
            lo, hi = c.min_attractive.get(a, 0), size
        row(lambda i, o: i == k and o in attractive, lo, hi)
    t = agents.index(target)
    goal = [-1.0 if i == t and o in c.attractive.get(target, fs()) else 0.0 for i, o in pairs]
    res = opt.milp(
        np.array(goal),
        constraints=opt.LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(len(pairs)),
        bounds=opt.Bounds(0, 1),
    )
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return None if res.status == 2 else round(-res.fun)


def _large_query(rng: random.Random, n_agents: int):
    """A seeded query on a market of n_agents with 1-4 objects each.  Every
    agent may keep its endowment at no attractive loss, except that up to two
    agents lose their endowment or get a lower bound one above it (at most
    the endowment size), so the
    system may be infeasible."""
    inst = make_instance([rng.randint(1, 4) for _ in range(n_agents)])
    objs = list(inst.object_ids)
    allowed, attractive, low, exact = {}, {}, {}, {}
    for a in inst.agents:
        allowed[a] = inst.endowment[a] | frozenset(rng.sample(objs, rng.randint(0, 10)))
        attractive[a] = frozenset(o for o in allowed[a] if rng.random() < 0.4)
        attractive[a] |= frozenset(rng.sample(objs, 2))
        own = len(inst.endowment[a] & attractive[a])
        if rng.random() < 0.1:
            exact[a] = own
        else:
            low[a] = rng.randint(0, own)
    for a in rng.sample(inst.agents, rng.randint(0, 2)):
        if rng.random() < 0.5:
            allowed[a] -= inst.endowment[a]
        else:
            size = len(inst.endowment[a])
            low[a] = min(exact.pop(a, low.get(a, 0)) + 1, size)
    c = WelfareConstraints(allowed, attractive, low, exact)
    return inst, c, rng.choice(inst.agents)


def test_flow_agrees_with_integer_program_up_to_200_objects():
    rng = random.Random(2025)
    outcomes = set()
    largest = 0
    for n_agents in (6, 12, 25, 50, 80) * 6:
        inst, c, target = _large_query(rng, n_agents)
        largest = max(largest, len(inst.object_ids))
        best = _milp_optimum(inst, c, target)
        witness = feasible(inst, c)
        assert (witness is None) == (best is None)
        outcomes.add(best is None)
        if best is None:
            continue
        count, mu = max_attractive(inst, c, target)
        assert count == best
        assert len(mu.assignment[target] & c.attractive[target]) == count
        for m in (witness, mu):
            for a in inst.agents:
                got = len(m.assignment[a] & c.attractive[a])
                assert m.assignment[a] <= c.allowed[a]
                assert got >= c.min_attractive.get(a, 0)
                assert c.exact_attractive.get(a, got) == got
    assert outcomes == {True, False}
    assert largest >= 180

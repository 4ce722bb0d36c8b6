"""Flow network: starting from a known matching versus `solve_feasible`,
`solve_feasible` against enumerated matchings, and canonical extraction
against a brute-force greedy over them."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from balex.audits import check_strategy_proofness
from balex.fixtures import load_fixture
from balex.flownet import ExchangeFlow
from balex.generate import random_market
from balex.mechanism import run_ir_priority
from balex.model import DomainSpec, TrichotomousPreference
from conftest import make_instance, random_profile


def _popcount(x: int) -> int:
    return bin(x).count("1")


@st.composite
def systems_with_a_matching(draw, max_objects: int = 12):
    """A constraint system, a balanced matching satisfying it and a priority order."""
    sizes = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda s: sum(s) <= max_objects
        )
    )
    m = sum(sizes)
    full = (1 << m) - 1
    objects = draw(st.permutations(range(m)))
    bundles, k = [], 0
    for s in sizes:
        bundles.append(sum(1 << j for j in objects[k : k + s]))
        k += s
    attractive = [draw(st.integers(0, full)) for _ in sizes]
    allowed = [b | draw(st.integers(0, full)) for b in bundles]
    counts = [_popcount(b & a) for b, a in zip(bundles, attractive)]
    lo = [draw(st.integers(0, c)) for c in counts]
    hi = [c + draw(st.integers(0, 2)) for c in counts] if draw(st.booleans()) else None
    order = draw(st.permutations(range(len(sizes))))
    return (sizes, attractive, allowed, lo, hi, m), bundles, list(order)


def _dictatorship(flow: ExchangeFlow, order: list[int]) -> tuple[list[int], list[int]]:
    promises = []
    for i in order:
        promises.append(flow.maximize(i))
        flow.freeze(i)
    return promises, flow.extract_canonical(order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching())
def test_start_from_matching_agrees_with_path_augmentation(case):
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    started = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    solved = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    assert started.start_from(bundles)
    assert solved.solve_feasible()
    assert _dictatorship(started, order) == _dictatorship(solved, order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching())
def test_a_pass_over_its_own_promises_repeats_itself(case):
    """The lemma behind the mechanism's skipped passes: a second pass over
    the same allowed masks, from the first pass's matching with its promises
    as lower bounds, gives the same promises and canonical matching."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    flow = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    assert flow.start_from(bundles)
    first = _dictatorship(flow, order)
    flow.retarget(list(flow.allowed_b))
    assert _dictatorship(flow, order) == first


def _balanced_matchings(sizes: list[int], allowed: list[int], m: int):
    """Every partition of the m objects into one bundle mask per agent, each
    bundle of the agent's size and inside its allowed set."""

    def rec(i: int, free: int):
        if i == len(sizes):
            yield ()
            return
        objects = [j for j in range(m) if (free & allowed[i]) >> j & 1]
        for chosen in combinations(objects, sizes[i]):
            bundle = sum(1 << j for j in chosen)
            for rest in rec(i + 1, free & ~bundle):
                yield (bundle, *rest)

    yield from rec(0, (1 << m) - 1)


def _fits(sizes, attractive, allowed, lo, hi, i: int, bundle: int) -> bool:
    """Whether `bundle` (inside agent i's allowed set) meets its tier bounds."""
    count = _popcount(bundle & attractive[i] & allowed[i])
    cap = min(sizes[i], _popcount(attractive[i] & allowed[i]))
    return lo[i] <= count <= (cap if hi is None else min(cap, hi[i]))


@st.composite
def systems(draw, max_objects: int = 8):
    """A constraint system with no matching planted: it may have none."""
    sizes = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(
            lambda s: sum(s) <= max_objects
        )
    )
    m = sum(sizes)
    full = (1 << m) - 1
    attractive = [draw(st.integers(0, full)) | draw(st.integers(0, full)) for _ in sizes]
    allowed = [full & ~(draw(st.integers(0, full)) & draw(st.integers(0, full))) for _ in sizes]
    lo = [draw(st.integers(0, s)) for s in sizes]
    hi = [draw(st.integers(low, s)) for low, s in zip(lo, sizes)] if draw(st.booleans()) else None
    return sizes, attractive, allowed, lo, hi, m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems())
def test_solve_feasible_finds_a_point_iff_enumeration_does(case):
    """Both phases of `solve_feasible`, the lower-bound repair included,
    against every balanced matching of the system."""
    sizes, attractive, allowed, lo, hi, m = case
    system = case[:5]
    fitting = [
        mu
        for mu in _balanced_matchings(sizes, allowed, m)
        if all(_fits(*system, i, bundle) for i, bundle in enumerate(mu))
    ]
    flow = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    assert flow.solve_feasible() == bool(fitting)
    if fitting:
        held = flow.matching()
        assert tuple(held) in set(_balanced_matchings(sizes, allowed, m))
        assert all(_fits(*system, i, bundle) for i, bundle in enumerate(held))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching(max_objects=8), st.integers(0, 4))
def test_extraction_agrees_with_greedy_over_enumerated_matchings(case, dictators):
    """The dictatorship pass freezes the first `dictators` agents of the order
    (all of them, as in the mechanism, when it is at least the agent count)."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    flow = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    assert flow.start_from(bundles)
    frozen = {}
    for i in order[:dictators]:
        frozen[i] = flow.maximize(i)
        flow.freeze(i)
    extracted = flow.extract_canonical(order)

    def fits(i: int, bundle: int) -> bool:
        if i in frozen:
            return _popcount(bundle & attractive[i] & allowed[i]) == frozen[i]
        return _fits(sizes, attractive, allowed, lo, hi, i, bundle)

    witnesses = [
        mu
        for mu in _balanced_matchings(sizes, allowed, m)
        if all(fits(i, bundle) for i, bundle in enumerate(mu))
    ]
    greedy = [0] * len(sizes)
    for i in order:
        for j in range(m):
            kept = [mu for mu in witnesses if mu[i] >> j & 1]
            if kept:
                witnesses = kept
                greedy[i] |= 1 << j
    assert extracted == greedy


def _extract_by_search(flow: ExchangeFlow, order: list[int]) -> list[int]:
    """Canonical extraction with one search per candidate held elsewhere: no
    marks of failed searches and no full-tier rule."""
    bundles = [0] * flow.n
    for i in order:
        got = 0
        rem = (flow.allowed_a[i] | flow.allowed_b[i]) & ~flow.pinned
        while rem and got < flow.sizes[i]:
            bit = rem & -rem
            rem ^= bit
            j = bit.bit_length() - 1
            target = flow.tier_a0 + i if bit & flow.allowed_a[i] else flow.tier_b0 + i
            if flow.holder[j] != target:
                path = flow._find_path(flow.holder[j], target)
                if path is None:
                    continue
                flow._push(path)
                flow._move(j, target)
            flow.pinned |= bit
            bundles[i] |= bit
            got += 1
    return bundles


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching(), st.integers(0, 4), st.booleans())
def test_full_tiers_are_dropped_only_where_no_search_enters_them(case, dictators, solved):
    """Extraction, which drops the remaining candidates of a frozen agent's
    tier once it holds only pinned objects, against extraction that searches
    for every candidate, on mechanism networks started from a matching and on
    `optimize` networks solved by path augmentation, with the first
    `dictators` agents of the order maximized and frozen."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    networks = []
    for _ in range(2):
        flow = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
        assert flow.solve_feasible() if solved else flow.start_from(bundles)
        for i in order[:dictators]:
            flow.maximize(i)
            flow.freeze(i)
        networks.append(flow)
    fast, slow = networks
    assert fast.extract_canonical(order) == _extract_by_search(slow, order)
    assert fast.matching() == slow.matching()


def test_extraction_skips_candidates_a_failed_search_reached(monkeypatch):
    instance, prefs = random_market(
        0, 24, 4, p_attractive_other=0.025, p_bearable_other=0.5, exact_endowment=4
    )
    searches, inside = [], []
    find_path, extract = ExchangeFlow._find_path, ExchangeFlow.extract_canonical

    def counting_find_path(self, *args, **kwargs):
        path = find_path(self, *args, **kwargs)
        if inside:
            searches.append(path is not None)
        return path

    def counting_extract(self, order):
        inside.append(1)
        try:
            return extract(self, order)
        finally:
            inside.pop()

    monkeypatch.setattr(ExchangeFlow, "_find_path", counting_find_path)
    monkeypatch.setattr(ExchangeFlow, "extract_canonical", counting_extract)
    run_ir_priority(instance, prefs)
    # one extraction, of the final pass; without the marks of failed
    # searches it searches 71 times here
    assert len(searches) == 65
    assert sum(searches) == 15


def test_search_trajectory_on_the_bench_market(monkeypatch):
    """The residual searches of one run on the `balex bench` 50:4 market, by
    the operation that made them: how many, and how many found a path."""
    instance, prefs = random_market(seed=0, n_agents=50, max_endowment=4, exact_endowment=4)
    searches: dict[str, list[bool]] = {"extract": [], "maximize": [], "can_improve": []}
    callers: list[str] = []
    find_path = ExchangeFlow._find_path

    def counting_find_path(self, *args, **kwargs):
        path = find_path(self, *args, **kwargs)
        searches[callers[-1]].append(path is not None)
        return path

    monkeypatch.setattr(ExchangeFlow, "_find_path", counting_find_path)
    for caller, method in (
        ("extract", "extract_canonical"),
        ("maximize", "maximize"),
        ("can_improve", "can_improve"),
    ):
        original = getattr(ExchangeFlow, method)

        def counting(self, *args, _original=original, _caller=caller, **kwargs):
            callers.append(_caller)
            try:
                return _original(self, *args, **kwargs)
            finally:
                callers.pop()

        monkeypatch.setattr(ExchangeFlow, method, counting)
    run_ir_priority(instance, prefs)
    # the final pass's extraction alone; full tiers are searched no more
    assert (len(searches["extract"]), sum(searches["extract"])) == (170, 165)
    assert (len(searches["maximize"]), sum(searches["maximize"])) == (123, 123)
    assert searches["can_improve"] == []


def test_start_from_rejects_a_matching_that_breaks_the_constraints():
    # agent 0 owns object 0 (attractive to it), agent 1 owns object 1
    def network(lo, allowed=(0b01, 0b11)):
        return ExchangeFlow([1, 1], [0b01, 0b01], list(allowed), lo, n_objects=2)

    assert network([1, 0]).start_from([0b01, 0b10])
    assert not network([1, 0]).start_from([0b10, 0b01])  # outside agent 0's allowed set
    assert not network([0, 1]).start_from([0b01, 0b10])  # below agent 1's lower bound
    assert not network([0, 0]).start_from([0b11, 0b00])  # not one object per agent
    assert not network([0, 0], allowed=(0b01, 0b01)).start_from([0b01, 0b01])


def test_restart_rejects_what_start_from_rejects():
    """`restart` on a network that held another system takes its lower bounds
    from the matching, then judges it as `start_from` judges it on a new one."""
    shared = ExchangeFlow([1, 1], [0b10, 0b10], [0b11, 0b11], [0, 0], n_objects=2)
    assert shared.start_from([0b10, 0b01])
    for allowed, bundles in (
        ((0b01, 0b11), [0b01, 0b10]),
        ((0b01, 0b11), [0b10, 0b01]),  # outside agent 0's allowed set
        ((0b11, 0b11), [0b11, 0b00]),  # not one object per agent
        ((0b01, 0b01), [0b01, 0b01]),  # one object twice
        ((0b11, 0b11), [0b10, 0b01]),
    ):
        lo = [_popcount(b & 0b01) for b in bundles]
        fresh = ExchangeFlow([1, 1], [0b01, 0b01], list(allowed), lo, n_objects=2)
        verdict = fresh.start_from(bundles)
        assert shared.restart([0b01, 0b01], list(allowed), bundles) == verdict
        if verdict:
            assert shared.dump() == fresh.dump()
            assert shared.cap == fresh.cap and shared.queries == 0


def test_a_misreport_search_builds_two_networks(monkeypatch):
    """A witness-free strategy-proofness audit builds one network for the
    truthful `run_ir_priority` and one that every misreport run restarts;
    agents whose truthful bundle no bundle of their size beats run no
    reports."""
    builds, restarts = [], []
    build, restart = ExchangeFlow.__init__, ExchangeFlow.restart

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    def counting_restart(self, *args):
        restarts.append(1)
        return restart(self, *args)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "restart", counting_restart)
    strong = DomainSpec.strongly_trichotomous()
    instance = make_instance([2, 1, 1])
    prefs = random_profile(instance, random.Random(5), strongly=True)
    assert check_strategy_proofness(instance, prefs, strong) is None
    assert len(builds) == 2
    assert len(restarts) == 1  # the truthful run; every agent's bundle is unbeatable
    builds.clear()
    restarts.clear()
    instance = make_instance([2, 2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", frozenset({"o1", "o4"}), frozenset({"o2"})),
        "a2": TrichotomousPreference("a2", frozenset({"o1", "o4"}), frozenset({"o3"})),
        "a3": TrichotomousPreference("a3", frozenset({"o2"}), frozenset({"o5"})),
    }
    assert check_strategy_proofness(instance, prefs, strong) is None
    assert len(builds) == 2
    assert len(restarts) == 94  # the truthful run and 31 misreports per agent


def test_mechanism_networks_start_from_the_incumbent(monkeypatch):
    fx = load_fixture("thm4-base")
    builds, solves = [], []
    build, solve = ExchangeFlow.__init__, ExchangeFlow.solve_feasible

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    def counting_solve(self):
        solves.append(1)
        return solve(self)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "solve_feasible", counting_solve)
    _, trace = run_ir_priority(fx.instance, fx.prefs)
    # every round's refinement and improvability check, and the final pass,
    # retarget the one network built from the endowment
    assert trace.round_count == 3
    assert len(builds) == 1
    # reading the trace restarts one network from the held matching of each
    # earlier pass; here the final pass was skipped, so there is one
    assert len(trace.rounds) == 3
    assert len(builds) == 2
    assert solves == []

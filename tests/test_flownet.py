"""Flow network: installing from a known matching versus `solve_feasible`,
`solve_feasible` against enumerated matchings, canonical extraction against
a brute-force greedy over them, installs on a used network, the kept-copy
patch included, against installs on new networks, and improvement searches
with the mask test against searches without it."""

from __future__ import annotations

import copy
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


def _partition(draw, sizes: list[int]) -> list[int]:
    """A balanced matching: the objects dealt in a drawn order."""
    objects = draw(st.permutations(range(sum(sizes))))
    bundles, k = [], 0
    for size in sizes:
        bundles.append(sum(1 << j for j in objects[k : k + size]))
        k += size
    return bundles


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
    bundles = _partition(draw, sizes)
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
def test_an_install_from_a_matching_agrees_with_path_augmentation(case):
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    started = ExchangeFlow(sizes, n_objects=m)
    solved = ExchangeFlow(sizes, n_objects=m)
    assert started.install(attractive, allowed, lo, hi, bundles)
    assert solved.install(attractive, allowed, lo, hi)
    assert solved.solve_feasible()
    assert _dictatorship(started, order) == _dictatorship(solved, order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching())
def test_a_pass_over_its_own_promises_repeats_itself(case):
    """The lemma behind the mechanism's skipped passes: a second pass over
    the same allowed masks, from the first pass's matching with its promises
    as lower bounds, gives the same promises and canonical matching."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    flow = ExchangeFlow(sizes, n_objects=m)
    assert flow.install(attractive, allowed, lo, hi, bundles)
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
    flow = ExchangeFlow(sizes, n_objects=m)
    assert flow.install(attractive, allowed, lo, hi)
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
    flow = ExchangeFlow(sizes, n_objects=m)
    assert flow.install(attractive, allowed, lo, hi, bundles)
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
        flow = ExchangeFlow(sizes, n_objects=m)
        if solved:
            assert flow.install(attractive, allowed, lo, hi) and flow.solve_feasible()
        else:
            assert flow.install(attractive, allowed, lo, hi, bundles)
        for i in order[:dictators]:
            flow.maximize(i)
            flow.freeze(i)
        networks.append(flow)
    fast, slow = networks
    assert fast.extract_canonical(order) == _extract_by_search(slow, order)
    assert fast.matching() == slow.matching()


def test_extraction_searches_on_a_sparse_scale_market(monkeypatch):
    """The residual searches of the one extraction of a run on a 24-agent
    market with sparse attractive sets: how many, and how many found a path."""
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
    # one extraction, of the final pass
    assert len(searches) == 71
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
    assert (len(searches["extract"]), sum(searches["extract"])) == (180, 165)
    assert (len(searches["maximize"]), sum(searches["maximize"])) == (123, 123)
    assert searches["can_improve"] == []


def test_an_install_rejects_a_matching_that_breaks_the_constraints():
    # agent 0 owns object 0 (attractive to it), agent 1 owns object 1
    def install(lo, bundles, allowed=(0b01, 0b11)):
        flow = ExchangeFlow([1, 1], n_objects=2)
        return flow.install([0b01, 0b01], list(allowed), lo, None, bundles)

    assert install([1, 0], [0b01, 0b10])
    assert not install([1, 0], [0b10, 0b01])  # outside agent 0's allowed set
    assert not install([0, 1], [0b01, 0b10])  # below agent 1's lower bound
    assert not install([0, 0], [0b11, 0b00])  # not one object per agent
    assert not install([0, 0], [0b01, 0b01], allowed=(0b01, 0b01))


def test_an_install_on_a_used_network_rejects_what_a_new_one_rejects():
    """An install from a matching under its own bounds, on a network that
    held another system, takes its lower bounds from the matching, then
    judges it as an install with those bounds judges it on a new network."""
    shared = ExchangeFlow([1, 1], n_objects=2)
    assert shared.install([0b10, 0b10], [0b11, 0b11], [0, 0], None, [0b10, 0b01])
    for allowed, bundles in (
        ((0b01, 0b11), [0b01, 0b10]),
        ((0b01, 0b11), [0b10, 0b01]),  # outside agent 0's allowed set
        ((0b11, 0b11), [0b11, 0b00]),  # not one object per agent
        ((0b01, 0b01), [0b01, 0b01]),  # one object twice
        ((0b11, 0b11), [0b10, 0b01]),
    ):
        lo = [_popcount(b & 0b01) for b in bundles]
        fresh = ExchangeFlow([1, 1], n_objects=2)
        verdict = fresh.install([0b01, 0b01], list(allowed), lo, None, bundles)
        assert shared.install([0b01, 0b01], list(allowed), bundles=bundles) == verdict
        if verdict:
            assert shared.dump() == fresh.dump()
            assert shared.cap == fresh.cap and shared.queries == 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching(), st.data())
def test_restart_installs_what_a_new_network_starts_from(case, data):
    """An install from a matching under its own bounds on a network that has
    pushed flow, pinned objects, frozen edges and counted queries, against an
    install with those bounds on a new network: the same verdict and, when
    the matching fits, the same network, with no query counted, and the same
    pass on it."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    used = ExchangeFlow(sizes, n_objects=m)
    assert used.install(attractive, allowed, lo, hi, bundles)
    _dictatorship(used, order)
    assert used.queries and used.pinned and any(used.frozen)
    full = (1 << m) - 1
    mine = _partition(data.draw, sizes)
    if data.draw(st.booleans()):  # perhaps no longer balanced
        mine[data.draw(st.integers(0, len(sizes) - 1))] = data.draw(st.integers(0, full))
    attractive = [data.draw(st.integers(0, full)) for _ in sizes]
    allowed = []
    for b in mine:  # most of them around the matching's bundles
        extra = data.draw(st.integers(0, full))
        allowed.append(b | extra if data.draw(st.booleans()) else extra)
    lo = [_popcount(b & a) for b, a in zip(mine, attractive)]
    fresh = ExchangeFlow(sizes, n_objects=m)
    verdict = fresh.install(attractive, allowed, lo, None, mine)
    assert used.install(attractive, allowed, bundles=mine) == verdict
    if verdict:
        assert used.dump() == fresh.dump()
        for name in ("cap", "held", "holder", "allow", "frozen", "pinned"):
            assert getattr(used, name) == getattr(fresh, name), name
        assert used.queries == fresh.queries == 0
        assert _dictatorship(used, order) == _dictatorship(fresh, order)


def test_a_misreport_search_builds_one_network(monkeypatch):
    """A witness-free strategy-proofness audit builds one network, on which
    the truthful run and every misreport run install; agents whose truthful
    bundle no bundle of their size beats run no reports, and the others run
    only the reports whose A ∪ B holds more of some class prefix than the
    truthful bundle does."""
    builds, installs = [], []
    build, install = ExchangeFlow.__init__, ExchangeFlow.install

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    def counting_install(self, *args, **kwargs):
        installs.append(1)
        return install(self, *args, **kwargs)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "install", counting_install)
    strong = DomainSpec.strongly_trichotomous()
    instance = make_instance([2, 1, 1])
    prefs = random_profile(instance, random.Random(5), strongly=True)
    assert check_strategy_proofness(instance, prefs, strong) is None
    assert len(builds) == 1
    assert len(installs) == 1  # the truthful run; every agent's bundle is unbeatable
    builds.clear()
    installs.clear()
    instance = make_instance([2, 2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", frozenset({"o1", "o4"}), frozenset({"o2"})),
        "a2": TrichotomousPreference("a2", frozenset({"o1", "o4"}), frozenset({"o3"})),
        "a3": TrichotomousPreference("a3", frozenset({"o2"}), frozenset({"o5"})),
    }
    assert check_strategy_proofness(instance, prefs, strong) is None
    assert len(builds) == 1
    # the truthful run and 15 misreports per agent: each agent misses one
    # attractive object, and 16 of its 32 reports hold it in A ∪ B
    assert len(installs) == 46


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
    # reading the trace installs one new network from the held matching of
    # each earlier pass; here the final pass was skipped, so there is one
    assert len(trace.rounds) == 3
    assert len(builds) == 2
    assert solves == []


_STATE = (
    "allowed_a", "allowed_b", "allow", "cap", "held", "holder",
    "contested", "frozen", "pinned", "queries",
)


@st.composite
def install_sequences(draw):
    """1-5 agents and at most 10 objects; the first matching and masks a
    shared network installs from, then installs from that matching with each
    agent's masks kept or redrawn, from another balanced matching, or from an
    unbalanced one.  A redrawn allowed mask may leave its agent's bundle."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=5))
    full = (1 << sum(sizes)) - 1
    first = _partition(draw, sizes)

    def masks(bundles, kept=None):
        attractive, allowed = [], []
        for i, bundle in enumerate(bundles):
            if kept is not None and draw(st.booleans()):
                attractive.append(kept[0][i])
                allowed.append(kept[1][i])
                continue
            attractive.append(draw(st.integers(0, full)))
            extra = draw(st.integers(0, full))
            allowed.append(extra if kept is not None and draw(st.integers(0, 5)) == 0 else bundle | extra)
        return attractive, allowed

    home = masks(first)
    steps = [(first, *home)]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["same", "same", "same", "other", "unbalanced"]))
        if kind == "same":
            steps.append((first, *masks(first, home)))
            continue
        bundles = _partition(draw, sizes) if kind == "other" else list(first)
        if kind == "unbalanced":
            bundles[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(0, full))
        steps.append((bundles, *masks(bundles, home)))
    return sizes, steps


def _over_kept_state(flow: ExchangeFlow, i: int) -> bool:
    """Whether agent i's tiers hold objects as `_install_agent` installs it:
    so they do in a patch over the kept state, which holds the matching, and
    not in a full install, which empties every tier first."""
    return bool(flow.held[flow.tier_a0 + i] | flow.held[flow.tier_b0 + i])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(install_sequences(), st.data())
def test_a_restart_from_the_kept_matching_reinstalls_only_the_changed_agents(case, data):
    """Installs from a matching under its own bounds in sequence on one
    network, each followed by a pass that moves flow, pins objects, freezes
    edges and counts queries: the same verdict as a new network's first such
    install of the same system and, when it fits, the same state in every
    field and the same pass.  An install from the first accepted matching
    reinstalls only the agents whose masks differ from that install's, over
    the kept state; one from any other matching installs every agent in
    full."""
    sizes, steps = case
    n, m = len(sizes), sum(sizes)
    shared = ExchangeFlow(sizes, n_objects=m)
    agents = []  # (agent, whether installed over the kept state)
    install_agent = shared._install_agent
    shared._install_agent = lambda i, *args: (
        agents.append((i, _over_kept_state(shared, i))) or install_agent(i, *args)
    )
    kept = None  # the first accepted install's matching and masks
    for bundles, attractive, allowed in steps:
        fresh = ExchangeFlow(sizes, n_objects=m)
        verdict = fresh.install(attractive, allowed, bundles=bundles)
        agents.clear()
        assert shared.install(attractive, allowed, bundles=bundles) == verdict
        if not verdict:
            continue
        if kept is None or bundles != kept[0]:
            assert agents == [(i, False) for i in range(n)]
        else:
            assert agents == [
                (i, True)
                for i in range(n)
                if (attractive[i], allowed[i]) != (kept[1][i], kept[2][i])
            ]
        if kept is None:
            kept = (bundles, attractive, allowed)
        for name in _STATE:
            assert getattr(shared, name) == getattr(fresh, name), name
        order = data.draw(st.permutations(range(n)))
        assert _dictatorship(shared, order) == _dictatorship(fresh, order)


def test_an_install_with_explicit_bounds_neither_takes_nor_uses_the_kept_copy():
    """Only an install from a matching under its own bounds keeps a copy or
    copies one back.  After an install with a lower bound below the
    matching's counts, an install of the same system from the same matching
    under its own bounds is the full install a new network makes; after that
    one keeps its copy, the install with the explicit bound again sets that
    bound."""
    attractive, allowed, bundles = [0b11, 0b11], [0b11, 0b11], [0b01, 0b10]

    def network(*bounds):
        flow = ExchangeFlow([1, 1], n_objects=2)
        assert flow.install(attractive, allowed, *bounds, bundles=bundles)
        return flow

    shared = network([0, 0])
    assert shared.install(attractive, allowed, bundles=bundles)
    assert shared.cap == network().cap
    assert shared.install(attractive, allowed, [0, 0], bundles=bundles)
    assert shared.cap == network([0, 0]).cap != network().cap


@st.composite
def pinned_networks(draw):
    """A network installed from a matching, with some agents maximized, the
    lower bounds perhaps raised to the counts held (as `retarget` does),
    some agents frozen and some objects pinned where they are."""
    (sizes, attractive, allowed, lo, hi, m), bundles, order = draw(systems_with_a_matching())
    flow = ExchangeFlow(sizes, n_objects=m)
    assert flow.install(attractive, allowed, lo, hi, bundles)
    for i in order[: draw(st.integers(0, len(sizes)))]:
        flow.maximize(i)
    if draw(st.booleans()):
        flow.retarget(list(flow.allowed_b))
    for i in order[: draw(st.integers(0, len(sizes)))]:
        flow.freeze(i)
    flow.pinned = draw(st.integers(0, (1 << m) - 1))
    return flow


def _contested(flow: ExchangeFlow) -> int:
    """The objects that two or more tier nodes allow, by counting."""
    tiers = range(flow.tier_a0, flow.free)
    return sum(
        1 << j for j in range(flow.m) if sum(flow.allow[t] >> j & 1 for t in tiers) >= 2
    )


def _search_cycle(flow: ExchangeFlow, i: int):
    """A residual path closing a cycle through agent i's tier edge, searched
    for whenever the edge has room, with no mask test first."""
    eid = flow.tier_edge_a[i]
    if flow.cap[eid] <= 0:
        return None
    return flow._find_path(flow.tier_a0 + i, flow.agent0 + i, skip_pair=eid >> 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pinned_networks())
def test_improvement_searches_stop_only_where_no_cycle_exists(flow):
    """For every agent i, `can_improve` gives the answer of a search without
    the mask test, and searches exactly when the tier edge's residuals do not
    tell and i's bearable tier holds an unpinned object that two tiers allow."""
    assert flow.contested == _contested(flow)
    searches: list[int] = []
    find_path = flow._find_path
    flow._find_path = lambda *args, **kwargs: searches.append(1) or find_path(*args, **kwargs)
    for i in range(flow.n):
        eid = flow.tier_edge_a[i]
        want = flow.cap[eid ^ 1] > 0 or _search_cycle(flow, i) is not None
        enterable = flow.held[flow.tier_b0 + i] & _contested(flow) & ~flow.pinned
        searched = flow.cap[eid ^ 1] <= 0 and flow.cap[eid] != 0 and enterable != 0
        before = len(searches)
        assert flow.can_improve(i) == want
        assert len(searches) - before == searched


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pinned_networks())
def test_maximize_with_the_mask_test_pushes_the_same_cycles(fast):
    """`maximize` of each agent in turn, which skips the search once the
    agent's bearable tier holds no unpinned contested object, against
    pushing every cycle that a search without the mask test finds: the same
    count and the same arrays."""
    slow = copy.deepcopy(fast)
    for i in range(fast.n):
        count = fast.maximize(i)
        while (path := _search_cycle(slow, i)) is not None:
            path[0].append(slow.tier_edge_a[i])
            slow._push(path)
        assert count == slow.tier_count(i)
        for name in ("cap", "held", "holder", "allow", "pinned"):
            assert getattr(fast, name) == getattr(slow, name), name


def test_a_strong_misreport_search_installs_once_and_patches_one_agent(monkeypatch):
    """A strongly trichotomous 3-agent market audited for strategy-proofness
    on its domain: one network, whose first install, the truthful run's, is
    its one full install; every misreport run copies that install back and
    reinstalls the one misreporting agent.  The residual searches, which the
    mask test thins, are pinned."""
    instance = make_instance([2, 2, 1])  # a1: o1 o2, a2: o3 o4, a3: o5
    prefs = {
        "a1": TrichotomousPreference("a1", frozenset({"o2", "o4"}), frozenset({"o1"})),
        "a2": TrichotomousPreference("a2", frozenset({"o1", "o4"}), frozenset({"o3"})),
        "a3": TrichotomousPreference("a3", frozenset({"o1", "o2", "o4"}), frozenset({"o5"})),
    }
    counts = {"install": 0, "full install": 0, "patched agent": 0, "search": 0}
    install, install_agent = ExchangeFlow.install, ExchangeFlow._install_agent
    find_path = ExchangeFlow._find_path
    agents: list[bool] = []  # per agent the current install installs, whether over kept state

    def counting_install(self, *args, **kwargs):
        counts["install"] += 1
        agents.clear()
        try:
            return install(self, *args, **kwargs)
        finally:
            counts["full install"] += agents == [False] * self.n
            counts["patched agent"] += sum(agents)

    def counting_install_agent(self, i, *args):
        agents.append(_over_kept_state(self, i))
        return install_agent(self, i, *args)

    def counting_find_path(self, *args, **kwargs):
        counts["search"] += 1
        return find_path(self, *args, **kwargs)

    monkeypatch.setattr(ExchangeFlow, "install", counting_install)
    monkeypatch.setattr(ExchangeFlow, "_install_agent", counting_install_agent)
    monkeypatch.setattr(ExchangeFlow, "_find_path", counting_find_path)
    assert check_strategy_proofness(instance, prefs, DomainSpec.strongly_trichotomous()) is None
    # the truthful run and the misreports of a2 and a3, whose bundles some
    # bundle beats: a2's 15 that hold o1 in A ∪ B and a3's 27 that hold one of
    # o1, o2 and o4.  Installing every run in full and searching without the
    # mask test, the same audit makes 43 full installs and 114 searches.
    assert counts == {"install": 43, "full install": 1, "patched agent": 42, "search": 73}

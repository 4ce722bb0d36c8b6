"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Exhaustive sweeps follow the documented bounds; randomized parts
are seeded and deterministic.
"""

from __future__ import annotations

import itertools
import random
import time

from balex.audits import (
    check_strategy_proofness,
    check_truncation_proofness,
    efficient_ir_set,
    trichotomous_reports,
    unambiguously_efficient,
    unambiguously_in_weak_core,
    find_efficient_core_matching,
)
from balex.cycles import apply_cycle, decompose, distance, find_cir_pareto_improving_cycle
from balex.fixtures import load_fixture
from balex.generate import random_market
from balex.flownet import ExchangeFlow
from balex.mechanism import _final_masks, run_ir_priority
from balex.model import TrichotomousPreference
from balex.optimize import (
    InfeasibleError,
    WelfareConstraints,
    brute_force_max,
    enumerate_matchings,
    max_attractive,
)
from balex.responsive import (
    build_punishing_extension,
    cir_trichotomous,
    cir_violation,
    is_component_wise_IR,
)
from conftest import make_instance, random_matching, random_profile

SHAPES_3 = [s for s in itertools.product((1, 2), repeat=3)]
SHAPES_LE3 = (
    [(1,), (2,)]
    + [s for s in itertools.product((1, 2), repeat=2)]
    + SHAPES_3
)


def _report(criterion: int, elapsed: float, budget: float, message: str) -> None:
    assert elapsed <= budget, f"criterion {criterion} exceeded its {budget:.0f}s budget"
    print(f"\ncriterion {criterion:2d} PASS ({elapsed:6.1f}s / {budget:.0f}s): {message}")


def test_criterion_01_unambiguous_ir_equivalence():
    """CIR verdict <=> no punishing extension defeats IR, exhaustively per agent
    over every trichotomous preference and bundle of the 3-agent <=2-object
    instance family, plus a sampled whole-profile assembly layer."""
    start = time.perf_counter()
    pairs = 0
    for sizes in SHAPES_3:
        inst = make_instance(list(sizes))
        objects = inst.object_ids
        for agent in inst.agents:
            endow = inst.endowment[agent]
            t = len(endow)
            for pref in trichotomous_reports(inst, agent):
                marg = pref.to_classes(inst.objects)
                punishers = {
                    pivot: build_punishing_extension(marg, pivot, t)
                    for pivot in sorted(endow)
                }
                omega_scores = {p: e.score(endow) for p, e in punishers.items()}
                acceptable = pref.acceptable()
                base = len(endow & pref.attractive)
                for combo in itertools.combinations(objects, t):
                    bundle = frozenset(combo)
                    cir = (not bundle - acceptable) and len(bundle & pref.attractive) >= base
                    defeated = any(
                        punishers[p].score(bundle) < omega_scores[p] for p in punishers
                    )
                    assert cir == (not defeated), (sizes, agent, pref, bundle)
                    pairs += 1
    # assembly layer: profiles glued back together, all matchings
    rng = random.Random(2026)
    inst = make_instance([2, 2, 2])
    matchings = tuple(enumerate_matchings(inst, 6))
    for _ in range(150):
        prefs = random_profile(inst, rng)
        margs = {a: prefs[a].to_classes(inst.objects) for a in inst.agents}
        for mu in matchings:
            cir = is_component_wise_IR(inst, mu, margs)
            defeated = False
            for a in inst.agents:
                t = len(inst.endowment[a])
                for pivot in sorted(inst.endowment[a]):
                    ext = build_punishing_extension(margs[a], pivot, t)
                    if ext.score(mu.assignment[a]) < ext.score(inst.endowment[a]):
                        defeated = True
                        break
                if defeated:
                    break
            assert cir == (not defeated)
    _report(
        1,
        time.perf_counter() - start,
        60,
        f"unambiguous-IR equivalence on {pairs} exhaustive per-agent configurations "
        "+ 150 assembled profiles x 90 matchings",
    )


def test_criterion_02_decomposition_reexecution():
    """Cycle decompositions are object-disjoint and re-execute to the target."""
    start = time.perf_counter()
    rng = random.Random(2027)
    cache: dict[tuple[int, ...], object] = {}
    for _ in range(10_000):
        sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        inst = cache.get(sizes)
        if inst is None:
            inst = cache.setdefault(sizes, make_instance(list(sizes)))
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
    _report(2, time.perf_counter() - start, 60, "10^4 random (mu, nu) decompositions")


def test_criterion_03_cycle_vs_brute_efficiency():
    """Cycle-mode efficiency equals the brute-force dominance verdict on every
    CIR matching of 200 seeded profiles with at most 8 objects."""
    start = time.perf_counter()
    rng = random.Random(2028)
    profiles = 0
    checked = 0
    while profiles < 200:
        n = rng.randint(2, 4)
        sizes = [rng.randint(1, 2) for _ in range(n)]
        if sum(sizes) > 8:
            continue
        inst = make_instance(sizes)
        prefs = random_profile(inst, rng)
        profiles += 1
        for mu in enumerate_matchings(inst, 8):
            if not cir_trichotomous(inst, mu, prefs):
                continue
            checked += 1
            assert unambiguously_efficient(
                inst, mu, prefs, mode="cycle"
            ) == unambiguously_efficient(inst, mu, prefs, mode="brute")
    _report(
        3,
        time.perf_counter() - start,
        300,
        f"cycle vs brute efficiency on {checked} CIR matchings over 200 profiles",
    )


def test_criterion_04_mechanism_ir_and_efficiency():
    """Mechanism output is CIR and unambiguously efficient on all trichotomous
    fixtures and 10^3 random instances; the outer loop elicits everyone within
    n rounds."""
    start = time.perf_counter()
    for name in ("thm4-base", "thm4-p2", "thm4-p3", "thm4-p3x",
                 "core-unit-demand", "no-pe-core", "core-tricho-unit"):
        fx = load_fixture(name)
        final, trace = run_ir_priority(fx.instance, fx.prefs)
        assert cir_trichotomous(fx.instance, final, fx.prefs)
        assert find_cir_pareto_improving_cycle(fx.instance, final, fx.prefs) is None
        assert unambiguously_efficient(
            fx.instance, final, fx.prefs, mode="brute",
            bound=len(fx.instance.objects),
        )
        assert trace.rounds[-1].non_improvable == frozenset(fx.instance.agents)
    rng = random.Random(2029)
    for _ in range(1000):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 5))])
        prefs = random_profile(inst, rng)
        final, trace = run_ir_priority(inst, prefs)
        assert cir_trichotomous(inst, final, prefs)
        assert find_cir_pareto_improving_cycle(inst, final, prefs) is None
        n = len(inst.agents)
        assert len(trace.rounds) - 1 <= n  # outer rounds, excluding the final pass
        assert trace.rounds[-1].non_improvable == frozenset(inst.agents)
        for a in inst.agents:
            assert len(final.assignment[a] & prefs[a].attractive) >= len(
                inst.endowment[a] & prefs[a].attractive
            )
    _report(4, time.perf_counter() - start, 300,
            "mechanism IR + efficiency on 7 fixtures and 10^3 random instances")


def test_criterion_05_flow_oracle_equivalence():
    """max_attractive agrees with brute_force_max on 10^3 random queries."""
    start = time.perf_counter()
    rng = random.Random(2030)
    agree = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 2) for _ in range(n)]
        if sum(sizes) > 8:
            sizes = sizes[: 4]
        inst = make_instance(sizes)
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
        constraints = WelfareConstraints(
            allowed=allowed, attractive=attractive,
            min_attractive=mins, exact_attractive=exact,
        )
        target = rng.choice(inst.agents)
        try:
            kb, _ = brute_force_max(inst, constraints, target)
        except InfeasibleError:
            kb = None
        try:
            kf, wf = max_attractive(inst, constraints, target)
        except InfeasibleError:
            kf = None
        assert kb == kf
        if kf is not None:
            assert len(wf.assignment[target] & attractive[target]) == kf
        agree += 1
    _report(5, time.perf_counter() - start, 120, f"{agree} flow vs oracle queries")


def test_criterion_06_strongly_trichotomous_strategy_proofness():
    """Exhaustive strategy-proofness over the strongly trichotomous profile
    space of every instance with <=3 agents x <=2 objects each: zero witnesses.

    On this domain the outer loop never changes the bearable maps, so the
    mechanism equals a single refinement pass; that equality is re-verified on
    every 512th profile with the full outer-loop implementation."""
    start = time.perf_counter()
    profiles_total = 0
    comparisons = 0
    crosschecks = 0
    for sizes in SHAPES_LE3:
        inst = make_instance(list(sizes))
        n = len(sizes)
        m = len(inst.object_ids)
        full = (1 << m) - 1
        endow = list(inst.endowment_masks)
        size_list = list(inst.sizes)
        span = 1 << (m * n)
        outcomes: list[tuple[int, ...]] = [()] * span
        flow = ExchangeFlow(size_list, n_objects=m)  # each profile's pass installs on it
        for code in range(span):
            amasks = [(code >> (m * i)) & full for i in range(n)]
            bmasks = [endow[i] & ~amasks[i] for i in range(n)]
            # the audits' entry: one pass, extracted, on a strong profile
            outcomes[code] = tuple(_final_masks(flow, amasks, bmasks, endow))
            if code % 512 == 0:
                prefs = {
                    a: TrichotomousPreference(
                        a,
                        inst.unmask(amasks[i]),
                        inst.unmask(endow[i] & ~amasks[i]),
                    )
                    for i, a in enumerate(inst.agents)
                }
                final, _ = run_ir_priority(inst, prefs)
                assert all(
                    inst.mask(final.assignment[a]) == outcomes[code][i]
                    for i, a in enumerate(inst.agents)
                )
                crosschecks += 1
        profiles_total += span
        for code in range(span):
            bundles = outcomes[code]
            for i in range(n):
                amask = (code >> (m * i)) & full
                truth = (bundles[i] & amask).bit_count()
                cleared = code & ~(full << (m * i))
                for mis in range(full + 1):
                    if mis == amask:
                        continue
                    other = outcomes[cleared | (mis << (m * i))][i]
                    comparisons += 1
                    assert (other & amask).bit_count() <= truth, (
                        sizes, code, i, mis,
                    )
    _report(
        6,
        time.perf_counter() - start,
        600,
        f"zero profitable misreports in {comparisons} comparisons over "
        f"{profiles_total} strongly trichotomous profiles ({crosschecks} "
        "outer-loop cross-checks)",
    )


def test_criterion_07_trichotomous_manipulability_and_truncation_proofness():
    """The trichotomous 4-agent family admits a profitable misreport; bearable-
    set-only misreports never profit on 500 random instances."""
    start = time.perf_counter()
    witnesses = []
    for name in ("thm4-base", "thm4-p2", "thm4-p3", "thm4-p3x"):
        fx = load_fixture(name)
        w = check_strategy_proofness(fx.instance, fx.prefs)
        if w is not None:
            witnesses.append((name, w))
            out, _ = run_ir_priority(fx.instance, {**fx.prefs, w.agent: w.misreport})
            assert out.assignment[w.agent] == w.misreport_bundle
            assert w.certificate.score(w.misreport_bundle) > w.certificate.score(
                w.truthful_bundle
            )
    assert witnesses, "the 4-agent fixture family must expose a manipulation"
    rng = random.Random(2031)
    for _ in range(500):
        n = rng.randint(2, 4)
        sizes = [rng.randint(1, 2) for _ in range(n)]
        while sum(sizes) > 6:
            sizes[sizes.index(2)] = 1
        inst = make_instance(sizes)
        prefs = random_profile(inst, rng)
        assert check_truncation_proofness(inst, prefs) is None
    _report(
        7,
        time.perf_counter() - start,
        600,
        f"manipulation witnesses at {[name for name, _ in witnesses]}; "
        "zero truncation witnesses on 500 instances",
    )


def test_criterion_08_fixture_regression():
    """The introductory example, the 4-agent table, no-pe-core and the
    unit-demand core example reproduce exactly."""
    start = time.perf_counter()
    fx = load_fixture("example1")
    cir = [
        m
        for m in enumerate_matchings(fx.instance, 6)
        if is_component_wise_IR(fx.instance, m, fx.prefs)
    ]
    assert cir == [fx.instance.endowment_matching()]
    assert not unambiguously_efficient(
        fx.instance, fx.instance.endowment_matching(), fx.prefs, mode="brute"
    )
    assert cir_violation(fx.instance, fx.expected["famous_matching"], fx.prefs) == ("2", "p1")

    fx = load_fixture("thm4-base")
    got = efficient_ir_set(fx.instance, fx.prefs)
    assert {m.key(fx.instance) for m in got} == {
        m.key(fx.instance) for m in fx.expected["efficient_ir_set"]
    }
    final, _ = run_ir_priority(fx.instance, fx.prefs)
    assert final == fx.expected["mechanism_output"]

    fx = load_fixture("no-pe-core")
    got = efficient_ir_set(fx.instance, fx.prefs)
    assert {m.key(fx.instance) for m in got} == {
        m.key(fx.instance) for m in fx.expected["efficient_ir_set"]
    }
    assert len(got) == 4
    for mu in got:
        assert unambiguously_in_weak_core(fx.instance, mu, fx.prefs) is not None

    fx = load_fixture("core-unit-demand")
    omega = fx.instance.endowment_matching()
    assert unambiguously_in_weak_core(fx.instance, omega, fx.prefs) is None
    assert not unambiguously_efficient(fx.instance, omega, fx.prefs, mode="brute")
    _report(8, time.perf_counter() - start, 60, "all four fixture families exact")


def test_criterion_09_efficient_weak_core_existence():
    """Efficient weak-core matchings exist on 200 random strict-acceptability
    instances (n <= 4); exhaustively on the strongly trichotomous space of the
    <=3-agent <=2-object family, every CIR + efficient matching is in the core."""
    start = time.perf_counter()
    rng = random.Random(2032)
    for _ in range(200):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 2) for _ in range(n)]
        inst = make_instance(sizes)
        prefs = random_profile(inst, rng)
        mu = find_efficient_core_matching(inst, prefs)
        assert mu is not None, "no unambiguously efficient weak-core matching found"
        assert cir_trichotomous(inst, mu, prefs)
        assert unambiguously_efficient(inst, mu, prefs, mode="cycle")
        assert unambiguously_in_weak_core(
            inst, mu, prefs, strict_acceptability=True
        ) is None

    profiles_total = 0
    for sizes in SHAPES_LE3:
        inst = make_instance(list(sizes))
        n = len(sizes)
        m = len(inst.object_ids)
        full = (1 << m) - 1
        endow = list(inst.endowment_masks)
        size_list = list(inst.sizes)
        matchings = [
            tuple(inst.mask(mu.assignment[a]) for a in inst.agents)
            for mu in enumerate_matchings(inst, 6)
        ]
        agent_idx = list(range(n))
        coalitions = []
        for r in range(1, n + 1):
            for combo in itertools.combinations(agent_idx, r):
                pool = 0
                for i in combo:
                    pool |= endow[i]
                pool_objs = [o for o in range(m) if pool >> o & 1]
                cands = {
                    i: [
                        sum(1 << o for o in pick)
                        for pick in itertools.combinations(pool_objs, size_list[i])
                    ]
                    for i in combo
                }
                coalitions.append((combo, pool, cands))
        span = 1 << (m * n)
        profiles_total += span
        for code in range(span):
            amasks = [(code >> (m * i)) & full for i in range(n)]
            acc = [amasks[i] | endow[i] for i in range(n)]
            base = [(endow[i] & amasks[i]).bit_count() for i in range(n)]
            cir: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for bundles in matchings:
                vec = []
                ok = True
                for i in range(n):
                    b = bundles[i]
                    if b & ~acc[i]:
                        ok = False
                        break
                    cnt = (b & amasks[i]).bit_count()
                    if cnt < base[i]:
                        ok = False
                        break
                    vec.append(cnt)
                if ok:
                    cir.append((tuple(vec), bundles))
            vectors = {v for v, _ in cir}
            for vec, bundles in cir:
                if any(
                    w != vec and all(x >= y for x, y in zip(w, vec)) for w in vectors
                ):
                    continue  # welfare-dominated: not unambiguously efficient
                # efficient: assert no strict-acceptability block exists
                for combo, pool, cands in coalitions:
                    feasible = True
                    for i in combo:
                        avail = (pool & acc[i]).bit_count()
                        best = min(size_list[i], (pool & amasks[i]).bit_count())
                        if avail < size_list[i] or best <= vec[i]:
                            feasible = False
                            break
                    if not feasible:
                        continue
                    options = []
                    for i in combo:
                        opts = [
                            c
                            for c in cands[i]
                            if not c & ~acc[i]
                            and (c & amasks[i]).bit_count() > vec[i]
                        ]
                        options.append(opts)
                    assert not _disjoint_exists(options), (
                        "efficient matching strongly blocked under strict acceptability",
                        sizes, code, combo,
                    )
    _report(
        9,
        time.perf_counter() - start,
        600,
        f"200 random strict-acceptability instances + {profiles_total} exhaustive "
        "strongly trichotomous profiles with zero core violations",
    )


def _disjoint_exists(options: list[list[int]]) -> bool:
    def rec(i: int, used: int) -> bool:
        if i == len(options):
            return True
        for mask in options[i]:
            if not mask & used and rec(i + 1, used | mask):
                return True
        return False

    return rec(0, 0)


def test_criterion_10_performance_at_scale():
    """n = 50 agents with 200 objects completes well under 10 s (flow-based)."""
    instance, prefs = random_market(seed=2033, n_agents=50, exact_endowment=4)
    assert len(instance.objects) == 200
    start = time.perf_counter()
    final, trace = run_ir_priority(instance, prefs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    assert cir_trichotomous(instance, final, prefs)
    assert trace.flow_queries <= 2 * len(instance.agents) * len(trace.rounds)
    _report(
        10,
        elapsed,
        10,
        f"mechanism on 50 agents / 200 objects in {elapsed:.2f}s "
        f"({len(trace.rounds)} rounds, {trace.flow_queries} flow queries)",
    )

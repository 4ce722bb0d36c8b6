"""The priority mechanism: refinement passes, elicitation loop, trace, invariants."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balex.cycles import find_cir_pareto_improving_cycle
from balex.fixtures import FIXTURE_NAMES, load_fixture
from balex.flownet import ExchangeFlow
from balex.mechanism import (
    _final_masks,
    _resolve_rounds,
    _run_masks,
    _RunFailed,
    non_improvable_set,
    run_ir_priority,
    serial_refine,
    trace_to_json,
)
from balex.model import (
    Instance,
    Matching,
    MechanismInvariantError,
    NotTrichotomousError,
    TrichotomousPreference,
    ValidationError,
    trichotomous_profile,
)
from balex.responsive import cir_trichotomous, compare_unambiguous, BundleComparison
from conftest import (
    make_instance,
    oracle_mechanism,
    oracle_non_improvable,
    oracle_refine,
    random_profile,
)


def fs(*objs):
    return frozenset(objs)


def thm4():
    fx = load_fixture("thm4-base")
    return fx.instance, dict(fx.prefs)


def test_serial_refine_thm4_round0_matches_oracle_and_frozen_values():
    inst, prefs = thm4()
    A = {a: prefs[a].attractive for a in inst.agents}
    B0 = {a: inst.endowment[a] - A[a] for a in inst.agents}
    omega = inst.endowment_matching()
    got, promises = serial_refine(inst, A, B0, omega)
    oracle, oracle_promises = oracle_refine(inst, A, B0, omega)
    assert promises == oracle_promises == (1, 0, 1, 0)
    assert got == oracle
    assert {a: got.assignment[a] for a in inst.agents} == {
        "1": fs("q1"),
        "2": fs("p"),
        "3": fs("o", "q2"),
        "4": fs("r"),
    }


def test_serial_refine_thm4_round1_matches_oracle_and_frozen_values():
    inst, prefs = thm4()
    A = {a: prefs[a].attractive for a in inst.agents}
    B0 = {a: inst.endowment[a] - A[a] for a in inst.agents}
    B1 = dict(B0)
    B1["1"], B1["2"] = prefs["1"].bearable, prefs["2"].bearable
    mu1, _ = serial_refine(inst, A, B0, inst.endowment_matching())
    got, promises = serial_refine(inst, A, B1, mu1)
    oracle, oracle_promises = oracle_refine(inst, A, B1, mu1)
    assert promises == oracle_promises == (1, 0, 2, 1)
    assert got == oracle
    assert {a: got.assignment[a] for a in inst.agents} == {
        "1": fs("q1"),
        "2": fs("r"),
        "3": fs("o", "p"),
        "4": fs("q2"),
    }


def test_serial_refine_all_attractive_empty_keeps_endowment():
    inst = make_instance([2, 1])
    A = {a: fs() for a in inst.agents}
    B = {a: inst.endowment[a] for a in inst.agents}
    got, promises = serial_refine(inst, A, B, inst.endowment_matching())
    assert promises == (0, 0)
    assert got == inst.endowment_matching()


def test_serial_refine_rejects_non_cir_base():
    inst, prefs = thm4()
    A = {a: prefs[a].attractive for a in inst.agents}
    B0 = {a: inst.endowment[a] - A[a] for a in inst.agents}
    swapped = inst.endowment_matching().assignment | {
        "1": fs("p"),
        "2": fs("o"),
    }
    with pytest.raises(ValueError, match="CIR"):
        serial_refine(inst, A, B0, Matching(swapped))


def test_refinement_queries_refuse_an_unbalanced_matching():
    """A matching that moves one of agent 3's objects to agent 1 is bad input,
    a ValidationError, not a broken invariant of the mechanism."""
    inst, prefs = thm4()
    A = {a: prefs[a].attractive for a in inst.agents}
    B = {a: prefs[a].bearable for a in inst.agents}
    moved = {"1": fs("o", "q1"), "3": fs("q2")}
    unbalanced = Matching(inst.endowment_matching().assignment | moved)
    for query in (serial_refine, non_improvable_set):
        with pytest.raises(ValidationError, match="agent '1' gets 2 objects but is endowed with 1"):
            query(inst, A, B, unbalanced)


def test_non_improvable_set_thm4_round1():
    inst, prefs = thm4()
    A = {a: prefs[a].attractive for a in inst.agents}
    B0 = {a: inst.endowment[a] - A[a] for a in inst.agents}
    mu1, _ = serial_refine(inst, A, B0, inst.endowment_matching())
    bbar0 = {a: inst.objects - A[a] for a in inst.agents}
    got = non_improvable_set(inst, A, bbar0, mu1)
    assert got == fs("1", "2")
    assert got == oracle_non_improvable(inst, A, bbar0, mu1)


def test_non_improvable_everyone_at_structural_maximum():
    inst = make_instance([1, 1])
    A = {"a1": fs("o1"), "a2": fs("o2")}
    bbar = {a: inst.objects - A[a] for a in inst.agents}
    got = non_improvable_set(inst, A, bbar, inst.endowment_matching())
    assert got == fs("a1", "a2")


def test_non_improvable_set_growth_guarantee_on_random_instances():
    """Whenever some agent is still un-elicited, a new one becomes non-improvable."""
    rng = random.Random(31)
    for _ in range(60):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 4))])
        prefs = random_profile(inst, rng)
        _, trace = run_ir_priority(inst, prefs)
        seen: frozenset[str] = fs()
        for r in trace.rounds[:-1]:
            assert seen <= r.non_improvable
            assert r.non_improvable > seen or r.non_improvable == fs(*inst.agents)
            seen = r.non_improvable


def test_run_thm4_full_loop_frozen_values():
    inst, prefs = thm4()
    final, trace = run_ir_priority(inst, prefs)
    fx = load_fixture("thm4-base")
    assert final == fx.expected["mechanism_output"]
    assert len(trace.rounds) == fx.expected["trace_rounds"]
    assert trace.rounds[0].promises == fx.expected["round1_promises"]
    assert trace.rounds[0].mu == fx.expected["round1_matching"]
    assert trace.rounds[0].non_improvable == fx.expected["round1_non_improvable"]
    assert trace.rounds[1].promises == fx.expected["round2_promises"]
    assert trace.rounds[-1].non_improvable == fs(*inst.agents)
    assert trace.elicitation_round == {"1": 1, "2": 1, "3": 2, "4": 2}


def test_run_all_attractive_empty_returns_endowment():
    inst = make_instance([2, 1, 2])
    prefs = {
        a: TrichotomousPreference(a, fs(), inst.endowment[a]) for a in inst.agents
    }
    final, trace = run_ir_priority(inst, prefs)
    assert final == inst.endowment_matching()
    assert all(p == 0 for p in trace.rounds[-1].promises)


def test_run_matches_enumeration_oracle_on_random_instances():
    rng = random.Random(37)
    for _ in range(60):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
        prefs = random_profile(inst, rng)
        final, _ = run_ir_priority(inst, prefs)
        assert final == oracle_mechanism(inst, prefs)


def test_run_matches_enumeration_oracle_with_larger_endowments():
    rng = random.Random(38)
    for _ in range(20):
        while True:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            if sum(sizes) <= 8:
                break
        inst = make_instance(sizes)
        prefs = random_profile(inst, rng)
        final, _ = run_ir_priority(inst, prefs)
        assert final == oracle_mechanism(inst, prefs)


def test_strongly_trichotomous_collapses_to_single_pass():
    rng = random.Random(41)
    for _ in range(120):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
        prefs = random_profile(inst, rng, strongly=True)
        final, trace = run_ir_priority(inst, prefs)
        single, _ = serial_refine(
            inst,
            {a: prefs[a].attractive for a in inst.agents},
            {a: prefs[a].bearable for a in inst.agents},
            inst.endowment_matching(),
        )
        assert final == single
        for r in trace.rounds:
            assert r.mu == final
        # one pass, then n improvability checks per outer round
        n = len(inst.agents)
        assert trace.flow_queries == n + n * (len(trace.rounds) - 1)


def test_run_invariants_on_random_instances():
    rng = random.Random(43)
    for _ in range(80):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
        prefs = random_profile(inst, rng)
        final, trace = run_ir_priority(inst, prefs)
        # output CIR at the true profile
        assert cir_trichotomous(inst, final, prefs)
        # unambiguous efficiency via the cycle characterization
        assert find_cir_pareto_improving_cycle(inst, final, prefs) is None
        # componentwise welfare never drops below the endowment's
        for a in inst.agents:
            assert len(final.assignment[a] & prefs[a].attractive) >= len(
                inst.endowment[a] & prefs[a].attractive
            )
        # outer loop obeys the round bound; promises weakly rise round to round
        assert len(trace.rounds) <= len(inst.agents) + 1
        for earlier, later in zip(trace.rounds, trace.rounds[1:]):
            assert all(x <= y for x, y in zip(earlier.promises, later.promises))
        # query accounting for the bench criterion: n maximize queries per
        # pass, at most one pass per round, n improvability checks per outer round
        assert trace.flow_queries <= len(inst.agents) * (2 * len(trace.rounds) - 1)


def test_round_state_bearable_maps_reveal_true_sets_once_non_improvable():
    rng = random.Random(53)
    for _ in range(30):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 4))])
        prefs = random_profile(inst, rng)
        _, trace = run_ir_priority(inst, prefs)
        for r in trace.rounds:
            for a in inst.agents:
                if a in r.non_improvable:
                    assert r.bearable[a] == prefs[a].bearable
                    assert r.bearable_outer[a] == prefs[a].bearable
                else:
                    assert r.bearable[a] == inst.endowment[a] - prefs[a].attractive
                    assert r.bearable_outer[a] == inst.objects - prefs[a].attractive


def test_a_run_names_objects_only_for_its_matchings(monkeypatch):
    """Masks become object names once per agent and round, for the round's
    matching; the bearable maps reuse the profile's own sets."""
    inst, prefs = thm4()
    calls = []
    unmask = Instance.unmask

    def counting_unmask(self, mask):
        calls.append(mask)
        return unmask(self, mask)

    monkeypatch.setattr(Instance, "unmask", counting_unmask)
    _, trace = run_ir_priority(inst, prefs)
    assert len(trace.rounds) == 3
    assert len(calls) == 12


def test_a_run_names_its_rounds_only_when_the_trace_is_read(monkeypatch):
    """An unread trace costs the naming of the final matching alone; reading
    `rounds` names the outer rounds once and keeps them."""
    inst, prefs = thm4()
    calls = []
    unmask = Instance.unmask

    def counting_unmask(self, mask):
        calls.append(mask)
        return unmask(self, mask)

    monkeypatch.setattr(Instance, "unmask", counting_unmask)
    final, trace = run_ir_priority(inst, prefs)
    assert len(calls) == 4  # one bundle per agent, the final matching's
    rounds = trace.rounds
    assert len(calls) == 12
    assert trace.rounds is rounds
    assert rounds[-1].mu is final
    assert len(calls) == 12


def test_the_trace_keeps_the_profile_it_ran_on():
    """Rounds named after the caller replaced its profile entries still show
    the profile the run saw."""
    inst, prefs = thm4()
    _, named = run_ir_priority(inst, prefs)
    expected = json.dumps(trace_to_json(inst, named))
    _, trace = run_ir_priority(inst, prefs)
    for a in inst.agents:
        prefs[a] = TrichotomousPreference(a, fs(), inst.objects)
    assert json.dumps(trace_to_json(inst, trace)) == expected


def test_an_invariant_failure_carries_the_finished_rounds(monkeypatch):
    """Round 1 answers truthfully; from round 2 on every agent claims to
    improve, so the run fails there with round 1 named."""
    inst, prefs = thm4()
    _, trace = run_ir_priority(inst, prefs)
    calls = []
    can_improve = ExchangeFlow.can_improve

    def improvable_after_round_1(self, i):
        calls.append(i)
        return can_improve(self, i) if len(calls) <= len(inst.agents) else True

    monkeypatch.setattr(ExchangeFlow, "can_improve", improvable_after_round_1)
    with pytest.raises(MechanismInvariantError, match="at round 2") as info:
        run_ir_priority(inst, prefs)
    assert info.value.args[1] == [trace.rounds[0]]


def _kernel_cases() -> list[tuple[Instance, dict[str, TrichotomousPreference]]]:
    """Every trichotomous fixture and 200 random markets, with bearable extras."""
    cases = []
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        try:
            cases.append((fx.instance, trichotomous_profile(fx.instance, fx.prefs)))
        except NotTrichotomousError:
            continue
    rng = random.Random(71)
    for _ in range(200):
        inst = make_instance([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        cases.append((inst, random_profile(inst, rng)))
    return cases


def _kernel_args(inst: Instance, prefs) -> tuple[list[int], list[int], list[int]]:
    """The attractive, bearable and endowment masks `_run_masks` takes."""
    return (
        [inst.mask(prefs[a].attractive) for a in inst.agents],
        [inst.mask(prefs[a].bearable) for a in inst.agents],
        list(inst.endowment_masks),
    )


def test_the_kernel_is_the_run_on_masks():
    """_run_masks on the masked profile gives the wrapper's final matching,
    rounds, elicitation rounds (in the same order) and flow-query count, on
    every trichotomous fixture and on 200 random markets."""
    cases = _kernel_cases()
    multi_round = 0
    for inst, prefs in cases:
        agents = inst.agents
        final, trace = run_ir_priority(inst, prefs)
        sizes, m = list(inst.sizes), len(inst.object_ids)
        args = _kernel_args(inst, prefs)
        run = _run_masks(ExchangeFlow(sizes, n_objects=m), *args)
        bundles, rounds, elicited, queries = _resolved(sizes, m, args, run)
        assert bundles == [inst.mask(final.assignment[a]) for a in agents]
        assert len(rounds) == len(trace.rounds)
        for (masks, promises, non_improvable), named in zip(rounds, trace.rounds):
            assert masks == [inst.mask(named.mu.assignment[a]) for a in agents]
            assert tuple(promises) == named.promises
            assert named.non_improvable == {a for i, a in enumerate(agents) if non_improvable >> i & 1}
        assert [(agents[i], t) for i, t in elicited.items()] == list(trace.elicitation_round.items())
        assert queries == trace.flow_queries
        multi_round += len(rounds) > 2
    assert len(cases) > 200 and multi_round > 20


def _resolved(sizes, m, args, result):
    """A `_run_masks` result on the kernel arguments `args`, its kept rounds
    resolved to bundle masks, promises and non-improvable masks."""
    bundles, rounds, elicited, queries = result
    return bundles, _resolve_rounds(sizes, m, args[0], rounds), elicited, queries


def _ref_run_masks(sizes, a_masks, b_masks, endow, m):
    """The kernel as it was before passes over an unchanged system were
    skipped and earlier rounds extracted only when read, kept as the
    reference: every round, and the final pass, runs the serial dictatorship
    and extracts its canonical matching, on a network of its own.  A broken
    invariant raises _RunFailed with the finished rounds."""
    n = len(sizes)
    full = (1 << m) - 1
    b_floor = [e & ~a for e, a in zip(endow, a_masks)]
    b_ceil = [full & ~a for a in a_masks]
    everyone = (1 << n) - 1
    elicited = 0
    rounds = []
    elicitation_round = {}
    order = list(range(n))
    allowed = [a | b for a, b in zip(a_masks, b_floor)]
    flow = ExchangeFlow(sizes, n_objects=m)
    lo = [(e & a).bit_count() for e, a in zip(endow, a_masks)]
    assert flow.install(a_masks, allowed, lo, None, endow)

    def dictatorship():
        promises = []
        for i in order:
            promises.append(flow.maximize(i))
            flow.freeze(i)
        return promises

    for t in range(1, n + 1):
        promises = dictatorship()
        bundles = flow.extract_canonical(order)
        flow.retarget([b_masks[i] if elicited >> i & 1 else b_ceil[i] for i in order])
        non_improvable = 0
        for i in order:
            if not flow.can_improve(i):
                non_improvable |= 1 << i
        if elicited & ~non_improvable:
            raise _RunFailed(f"non-improvable set shrank at round {t}", rounds)
        if non_improvable == elicited and non_improvable != everyone:
            raise _RunFailed(f"non-improvable set failed to grow at round {t}", rounds)
        for i in order:
            if (non_improvable & ~elicited) >> i & 1:
                elicitation_round[i] = t
        elicited = non_improvable
        rounds.append((bundles, promises, elicited))
        flow.retarget([b_masks[i] if elicited >> i & 1 else b_floor[i] for i in order])
        if elicited == everyone:
            break
    else:
        raise AssertionError("reference kernel did not terminate")
    promises = dictatorship()
    bundles = flow.extract_canonical(order)
    rounds.append((bundles, promises, everyone))
    return bundles, rounds, elicitation_round, flow.queries


def test_the_kernel_skips_exactly_the_passes_that_would_repeat(monkeypatch):
    """_run_masks gives the reference kernel's bundles, rounds, promises and
    elicitation rounds on every case; each pass it skips saves the reference's
    n maximize queries.  The cases skip passes and run later ones."""
    from balex import mechanism

    passes = []
    dictatorship = mechanism._dictatorship

    def counting_dictatorship(flow):
        passes.append(1)
        return dictatorship(flow)

    monkeypatch.setattr(mechanism, "_dictatorship", counting_dictatorship)
    skipped = later_ran = 0
    for inst, prefs in _kernel_cases():
        sizes, m, n = list(inst.sizes), len(inst.object_ids), len(inst.agents)
        args = _kernel_args(inst, prefs)
        want = _ref_run_masks(sizes, *args, m)
        passes.clear()
        got = _resolved(sizes, m, args, _run_masks(ExchangeFlow(sizes, n_objects=m), *args))
        assert got[:3] == want[:3]
        assert want[3] - got[3] == n * (len(want[1]) - len(passes))
        skipped += len(want[1]) - len(passes)
        later_ran += len(passes) - 1
    assert skipped > 50 and later_ran > 150


def test_flow_queries_count_the_queries_asked():
    """A pass over an unchanged system is not asked again."""
    for name, queries in (("thm4-base", 16), ("no-pe-core", 9)):
        fx = load_fixture(name)
        _, trace = run_ir_priority(fx.instance, trichotomous_profile(fx.instance, fx.prefs))
        assert trace.flow_queries == queries


def test_a_shared_network_leaks_nothing_between_runs(monkeypatch):
    """Misreport profiles run in shuffled order on one network, between runs
    that stop with _RunFailed, give what they give on fresh networks."""
    rng = random.Random(83)
    can_improve = ExchangeFlow.can_improve
    for _ in range(12):
        inst = make_instance([rng.randint(1, 2) for _ in range(3)])
        sizes, m = list(inst.sizes), len(inst.object_ids)
        profiles = [_kernel_args(inst, random_profile(inst, rng)) for _ in range(12)]
        fresh = [
            _resolved(sizes, m, args, _run_masks(ExchangeFlow(sizes, n_objects=m), *args))
            for args in profiles
        ]
        shared = ExchangeFlow(sizes, n_objects=m)
        order = list(range(len(profiles)))
        rng.shuffle(order)
        for k in order:
            calls = []

            def improvable_after(self, i, _limit=rng.randint(0, 6)):
                calls.append(i)
                return can_improve(self, i) if len(calls) <= _limit else True

            monkeypatch.setattr(ExchangeFlow, "can_improve", improvable_after)
            try:
                _run_masks(shared, *profiles[rng.randrange(len(profiles))])
            except _RunFailed:
                pass
            monkeypatch.setattr(ExchangeFlow, "can_improve", can_improve)
            assert _resolved(sizes, m, profiles[k], _run_masks(shared, *profiles[k])) == fresh[k]


@st.composite
def strong_and_other_profiles(draw):
    """A market of 1-4 agents and at most 8 objects, a strongly trichotomous
    profile on it (each bearable set the endowment outside A) and two others
    in which, where some agent has an object outside its A and endowment,
    one such agent adds a non-empty bearable extra; as `_run_masks` arguments."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 8 // n), min_size=n, max_size=n))
    endow = list(make_instance(sizes).endowment_masks)
    full = (1 << sum(sizes)) - 1

    def profile(strong: bool):
        a_masks = [draw(st.integers(0, full)) for _ in sizes]
        b_masks = [e & ~a for a, e in zip(a_masks, endow)]
        pools = [full & ~(a | e) for a, e in zip(a_masks, endow)]
        roomy = [i for i in range(n) if pools[i]]
        if not strong and roomy:
            i = draw(st.sampled_from(roomy))
            b_masks[i] |= draw(st.integers(1, pools[i])) & pools[i] or pools[i]
        return a_masks, b_masks, endow

    return sizes, profile(True), [profile(False), profile(False)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(strong_and_other_profiles())
def test_a_strong_profile_runs_one_pass_with_the_kernels_outcome(case):
    """On a strongly trichotomous profile `_final_masks` runs one pass and
    gives the final bundles of the whole kernel, on a new network and on one
    shared with earlier runs of other profiles; the kernel raises on none of
    these profiles, and the other profiles' final bundles are the kernel's."""
    sizes, strong, others = case
    m = sum(sizes)
    want = _run_masks(ExchangeFlow(sizes, n_objects=m), *strong)[0]
    assert _final_masks(ExchangeFlow(sizes, n_objects=m), *strong) == want
    shared = ExchangeFlow(sizes, n_objects=m)
    for args in others:
        assert _final_masks(shared, *args) == _run_masks(ExchangeFlow(sizes, n_objects=m), *args)[0]
    assert _final_masks(shared, *strong) == want
    other = _run_masks(ExchangeFlow(sizes, n_objects=m), *others[0])[0]
    assert _final_masks(shared, *others[0]) == other


@st.composite
def misreport_sequences(draw):
    """A market of 1-4 agents and at most 8 objects, a truthful profile and
    misreports that each change one agent's report, strong (each bearable
    set the endowment outside A) or with extras; as `_run_masks` arguments."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 8 // n), min_size=n, max_size=n))
    endow = list(make_instance(sizes).endowment_masks)
    full = (1 << sum(sizes)) - 1

    def report(i):
        a = draw(st.integers(0, full))
        return a, endow[i] & ~a | (draw(st.integers(0, full)) & ~a if draw(st.booleans()) else 0)

    truth = [report(i) for i in range(n)]
    profiles = [truth]
    for _ in range(draw(st.integers(1, 6))):
        lie = list(truth)
        i = draw(st.integers(0, n - 1))
        lie[i] = report(i)
        profiles.append(lie)
    return sizes, [([a for a, _ in p], [b for _, b in p], endow) for p in profiles]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(misreport_sequences(), st.data())
def test_a_network_shared_by_misreport_runs_gives_what_new_ones_give(case, data):
    """The truthful profile, then one-agent misreports, each run on one
    shared network, whose first run's install later runs copy back, by
    `_final_masks` or by `_run_masks`: the same final bundles, rounds,
    elicitation rounds and flow-query count as on a new network."""
    sizes, profiles = case
    m = sum(sizes)
    shared = ExchangeFlow(sizes, n_objects=m)
    for args in profiles:
        if data.draw(st.booleans()):
            new = ExchangeFlow(sizes, n_objects=m)
            assert _final_masks(shared, *args) == _final_masks(new, *args)
        else:
            want = _resolved(sizes, m, args, _run_masks(ExchangeFlow(sizes, n_objects=m), *args))
            assert _resolved(sizes, m, args, _run_masks(shared, *args)) == want


def test_read_rounds_are_the_eagerly_extracted_rounds():
    """Every round a trace names, earlier ones extracted only when read, has
    the reference kernel's canonical bundles, promises and non-improvable
    agents, on every trichotomous fixture and on 200 random markets."""
    cases = _kernel_cases()
    earlier_passes = 0
    for inst, prefs in cases:
        agents = inst.agents
        sizes, m = list(inst.sizes), len(inst.object_ids)
        _, trace = run_ir_priority(inst, prefs)
        _, want, _, _ = _ref_run_masks(sizes, *_kernel_args(inst, prefs), m)
        got = [
            (
                [inst.mask(r.mu.assignment[a]) for a in agents],
                list(r.promises),
                sum(1 << i for i, a in enumerate(agents) if a in r.non_improvable),
            )
            for r in trace.rounds
        ]
        assert got == want
        assert trace.round_count == len(want)
        earlier_passes += len({id(kept) for kept, _ in trace._rounds}) - 1
    assert earlier_passes > 150


def test_a_failed_run_names_the_rounds_eager_extraction_names(monkeypatch):
    """A run stopped by _RunFailed, once every agent claims to improve after
    a random number of honest answers, carries finished rounds that resolve
    to the reference kernel's eagerly extracted ones, with its message."""
    rng = random.Random(89)
    can_improve = ExchangeFlow.can_improve
    failures = with_rounds = 0
    for inst, prefs in _kernel_cases():
        sizes, m = list(inst.sizes), len(inst.object_ids)
        args = _kernel_args(inst, prefs)
        limit = rng.randint(0, 2 * len(sizes))
        outcomes = []
        for kernel in (
            lambda: _ref_run_masks(sizes, *args, m),
            lambda: _run_masks(ExchangeFlow(sizes, n_objects=m), *args),
        ):
            calls = []

            def improvable_after(self, i):
                calls.append(i)
                return can_improve(self, i) if len(calls) <= limit else True

            monkeypatch.setattr(ExchangeFlow, "can_improve", improvable_after)
            try:
                kernel()
            except _RunFailed as exc:
                outcomes.append(exc.args)
            monkeypatch.setattr(ExchangeFlow, "can_improve", can_improve)
        if not outcomes:
            continue
        assert len(outcomes) == 2  # both kernels fail, or neither
        (want_message, want), (message, finished) = outcomes
        assert message == want_message
        assert _resolve_rounds(sizes, m, args[0], finished) == want
        failures += 1
        with_rounds += bool(want)
    assert failures > 100 and with_rounds > 30


def test_an_unread_trace_costs_one_extraction_on_one_network(monkeypatch):
    """A run extracts its final bundles alone, on the network it built;
    reading the trace extracts each earlier pass once, on a network of its
    own."""
    builds, extractions = [], []
    build, extract = ExchangeFlow.__init__, ExchangeFlow.extract_canonical

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    def counting_extract(self, order):
        extractions.append(1)
        return extract(self, order)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "extract_canonical", counting_extract)
    inst, prefs = thm4()
    _, trace = run_ir_priority(inst, prefs)
    assert (len(builds), len(extractions)) == (1, 1)
    assert trace.round_count == 3  # two passes: the final one was skipped
    assert (len(builds), len(extractions)) == (1, 1)
    trace_to_json(inst, trace)
    trace_to_json(inst, trace)
    assert (len(builds), len(extractions)) == (2, 2)


def test_a_bad_profile_raises_a_typed_error_before_any_network(monkeypatch):
    """A preference naming an unknown object, or a profile missing an agent,
    is invalid input that names the agent, not a bare KeyError."""
    builds = []
    build = ExchangeFlow.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    inst, prefs = thm4()
    zz = TrichotomousPreference("2", prefs["2"].attractive | {"zz"}, prefs["2"].bearable)
    stray = {**prefs, "2": zz}
    with pytest.raises(ValidationError, match=r"agent '2': unknown object\(s\) \('zz',\)"):
        run_ir_priority(inst, stray)
    missing = {a: p for a, p in prefs.items() if a != "1"}
    with pytest.raises(ValidationError, match="no preference given for agent '1'"):
        run_ir_priority(inst, missing)
    assert builds == []


def test_marginality_mechanism_sees_only_the_ab_pairs():
    """Two responsive preferences with the same (A, B) are the same input."""
    inst, prefs = thm4()
    rebuilt = {
        a: TrichotomousPreference(a, prefs[a].attractive, prefs[a].bearable)
        for a in inst.agents
    }
    assert run_ir_priority(inst, prefs)[0] == run_ir_priority(inst, rebuilt)[0]


def test_truncation_never_profits_sampled():
    rng = random.Random(47)
    for _ in range(25):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 3))])
        prefs = random_profile(inst, rng)
        truth, _ = run_ir_priority(inst, prefs)
        for agent in inst.agents:
            marg = prefs[agent].to_classes(inst.objects)
            pool = sorted(inst.objects - prefs[agent].attractive - inst.endowment[agent])
            for _ in range(4):
                extra = frozenset(o for o in pool if rng.random() < 0.5)
                floor = inst.endowment[agent] - prefs[agent].attractive
                mis = TrichotomousPreference(agent, prefs[agent].attractive, floor | extra)
                out, _ = run_ir_priority(inst, {**prefs, agent: mis})
                verdict = compare_unambiguous(
                    truth.assignment[agent], out.assignment[agent], marg
                )
                assert verdict in (
                    BundleComparison.ALWAYS_WEAKLY_BETTER,
                    BundleComparison.EQUIVALENT,
                )


def test_efficient_at_minimal_bearable_sets_is_weakly_efficient_at_maximal():
    """An output that is IR + efficient under the smallest bearable sets admits
    no strict (every-agent) Pareto-improvement under the largest ones."""
    rng = random.Random(97)
    from balex.audits import enumerate_matchings
    from balex.responsive import exists_strict_preference

    for _ in range(40):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 3))])
        prefs = random_profile(inst, rng, strongly=True)  # B_i = endowment \ A_i
        final, _ = run_ir_priority(inst, prefs)
        wide = {
            a: TrichotomousPreference(
                a, prefs[a].attractive, inst.objects - prefs[a].attractive
            ).to_classes(inst.objects)
            for a in inst.agents
        }
        for nu in enumerate_matchings(inst):
            strict_everyone = all(
                exists_strict_preference(nu.assignment[a], final.assignment[a], wide[a])
                for a in inst.agents
            )
            assert not strict_everyone


def test_priority_override_changes_selection_but_stays_efficient():
    inst, prefs = thm4()
    flipped = inst.with_priority(["4", "3", "2", "1"])
    final, _ = run_ir_priority(flipped, prefs)
    assert cir_trichotomous(flipped, final, prefs)
    assert find_cir_pareto_improving_cycle(flipped, final, prefs) is None
    # agent 2 outranks agent 1 now, so she wins the contested q1
    assert final.assignment["2"] == fs("q1")


def test_trace_json_is_stable_and_complete():
    inst, prefs = thm4()
    _, trace = run_ir_priority(inst, prefs)
    doc1 = json.dumps(trace_to_json(inst, trace), sort_keys=True)
    _, trace2 = run_ir_priority(inst, prefs)
    doc2 = json.dumps(trace_to_json(inst, trace2), sort_keys=True)
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert parsed["final"] == {"1": ["q1"], "2": ["r"], "3": ["o", "p"], "4": ["q2"]}
    assert [r["round"] for r in parsed["rounds"]] == [1, 2, 3]
    assert parsed["rounds"][0]["bearable"]["1"] == ["o", "r"]
    assert parsed["rounds"][0]["bearable"]["3"] == ["q1", "q2"]
    assert parsed["rounds"][0]["bearable_outer"]["3"] == ["q1", "q2", "r"]


def test_rejects_profile_not_covering_endowment():
    inst = make_instance([1, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs(), fs("o2")),
        "a2": TrichotomousPreference("a2", fs(), fs("o2")),
    }
    with pytest.raises(ValueError, match="endowment"):
        run_ir_priority(inst, prefs)

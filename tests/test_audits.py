"""Auditors: efficiency modes, manipulation searches, weak-core membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balex.audits import (
    check_obvious_manipulability,
    check_strategy_proofness,
    check_truncation_proofness,
    efficient_ir_set,
    enumerate_matchings,
    find_efficient_core_matching,
    trichotomous_reports,
    unambiguously_efficient,
    unambiguously_in_weak_core,
    welfare_vector,
)
from balex.fixtures import load_fixture
from balex.mechanism import _final_masks, run_ir_priority
from balex.flownet import ExchangeFlow
from balex.model import (
    DomainSpec,
    MarginalPreference,
    Matching,
    TrichotomousPreference,
    ValidationError,
)
from balex.optimize import EnumerationLimitError, _matching_from_masks
from balex.responsive import cir_trichotomous, prefix_masks
from conftest import make_instance, on_masks, random_profile, unbeatable


def fs(*objs):
    return frozenset(objs)


def test_enumerate_matchings_counts():
    ex1 = make_instance([2, 2])
    assert sum(1 for _ in enumerate_matchings(ex1)) == 6
    single = make_instance([1])
    assert list(enumerate_matchings(single)) == [single.endowment_matching()]
    three = make_instance([1, 1, 1])
    assert sum(1 for _ in enumerate_matchings(three)) == 6
    big = make_instance([3, 3, 3, 3])
    with pytest.raises(EnumerationLimitError):
        next(enumerate_matchings(big))


def test_enumerate_matchings_unique_and_canonical():
    inst = make_instance([2, 1, 1])
    seen = [m.key(inst) for m in enumerate_matchings(inst)]
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)


def test_efficiency_modes_agree_on_thm4():
    fx = load_fixture("thm4-base")
    mu1 = fx.expected["mechanism_output"]
    assert unambiguously_efficient(fx.instance, mu1, fx.prefs, mode="cycle")
    assert unambiguously_efficient(fx.instance, mu1, fx.prefs, mode="brute")
    intermediate = Matching(
        {"1": fs("q1"), "2": fs("p"), "3": fs("o", "q2"), "4": fs("r")}
    )
    assert not unambiguously_efficient(fx.instance, intermediate, fx.prefs, mode="cycle")
    assert not unambiguously_efficient(fx.instance, intermediate, fx.prefs, mode="brute")


def test_efficiency_modes_agree_on_random_cir_matchings():
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 3))])
        prefs = random_profile(inst, rng)
        for mu in enumerate_matchings(inst):
            if not cir_trichotomous(inst, mu, prefs):
                continue
            cyc = unambiguously_efficient(inst, mu, prefs, mode="cycle")
            brute = unambiguously_efficient(inst, mu, prefs, mode="brute")
            assert cyc == brute
            checked += 1
    assert checked > 100


def test_endowment_with_empty_attractive_sets_is_efficient():
    inst = make_instance([2, 1])
    prefs = {a: TrichotomousPreference(a, fs(), inst.endowment[a]) for a in inst.agents}
    omega = inst.endowment_matching()
    assert unambiguously_efficient(inst, omega, prefs, mode="cycle")


def _unshared_efficient_ir_set(inst, prefs):
    """efficient_ir_set with one dominance verdict per CIR matching."""
    from balex import audits

    prefixes = prefix_masks(inst, prefs)
    return [
        _matching_from_masks(inst, mu)
        for mu in audits._cir_matchings(inst, prefixes)
        if not audits._is_dominated(
            inst, tuple(audits._counts(m, ps) for m, ps in zip(mu, prefixes)), prefixes
        )
    ]


def _class_profile(inst, rng):
    """Class-based marginals: per agent, the objects dealt at random into 1-4
    classes, some possibly empty."""
    out = {}
    for a in inst.agents:
        classes = [set() for _ in range(rng.randint(1, 4))]
        for o in inst.object_ids:
            rng.choice(classes).add(o)
        out[a] = MarginalPreference(a, tuple(frozenset(c) for c in classes))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=4).filter(lambda s: sum(s) <= 6),
    st.integers(0, 2**32),
    st.sampled_from(["trichotomous", "strongly trichotomous", "class-based"]),
)
def test_shared_dominance_verdicts_give_the_unshared_efficient_ir_set(sizes, seed, kind):
    """Sharing verdicts among equal prefix counts keeps the set and its order."""
    inst = make_instance(sizes)
    rng = random.Random(seed)
    if kind == "class-based":
        prefs = _class_profile(inst, rng)
    else:
        prefs = random_profile(inst, rng, strongly=kind == "strongly trichotomous")
    assert efficient_ir_set(inst, prefs) == _unshared_efficient_ir_set(inst, prefs)


def test_matchings_with_equal_prefix_counts_share_one_dominance_verdict(monkeypatch):
    """Seven unit agents who find every object attractive: all 5,040
    matchings are CIR and efficient, and give every agent the same prefix
    counts, so the dominance enumeration runs once."""
    from balex import audits

    inst = make_instance([1] * 7)
    prefs = {a: TrichotomousPreference(a, inst.objects, fs()) for a in inst.agents}
    calls = []
    is_dominated = audits._is_dominated

    def counting(*args):
        calls.append(args)
        assert len(calls) == 1, "a second verdict for the same prefix counts"  # fail fast
        return is_dominated(*args)

    monkeypatch.setattr(audits, "_is_dominated", counting)
    assert len(efficient_ir_set(inst, prefs)) == 5040
    assert len(calls) == 1


def test_welfare_vector_names_a_missing_agent():
    fx = load_fixture("thm4-base")
    inst, prefs = fx.instance, fx.prefs
    omega = inst.endowment_matching()
    assert welfare_vector(inst, omega, prefs) == tuple(
        len(inst.endowment[a] & prefs[a].attractive) for a in inst.agents
    )
    partial = Matching({a: b for a, b in omega.assignment.items() if a != "1"})
    with pytest.raises(ValidationError, match="^matching assigns no bundle to agent '1'$"):
        welfare_vector(inst, partial, prefs)
    with pytest.raises(ValidationError, match="^no preference given for agent '1'$"):
        welfare_vector(inst, omega, {a: p for a, p in prefs.items() if a != "1"})


def test_welfare_vector_refuses_a_matching_that_is_not_a_balanced_partition():
    """An object held twice, an unknown object and an agent left empty are
    each a ValidationError, not a welfare vector."""
    fx = load_fixture("thm4-base")  # 1: o, 2: p, 3: q1 q2, 4: r
    bad = {
        r"^object\(s\) \('o',\) assigned twice$": {"2": fs("o")},
        r"^agent '1' assigned unknown object\(s\) \('zz',\)$": {"1": fs("zz")},
        r"^agent '1' gets 0 objects but is endowed with 1 \(exchange must be balanced\)$": {
            "1": fs()
        },
    }
    for message, bundles in bad.items():
        mu = Matching({**fx.instance.endowment, **bundles})
        with pytest.raises(ValidationError, match=message):
            welfare_vector(fx.instance, mu, fx.prefs)


_AUDITS = {
    "brute": lambda inst, mu, prefs: unambiguously_efficient(inst, mu, prefs),
    "cycle": lambda inst, mu, prefs: unambiguously_efficient(inst, mu, prefs, "cycle"),
    "core": lambda inst, mu, prefs: unambiguously_in_weak_core(inst, mu, prefs),
    "strict-core": lambda inst, mu, prefs: unambiguously_in_weak_core(inst, mu, prefs, True),
    "efficient-ir-set": lambda inst, mu, prefs: efficient_ir_set(inst, prefs),
    "core-selection": lambda inst, mu, prefs: find_efficient_core_matching(inst, prefs),
}


@pytest.mark.parametrize(
    "audit, lacks",
    [(name, "matching") for name in ("brute", "cycle", "core", "strict-core")]
    + [(name, "profile") for name in _AUDITS],
)
def test_audits_name_a_missing_agent(audit, lacks):
    """The audits that take a matching or a profile refuse one that lacks an
    agent with welfare_vector's ValidationError, not a bare KeyError, and
    still answer when none is missing."""
    fx = load_fixture("thm4-base")
    inst, prefs = fx.instance, fx.prefs
    omega = inst.endowment_matching()
    run = _AUDITS[audit]
    run(inst, omega, prefs)
    if lacks == "matching":
        partial = Matching({a: b for a, b in omega.assignment.items() if a != "1"})
        with pytest.raises(ValidationError, match="^matching assigns no bundle to agent '1'$"):
            run(inst, partial, prefs)
    else:
        with pytest.raises(ValidationError, match="^no preference given for agent '1'$"):
            run(inst, omega, {a: p for a, p in prefs.items() if a != "1"})


@pytest.mark.parametrize("audit", ["brute", "cycle", "core", "strict-core"])
def test_audits_refuse_a_matching_that_is_not_a_balanced_partition(audit):
    """A matching that holds an object twice, names an unknown object or
    gives an agent more objects than it owns is a ValidationError, not a
    verdict or a KeyError, in both efficiency modes and both weak-core modes."""
    fx = load_fixture("thm4-base")  # 1: o, 2: p, 3: q1 q2, 4: r
    run = _AUDITS[audit]
    bad = {
        r"^object\(s\) \('o',\) assigned twice$": {"1": fs("o"), "3": fs("q1", "o")},
        r"^agent '1' assigned unknown object\(s\) \('zz',\)$": {"1": fs("zz")},
        r"^agent '1' gets 2 objects but is endowed with 1 \(exchange must be balanced\)$": {
            "1": fs("o", "q2"),
            "3": fs("q1"),
        },
    }
    for message, bundles in bad.items():
        mu = Matching({**fx.instance.endowment, **bundles})
        with pytest.raises(ValidationError, match=message):
            run(fx.instance, mu, fx.prefs)


def test_report_enumeration_counts():
    inst = make_instance([1, 2])  # |O| = 3
    # per agent: 2^|endow| * 3^|others|
    assert len(trichotomous_reports(inst, "a1")) == 2 * 9
    assert len(trichotomous_reports(inst, "a2")) == 4 * 3
    strong = DomainSpec.strongly_trichotomous()
    assert len(trichotomous_reports(inst, "a1", strong)) == 8
    filtered = trichotomous_reports(inst, "a2", strong)
    assert len(filtered) == 8  # 2^|O| attractive sets, B = endowment \ A
    assert all(not (p.bearable - inst.endowment["a2"]) for p in filtered)


def test_domain_without_bearable_extras_builds_only_its_reports(monkeypatch):
    from balex import audits

    inst = make_instance([2, 2, 2])  # |O| = 6
    built = []

    def counting(*args):
        built.append(args)
        return TrichotomousPreference(*args)

    monkeypatch.setattr(audits, "TrichotomousPreference", counting)
    strong = DomainSpec.strongly_trichotomous()
    reports = trichotomous_reports(inst, "a1", strong)
    # 2^6 attractive sets; the unfiltered space is 2^2 * 3^4 = 324 reports
    assert len(built) == len(reports) == 64
    objects, endow = inst.object_ids, inst.endowment["a1"]
    expected = []
    for a_mask in range(1 << len(objects)):
        attractive = frozenset(o for k, o in enumerate(objects) if a_mask >> k & 1)
        expected.append(TrichotomousPreference("a1", attractive, endow - attractive))
    assert reports == expected


def test_strategy_proofness_witness_on_thm4_family():
    fx = load_fixture("thm4-p2")
    w = check_strategy_proofness(fx.instance, fx.prefs)
    assert w is not None
    assert w.agent == fx.expected["manipulator"] == "3"
    # the misreport outcome must genuinely beat the truthful one
    assert w.certificate.score(w.misreport_bundle) > w.certificate.score(w.truthful_bundle)
    # re-running the mechanism reproduces the claimed bundles
    truth, _ = run_ir_priority(fx.instance, fx.prefs)
    assert truth.assignment[w.agent] == w.truthful_bundle
    out, _ = run_ir_priority(fx.instance, {**fx.prefs, w.agent: w.misreport})
    assert out.assignment[w.agent] == w.misreport_bundle


def test_strategy_proofness_single_agent_is_immune():
    inst = make_instance([2])
    prefs = {"a1": TrichotomousPreference("a1", fs("o1"), fs("o2"))}
    assert check_strategy_proofness(inst, prefs) is None


def test_strategy_proofness_strongly_trichotomous_sampled():
    rng = random.Random(59)
    strong = DomainSpec.strongly_trichotomous()
    for _ in range(15):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
        prefs = random_profile(inst, rng, strongly=True)
        assert check_strategy_proofness(inst, prefs, strong) is None


def test_truncation_proofness_thm4_and_random():
    fx = load_fixture("thm4-base")
    assert check_truncation_proofness(fx.instance, fx.prefs) is None
    # the family's canonical truncation: agent 2 reports bearable {p};
    # outcome swaps r for p, an equivalent bundle
    mis = TrichotomousPreference("2", fs("q1"), fs("p"))
    out, _ = run_ir_priority(fx.instance, {**fx.prefs, "2": mis})
    assert out.assignment["2"] == fs("p")
    rng = random.Random(61)
    for _ in range(20):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(2, 3))])
        prefs = random_profile(inst, rng)
        assert check_truncation_proofness(inst, prefs) is None


def test_truncation_witness_is_the_first_profitable_report(monkeypatch):
    from balex import audits

    inst = make_instance([1, 1, 1, 1])
    prefs = {a: TrichotomousPreference(a, fs(), inst.endowment[a]) for a in inst.agents}
    prefs["a1"] = TrichotomousPreference("a1", fs("o2"), fs("o1"))
    endowment = inst.endowment_matching()
    swapped = Matching({**endowment.assignment, "a1": fs("o2"), "a2": fs("o1")})

    def stub(instance, profile):
        # a1 gets its attractive o2 whenever it reports a larger bearable set
        return (swapped if profile["a1"].bearable > fs("o1") else endowment), None

    monkeypatch.setattr(audits, "_final_masks", on_masks(inst, stub))
    w = check_truncation_proofness(inst, prefs)
    # a1's extras in enumeration order: {}, {o3}, {o4}, {o3, o4}; {} is the truth
    assert w is not None and w.agent == "a1"
    assert w.misreport == TrichotomousPreference("a1", fs("o2"), fs("o1", "o3"))
    assert w.misreport.attractive == prefs["a1"].attractive
    assert (w.truthful_bundle, w.misreport_bundle) == (fs("o1"), fs("o2"))
    assert w.certificate.score(w.misreport_bundle) > w.certificate.score(w.truthful_bundle)


def test_audits_run_the_mechanism_once_per_distinct_profile(monkeypatch):
    from balex import audits

    runs, lookups, wrapped = [], [], []
    final = audits._OutcomeCache.final

    def counting_run(instance, profile):
        wrapped.append(profile)
        return run_ir_priority(instance, profile)

    def counting_kernel(*args):
        runs.append(args)
        return _final_masks(*args)

    def counting_final(self, profile):
        lookups.append(profile)
        return final(self, profile)

    monkeypatch.setattr(audits, "run_ir_priority", counting_run)
    monkeypatch.setattr(audits, "_final_masks", counting_kernel)
    monkeypatch.setattr(audits._OutcomeCache, "final", counting_final)
    strong = DomainSpec.strongly_trichotomous()
    # each search runs the kernel on the truthful profile once, then on every
    # distinct report whose A ∪ B holds more of some class prefix than the
    # truthful bundle does, where a bundle of the agent's size could; no audit
    # calls the run_ir_priority wrapper
    inst = make_instance([2, 1, 1])
    prefs = random_profile(inst, random.Random(5), strongly=True)
    assert unbeatable(inst, prefs, run_ir_priority(inst, prefs)[0]) == [True, True, True]
    assert check_strategy_proofness(inst, prefs, strong) is None
    assert len(runs) == len(lookups) == 1
    runs.clear()
    lookups.clear()
    assert check_truncation_proofness(inst, prefs) is None
    assert len(runs) == len(lookups) == 1
    runs.clear()
    lookups.clear()
    # a profile on which every agent misses an attractive object it could hold
    inst = make_instance([2, 2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o1", "o4"), fs("o2")),
        "a2": TrichotomousPreference("a2", fs("o1", "o4"), fs("o3")),
        "a3": TrichotomousPreference("a3", fs("o2"), fs("o5")),
    }
    assert unbeatable(inst, prefs, run_ir_priority(inst, prefs)[0]) == [False, False, False]
    assert check_strategy_proofness(inst, prefs, strong) is None
    # each agent misses one attractive object, and only the strong reports
    # whose A ∪ B holds it are run, the truthful one among them
    reports = [trichotomous_reports(inst, a, strong) for a in inst.agents]
    missed = {"a1": "o4", "a2": "o1", "a3": "o2"}
    runnable = [sum(missed[r.owner] in r.acceptable() for r in rs) for rs in reports]
    assert [len(rs) for rs in reports] == [32, 32, 32] and runnable == [16, 16, 16]
    assert len(runs) == len(lookups) == 1 + sum(k - 1 for k in runnable) == 46
    runs.clear()
    lookups.clear()
    assert check_truncation_proofness(inst, prefs) is None
    pools = [
        len(inst.object_ids) - len(inst.endowment[a] | prefs[a].attractive) for a in inst.agents
    ]
    assert pools == [2, 2, 3]
    assert len(runs) == len(lookups) == 1 + sum(2**k - 1 for k in pools) == 14
    runs.clear()
    lookups.clear()
    unit = make_instance([1, 1])
    unit_prefs = {
        "a1": TrichotomousPreference("a1", fs("o2"), fs("o1")),
        "a2": TrichotomousPreference("a2", fs("o1"), fs("o2")),
    }
    assert check_obvious_manipulability(unit, unit_prefs) is None
    # 6 reports each: both agents look up all 36 profiles, which run once
    assert (len(runs), len(lookups)) == (36, 72)
    assert wrapped == []


def test_strong_profiles_run_one_pass_and_others_the_kernel(monkeypatch):
    """On a strongly trichotomous profile a misreport search runs one
    serial-dictatorship pass per distinct profile and no improvability check;
    each truncation misreport with a bearable extra runs the whole kernel."""
    from balex import mechanism

    kernel, calls = mechanism._run_masks, {"kernel": [], "can_improve": 0, "maximize": 0}
    can_improve, maximize = ExchangeFlow.can_improve, ExchangeFlow.maximize

    def counting_kernel(flow, a_masks, b_masks, endow):
        calls["kernel"].append(b_masks)
        return kernel(flow, a_masks, b_masks, endow)

    def counting(name, method):
        def wrapped(self, i):
            calls[name] += 1
            return method(self, i)

        return wrapped

    monkeypatch.setattr(mechanism, "_run_masks", counting_kernel)
    monkeypatch.setattr(ExchangeFlow, "can_improve", counting("can_improve", can_improve))
    monkeypatch.setattr(ExchangeFlow, "maximize", counting("maximize", maximize))
    inst = make_instance([2, 2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o1", "o4"), fs("o2")),
        "a2": TrichotomousPreference("a2", fs("o1", "o4"), fs("o3")),
        "a3": TrichotomousPreference("a3", fs("o2"), fs("o5")),
    }
    assert all(prefs[a].bearable == inst.endowment[a] - prefs[a].attractive for a in inst.agents)
    # the 46 distinct profiles that the strong-domain search runs: one pass of
    # three dictators each
    assert check_strategy_proofness(inst, prefs, DomainSpec.strongly_trichotomous()) is None
    assert calls == {"kernel": [], "can_improve": 0, "maximize": 3 * 46}
    # the truthful run is one pass; each of the 13 misreports with an extra
    # runs the kernel, the misreporting agent's bearable set above its floor
    assert check_truncation_proofness(inst, prefs) is None
    assert len(calls["kernel"]) == 13 and calls["can_improve"] > 0
    endow = list(inst.endowment_masks)
    truth = [inst.mask(prefs[a].bearable) for a in inst.agents]
    for b_masks in calls["kernel"]:
        (i,) = [k for k in range(3) if b_masks[k] != truth[k]]
        assert b_masks[i] & ~endow[i]


def test_obvious_manipulability_unit_demand_none_and_extremes():
    inst = make_instance([1, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o2"), fs("o1")),
        "a2": TrichotomousPreference("a2", fs("o1"), fs("o2")),
    }
    assert check_obvious_manipulability(inst, prefs) is None
    # truthful best/worst cases for a1 across all opponent reports
    outcomes = []
    for opp in trichotomous_reports(inst, "a2"):
        final, _ = run_ir_priority(inst, {"a1": prefs["a1"], "a2": opp})
        outcomes.append(len(final.assignment["a1"] & prefs["a1"].attractive))
    assert max(outcomes) == min(1, len(inst.endowment["a1"]))  # min(|A|, |endow|)
    assert min(outcomes) == len(inst.endowment["a1"] & prefs["a1"].attractive)


def test_obvious_manipulability_guard_on_large_space():
    inst = make_instance([2, 2, 2])
    prefs = random_profile(inst, random.Random(1))
    with pytest.raises(EnumerationLimitError):
        check_obvious_manipulability(inst, prefs, limit=10)


def test_obvious_manipulability_refuses_before_building_reports(monkeypatch):
    from balex import audits

    inst = make_instance([1, 15])
    prefs = {a: TrichotomousPreference(a, fs(), inst.endowment[a]) for a in inst.agents}
    calls = []
    monkeypatch.setattr(audits, "_report_masks", lambda *args: calls.append(args))
    monkeypatch.setattr(audits, "_final_masks", lambda *args: calls.append(args))
    # a2 alone has 2^15 * 3^1 reports
    with pytest.raises(EnumerationLimitError, match="opponent space has 98304 profiles"):
        check_obvious_manipulability(inst, prefs)
    assert calls == []


MANIPULATION_AUDITS = {
    "strategy-proofness audit": check_strategy_proofness,
    "truncation audit": check_truncation_proofness,
    "obvious-manipulability audit": check_obvious_manipulability,
}


@pytest.mark.parametrize("what", sorted(MANIPULATION_AUDITS))
def test_manipulation_audits_refuse_bad_profiles_before_any_report(what, monkeypatch):
    """A class-based profile, one that omits an agent, or one that names an
    object outside the instance is a ValidationError raised before the
    mechanism runs or any report is built."""
    from balex import audits

    calls = []
    monkeypatch.setattr(audits, "_report_masks", lambda *args: calls.append(args))
    monkeypatch.setattr(audits, "_final_masks", lambda *args: calls.append(args))
    audit = MANIPULATION_AUDITS[what]
    fx = load_fixture("example1")
    with pytest.raises(ValidationError, match=f"^{what} needs a trichotomous profile"):
        audit(fx.instance, fx.prefs)
    fx = load_fixture("thm4-base")
    partial = {a: p for a, p in fx.prefs.items() if a != "1"}
    with pytest.raises(ValidationError, match="^no preference given for agent '1'$"):
        audit(fx.instance, partial)
    p = fx.prefs["3"]
    stray = TrichotomousPreference("3", p.attractive | {"zz"}, p.bearable | {"yy"})
    unknown = r"^agent '3': unknown object\(s\) \('yy', 'zz'\)$"
    with pytest.raises(ValidationError, match=unknown):
        audit(fx.instance, {**fx.prefs, "3": stray})
    assert calls == []


def test_an_endowment_outside_the_reported_a_and_b_is_refused_before_any_network(monkeypatch):
    """A profile in which an agent reports an object it owns as unacceptable
    is a ValidationError naming the agent, raised by the mechanism and by
    each manipulation audit before any network is built."""
    builds = []
    build = ExchangeFlow.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    inst = make_instance([1, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o2"), fs("o1")),
        "a2": TrichotomousPreference("a2", fs("o1"), fs()),  # a2 owns o2
    }
    for run in (run_ir_priority, *MANIPULATION_AUDITS.values()):
        with pytest.raises(ValidationError, match="^agent 'a2': endowment not contained in A ∪ B$"):
            run(inst, prefs)
    assert builds == []


def test_misreport_searches_refuse_markets_over_the_bound(monkeypatch):
    from balex import audits

    runs = []
    monkeypatch.setattr(audits, "_final_masks", lambda *args: runs.append(args))
    inst = make_instance([4, 4, 4])
    prefs = random_profile(inst, random.Random(3))
    for audit in (check_strategy_proofness, check_truncation_proofness):
        with pytest.raises(EnumerationLimitError, match="12 objects, enumeration bound is 10"):
            audit(inst, prefs)
        with pytest.raises(EnumerationLimitError, match="enumeration bound is 11"):
            audit(inst, prefs, bound=11)
    assert runs == []


def test_weak_core_unit_demand_example():
    fx = load_fixture("core-unit-demand")
    omega = fx.instance.endowment_matching()
    assert unambiguously_in_weak_core(fx.instance, omega, fx.prefs) is None
    assert not unambiguously_efficient(fx.instance, omega, fx.prefs, mode="brute")


def test_weak_core_no_pe_core_blocks_everything():
    fx = load_fixture("no-pe-core")
    got = efficient_ir_set(fx.instance, fx.prefs)
    want = {m.key(fx.instance) for m in fx.expected["efficient_ir_set"]}
    assert {m.key(fx.instance) for m in got} == want
    for mu in got:
        w = unambiguously_in_weak_core(fx.instance, mu, fx.prefs)
        assert w is not None
        pool = frozenset().union(*(fx.instance.endowment[a] for a in w.coalition))
        for a in w.coalition:
            assert w.reallocation[a] <= pool
            assert len(w.reallocation[a]) == len(fx.instance.endowment[a])
            cert = w.certificates[a]
            assert cert.score(w.reallocation[a]) > cert.score(mu.assignment[a])


def test_block_witness_certificate_values():
    fx = load_fixture("no-pe-core")
    mu = fx.expected["efficient_ir_set"][0]
    w = unambiguously_in_weak_core(fx.instance, mu, fx.prefs)
    assert w.coalition == ("2", "3")
    assert w.reallocation == {"2": fs("q1", "q2"), "3": fs("p1", "p2")}
    high, low, step = Fraction(7, 6), Fraction(1, 12), Fraction(1, 8)
    assert w.certificates["2"].utility == {
        "o1": high, "o2": high, "p1": step, "p2": step, "q1": high, "q2": high
    }
    assert w.certificates["3"].utility == {
        "o1": low, "o2": low, "p1": high, "p2": low, "q1": step, "q2": step
    }


def test_weak_core_single_agent_trivial():
    inst = make_instance([1])
    prefs = {"a1": TrichotomousPreference("a1", fs("o1"), fs())}
    assert unambiguously_in_weak_core(inst, inst.endowment_matching(), prefs) is None


def test_weak_core_strict_acceptability_requires_cir():
    fx = load_fixture("thm4-base")
    # giving agent 1 the unacceptable p violates CIR
    bad = Matching({"1": fs("p"), "2": fs("o"), "3": fs("q1", "q2"), "4": fs("r")})
    with pytest.raises(ValueError, match="CIR"):
        unambiguously_in_weak_core(fx.instance, bad, fx.prefs, strict_acceptability=True)


@pytest.mark.parametrize("name", ["example1", "thm1-nu0", "thm1-nu1"])
def test_strict_acceptability_needs_a_trichotomous_profile(name):
    """Class-based profiles are refused before any work: even a bound the
    market exceeds is not reached."""
    fx = load_fixture(name)
    mu = fx.instance.endowment_matching()
    for bound in (12, 1):
        with pytest.raises(ValueError, match="^strict-acceptability core audit needs a trichotomous"):
            unambiguously_in_weak_core(
                fx.instance, mu, fx.prefs, strict_acceptability=True, bound=bound
            )
    with pytest.raises(ValueError, match="^efficient core selection needs a trichotomous"):
        find_efficient_core_matching(fx.instance, fx.prefs, bound=1)


def test_strict_acceptability_shrinks_blocking_power():
    # no-pe-core: every efficient-IR matching is blocked without strict
    # acceptability, but the first one is in the weak core with it
    fx = load_fixture("no-pe-core")
    mu = fx.expected["efficient_ir_set"][0]
    assert unambiguously_in_weak_core(fx.instance, mu, fx.prefs) is not None
    assert (
        unambiguously_in_weak_core(fx.instance, mu, fx.prefs, strict_acceptability=True)
        is None
    )


def test_find_efficient_core_matching_on_random_instances():
    rng = random.Random(67)
    for _ in range(30):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
        prefs = random_profile(inst, rng)
        mu = find_efficient_core_matching(inst, prefs)
        assert mu is not None
        assert cir_trichotomous(inst, mu, prefs)
        assert unambiguously_efficient(inst, mu, prefs, mode="cycle")
        assert (
            unambiguously_in_weak_core(inst, mu, prefs, strict_acceptability=True)
            is None
        )


def test_strongly_trichotomous_every_efficient_ir_is_in_core():
    rng = random.Random(71)
    for _ in range(25):
        inst = make_instance([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
        prefs = random_profile(inst, rng, strongly=True)
        for mu in enumerate_matchings(inst):
            if not cir_trichotomous(inst, mu, prefs):
                continue
            if not unambiguously_efficient(inst, mu, prefs, mode="cycle"):
                continue
            assert (
                unambiguously_in_weak_core(inst, mu, prefs, strict_acceptability=True)
                is None
            )


def test_all_attractive_empty_endowment_qualifies():
    inst = make_instance([1, 2])
    prefs = {a: TrichotomousPreference(a, fs(), inst.endowment[a]) for a in inst.agents}
    assert find_efficient_core_matching(inst, prefs) == inst.endowment_matching()


def test_welfare_vector():
    fx = load_fixture("thm4-base")
    assert welfare_vector(fx.instance, fx.expected["mechanism_output"], fx.prefs) == (
        1,
        0,
        2,
        1,
    )

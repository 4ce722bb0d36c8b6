"""Auditors: efficiency modes, manipulation searches, weak-core membership."""

from __future__ import annotations

import random

import pytest

from balex.audits import (
    check_obvious_manipulability,
    check_strategy_proofness,
    check_truncation_proofness,
    efficient_ir_set,
    enumerate_matchings,
    find_efficient_core_matching,
    trichotomous_reports,
    strongly_trichotomous_reports,
    unambiguously_efficient,
    unambiguously_in_weak_core,
    welfare_vector,
)
from balex.fixtures import load_fixture
from balex.mechanism import run_ir_priority
from balex.model import DomainSpec, Matching, TrichotomousPreference
from balex.optimize import EnumerationLimitError
from balex.responsive import cir_trichotomous
from conftest import make_instance, random_profile


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


def test_report_enumeration_counts():
    inst = make_instance([1, 2])  # |O| = 3
    # per agent: 2^|endow| * 3^|others|
    assert len(trichotomous_reports(inst, "a1")) == 2 * 9
    assert len(trichotomous_reports(inst, "a2")) == 4 * 3
    assert len(strongly_trichotomous_reports(inst, "a1")) == 8
    strong = DomainSpec.strongly_trichotomous()
    filtered = trichotomous_reports(inst, "a2", strong)
    assert len(filtered) == len(strongly_trichotomous_reports(inst, "a2"))
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
    assert strongly_trichotomous_reports(inst, "a1") == expected


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

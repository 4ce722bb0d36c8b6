"""Domain types: validation, trichotomous collapse, domain classification, JSON."""

from __future__ import annotations

import json
import random

import pytest

from balex.fixtures import load_fixture
from balex.model import (
    DomainSpec,
    MarginalPreference,
    NotTrichotomousError,
    TrichotomousPreference,
    ValidationError,
    classify_domain,
    domain_membership,
    market_from_json,
    market_to_json,
    matching_from_json,
    matching_to_json,
    to_trichotomous,
    validate_instance,
    validate_matching,
)
from conftest import make_instance, random_profile


def fs(*objs):
    return frozenset(objs)


def test_validate_instance_accepts_two_agent_market():
    inst = validate_instance(
        {
            "agents": ["1", "2"],
            "objects": ["o1", "o2", "p1", "p2"],
            "endowments": {"1": ["o1", "o2"], "2": ["p1", "p2"]},
        }
    )
    assert inst.agents == ("1", "2")
    assert inst.endowment["2"] == fs("p1", "p2")


def test_validate_instance_accepts_single_agent_market():
    inst = validate_instance(
        {"agents": ["a"], "objects": ["o"], "endowments": {"a": ["o"]}}
    )
    assert inst.sizes == (1,)


def test_validate_instance_rejects_overlapping_endowments():
    with pytest.raises(ValidationError, match="endowed to both"):
        validate_instance(
            {"agents": ["1", "2"], "objects": ["o"], "endowments": {"1": ["o"], "2": ["o"]}}
        )


def test_validate_instance_rejects_empty_endowment_and_orphans():
    with pytest.raises(ValidationError, match="empty endowment"):
        validate_instance(
            {"agents": ["1"], "objects": ["o"], "endowments": {"1": []}}
        )
    with pytest.raises(ValidationError, match="owned by nobody"):
        validate_instance(
            {"agents": ["1"], "objects": ["o", "x"], "endowments": {"1": ["o"]}}
        )


def test_validate_matching_accepts_endowment_and_rejects_unbalanced():
    inst = make_instance([2, 1])
    mu = validate_matching(inst, {a: sorted(inst.endowment[a]) for a in inst.agents})
    assert mu == inst.endowment_matching()
    with pytest.raises(ValidationError, match="balanced"):
        validate_matching(inst, {"a1": ["o1"], "a2": ["o2", "o3"]})
    with pytest.raises(ValidationError, match="assigned twice"):
        validate_matching(inst, {"a1": ["o1", "o3"], "a2": ["o3"]})


@pytest.mark.parametrize("bundle", ["o", 5, {"o": 1}, None])
def test_validate_matching_rejects_a_bundle_that_is_not_a_list(bundle):
    """A string is not read as its characters, and null is invalid input, not a TypeError."""
    inst = load_fixture("thm4-base").instance
    raw = {"1": bundle, "2": ["p"], "3": ["q1", "q2"], "4": ["r"]}
    message = "^bundle of agent '1' must be a list of identifiers$"
    with pytest.raises(ValidationError, match=message):
        validate_matching(inst, raw)
    with pytest.raises(ValidationError, match=message):
        matching_from_json(inst, {"assignment": raw})


def test_to_trichotomous_collapses_lower_classes():
    universe = fs("o", "p", "q1", "q2", "r")
    pref = MarginalPreference("1", (fs("q1"), fs("o", "r"), fs("p", "q2")))
    tri = to_trichotomous(pref, fs("o"))
    assert tri.attractive == fs("q1")
    assert tri.bearable == fs("o", "r")
    assert tri.to_classes(universe).classes[2] == fs("p", "q2")


def test_to_trichotomous_allows_empty_second_class_placeholder():
    pref = MarginalPreference("1", (fs("o"), fs(), fs("p", "q")))
    tri = to_trichotomous(pref, fs("o"))
    assert tri.attractive == fs("o")
    assert tri.bearable == fs()


def test_to_trichotomous_rejects_endowed_object_below_second_class():
    pref = MarginalPreference("1", (fs("p"), fs("q"), fs("o")))
    with pytest.raises(NotTrichotomousError):
        to_trichotomous(pref, fs("o"))


def test_domain_membership_strongly_trichotomous():
    spec = DomainSpec.strongly_trichotomous()
    endow = fs("o1", "o2")
    ok = MarginalPreference("1", (fs("p", "o1"), fs("o2"), fs("q")))
    bad = MarginalPreference("1", (fs("o1"), fs("o2", "p"), fs("q")))
    assert domain_membership(ok, spec, endow)
    assert not domain_membership(bad, spec, endow)


def test_domain_membership_dichotomous_rejects_third_class():
    spec = DomainSpec.dichotomous()
    pref = MarginalPreference("1", (fs("o"), fs("p"), fs("q")))
    assert not domain_membership(pref, spec, fs("o"))
    flat = MarginalPreference("1", (fs("o", "q"), fs("p")))
    assert domain_membership(flat, spec, fs("o"))


def test_domain_membership_all_weak_orders_accepts_any_partition():
    spec = DomainSpec.m_chotomous(6)
    pref = MarginalPreference("1", tuple(fs(o) for o in ["a", "b", "c", "d"]))
    assert domain_membership(pref, spec, fs("a"))


def test_domain_membership_m_chotomous():
    spec = DomainSpec.m_chotomous(3)
    deep = MarginalPreference("1", (fs("a"), fs("b"), fs("c"), fs("d")))
    flat = MarginalPreference("1", (fs("a"), fs("b"), fs("c", "d")))
    assert not domain_membership(deep, spec, fs("d"))
    assert domain_membership(flat, spec, fs("d"))


def test_domain_spec_invariants():
    with pytest.raises(ValidationError, match="nu\\(1\\)"):
        DomainSpec({1: 1}, {1: 0, 2: 1})
    with pytest.raises(ValidationError, match="epsilon"):
        DomainSpec({1: 0}, {1: 1})
    with pytest.raises(ValidationError, match="forced empty"):
        DomainSpec({1: 1, 3: 1}, {1: 1, 2: 0, 3: 1})


def test_classify_domain_examples():
    # thm4 agent-1 shape: non-endowed r in the second class, third class used
    pref = MarginalPreference("1", (fs("q1"), fs("o", "r"), fs("p", "q2")))
    assert classify_domain(pref, fs("o")) == "trichotomous"
    strong = MarginalPreference("1", (fs("q1", "p"), fs("o"), fs("r", "q2")))
    assert classify_domain(strong, fs("o")) == "strongly-trichotomous"
    two = MarginalPreference("1", (fs("a", "b"), fs("c", "d")))
    assert classify_domain(two, fs("a", "c")) == "dichotomous"
    deep = MarginalPreference("1", (fs("a"), fs("b"), fs("c"), fs("d")))
    assert classify_domain(deep, fs("d")) == "m-chotomous(4)"


def test_classify_nesting_strongly_implies_trichotomous_membership():
    rng = random.Random(5)
    inst = make_instance([2, 2])
    for _ in range(100):
        prefs = random_profile(inst, rng, strongly=rng.random() < 0.5)
        for a in inst.agents:
            marg = prefs[a].to_classes(inst.objects)
            label = classify_domain(marg, inst.endowment[a])
            if label == "strongly-trichotomous":
                assert domain_membership(
                    marg, DomainSpec.trichotomous(), inst.endowment[a]
                )


def test_trichotomous_round_trip_stays_in_domain():
    rng = random.Random(6)
    inst = make_instance([2, 1, 2])
    spec = DomainSpec.trichotomous()
    for _ in range(100):
        prefs = random_profile(inst, rng)
        for a in inst.agents:
            marg = prefs[a].to_classes(inst.objects)
            tri = to_trichotomous(marg, inst.endowment[a])
            rebuilt = tri.to_classes(inst.objects)
            assert domain_membership(rebuilt, spec, inst.endowment[a])
            assert rebuilt.classes[0] == prefs[a].attractive
            assert rebuilt.classes[1] == prefs[a].bearable


def test_market_json_round_trip_and_unknown_field_rejection():
    inst = make_instance([2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o3"), fs("o1", "o2")),
        "a2": MarginalPreference("a2", (fs("o1"), fs("o3"), fs("o2"))),
    }
    doc = market_to_json(inst, prefs)
    inst2, prefs2 = market_from_json(json.loads(json.dumps(doc)))
    assert inst2 == inst
    assert prefs2["a1"] == prefs["a1"]
    assert prefs2["a2"].classes == prefs["a2"].classes
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown field"):
        market_from_json(doc)
    bad = market_to_json(inst, prefs)
    bad["preferences"]["a1"]["weights"] = []
    with pytest.raises(ValidationError, match="exactly the fields"):
        market_from_json(bad)


def test_a_loaded_market_keeps_one_string_per_object():
    """Endowments and both preference forms hold the `objects` list's own
    strings, not one parsed copy per occurrence; an identifier that is not
    one of them still loads as its string and meets the usual error."""
    inst = make_instance([2, 1])
    prefs = {
        "a1": TrichotomousPreference("a1", fs("o3"), fs("o1", "o2")),
        "a2": MarginalPreference("a2", (fs("o1"), fs("o3"), fs("o2"))),
    }
    loaded, prefs2 = market_from_json(json.loads(json.dumps(market_to_json(inst, prefs))))
    own = {id(o) for o in loaded.objects}
    held = [loaded.endowment[a] for a in loaded.agents]
    held += [prefs2["a1"].attractive, prefs2["a1"].bearable, *prefs2["a2"].classes]
    assert all(id(o) in own for objs in held for o in objs)
    doc = market_to_json(inst, prefs)
    doc["preferences"]["a1"]["bearable"] = ["o1", "o2", 7]
    with pytest.raises(ValidationError, match=r"agent 'a1': unknown object\(s\) \('7',\)"):
        market_from_json(doc)


def test_matching_json_round_trip():
    inst = make_instance([1, 2])
    mu = inst.endowment_matching()
    doc = matching_to_json(inst, mu)
    assert matching_from_json(inst, doc) == mu
    with pytest.raises(ValidationError, match="unknown field"):
        matching_from_json(inst, {"assignment": doc["assignment"], "x": 1})


def test_priority_override_is_a_permutation():
    inst = make_instance([1, 1])
    flipped = inst.with_priority(["a2", "a1"])
    assert flipped.agents == ("a2", "a1")
    with pytest.raises(ValidationError):
        inst.with_priority(["a1"])

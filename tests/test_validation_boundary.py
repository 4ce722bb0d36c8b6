"""The validation boundary: every public entry point that takes a matching
or a profile holds it to the one matching rule, `model.matching_masks`, and
the one profile rule, `model.check_profile`.  Input that breaks either rule
is a ValidationError, never a KeyError, a TypeError, a
MechanismInvariantError or a verdict."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.audits import marginal_profile
from balex.fixtures import load_fixture
from balex.generate import random_market
from balex.model import MarginalPreference, Matching, TrichotomousPreference, ValidationError
from balex.optimize import EnumerationLimitError


def fs(*objs):
    return frozenset(objs)


def _maps(prefs):
    """A trichotomous profile as the (attractive, bearable) maps that the
    refinement queries take."""
    return {a: p.attractive for a, p in prefs.items()}, {a: p.bearable for a, p in prefs.items()}


# Each call, by the entry point's name (with the mode after a slash), on
# (instance, matching, profile), and whether it takes the matching.
ENTRY_POINTS = {
    "check_obvious_manipulability": (lambda i, mu, p: balex.check_obvious_manipulability(i, p), False),
    "check_strategy_proofness": (lambda i, mu, p: balex.check_strategy_proofness(i, p), False),
    "check_truncation_proofness": (lambda i, mu, p: balex.check_truncation_proofness(i, p), False),
    "cir_trichotomous": (balex.cir_trichotomous, True),
    "cir_violation": (balex.cir_violation, True),
    "efficient_ir_set": (lambda i, mu, p: balex.efficient_ir_set(i, p), False),
    "find_cir_pareto_improving_cycle": (balex.find_cir_pareto_improving_cycle, True),
    "find_efficient_core_matching": (lambda i, mu, p: balex.find_efficient_core_matching(i, p), False),
    "is_component_wise_IR": (balex.is_component_wise_IR, True),
    "non_improvable_set": (lambda i, mu, p: balex.non_improvable_set(i, *_maps(p), mu), True),
    "run_ir_priority": (lambda i, mu, p: balex.run_ir_priority(i, p), False),
    "serial_refine": (lambda i, mu, p: balex.serial_refine(i, *_maps(p), mu), True),
    "trichotomous_profile": (lambda i, mu, p: balex.trichotomous_profile(i, p), False),
    "unambiguously_efficient/brute": (balex.unambiguously_efficient, True),
    "unambiguously_efficient/cycle": (
        lambda i, mu, p: balex.unambiguously_efficient(i, mu, p, "cycle"),
        True,
    ),
    "unambiguously_in_weak_core": (balex.unambiguously_in_weak_core, True),
    "unambiguously_in_weak_core/strict": (
        lambda i, mu, p: balex.unambiguously_in_weak_core(i, mu, p, strict_acceptability=True),
        True,
    ),
    "welfare_vector": (balex.welfare_vector, True),
}
# The refinement queries take a profile as (A, B) maps, which hold no classes.
MAPS = {"non_improvable_set", "serial_refine"}
# Entry points defined on trichotomous profiles alone: a class-based profile,
# valid as it is, is a ValidationError there.
TRICHOTOMOUS_ONLY = {
    "check_obvious_manipulability",
    "check_strategy_proofness",
    "check_truncation_proofness",
    "find_cir_pareto_improving_cycle",
    "find_efficient_core_matching",
    "run_ir_priority",
    "unambiguously_efficient/cycle",
    "unambiguously_in_weak_core/strict",
}
# Entry points whose parameters name a matching or a profile but that have
# nothing to check them against, and why.
UNCHECKED = {
    "apply_cycle": "cycle algebra on matchings alone, with no instance",
    "classify_cycle": "cycle algebra on matchings alone, with no instance",
    "decompose": "cycle algebra on matchings alone, with no instance",
    "distance": "cycle algebra on matchings alone, with no instance",
    "market_to_json": "writes a document; market_from_json checks what it reads",
}


def _held_twice(inst, mu, i, j):
    """Agent j's first object replaced by agent i's: held twice, sizes kept."""
    a, b = inst.agents[i], inst.agents[j]
    taken = min(mu.assignment[b])
    return {**mu.assignment, b: mu.assignment[b] - {taken} | {min(mu.assignment[a])}}


def _unknown_object(inst, mu, i, j):
    a = inst.agents[i]
    return {**mu.assignment, a: mu.assignment[a] - {min(mu.assignment[a])} | {"zz"}}


def _missing_agent(inst, mu, i, j):
    return {a: b for a, b in mu.assignment.items() if a != inst.agents[i]}


def _unbalanced(inst, mu, i, j):
    """One of agent i's objects moved to agent j."""
    a, b = inst.agents[i], inst.agents[j]
    moved = min(mu.assignment[a])
    return {**mu.assignment, a: mu.assignment[a] - {moved}, b: mu.assignment[b] | {moved}}


MATCHING_MUTATIONS = {
    "held twice": _held_twice,
    "unknown object": _unknown_object,
    "missing agent": _missing_agent,
    "unbalanced": _unbalanced,
}


def _no_preference(inst, prefs, i):
    return {a: p for a, p in prefs.items() if a != inst.agents[i]}


def _names_unknown_object(inst, prefs, i):
    a = inst.agents[i]
    return {**prefs, a: TrichotomousPreference(a, prefs[a].attractive | {"zz"}, prefs[a].bearable)}


def _endowment_outside(inst, prefs, i):
    """One object agent i owns taken out of its A and B."""
    a, p = inst.agents[i], prefs[inst.agents[i]]
    out = {min(inst.endowment[a])}
    return {**prefs, a: TrichotomousPreference(a, p.attractive - out, p.bearable - out)}


def _not_a_partition(inst, prefs, i):
    """Agent i's classes [A, B, rest] without the least object."""
    a = inst.agents[i]
    gone = {min(inst.objects)}
    classes = prefs[a].to_classes(inst.objects).classes
    return {**prefs, a: MarginalPreference(a, tuple(c - gone for c in classes))}


PROFILE_MUTATIONS = {
    "missing agent": _no_preference,
    "unknown object": _names_unknown_object,
    "endowment outside A ∪ B": _endowment_outside,
    "classes not a partition": _not_a_partition,
}


def _cases():
    """(entry point, input, mutation) for every mutation an entry point takes."""
    out = []
    for name, (_, takes_matching) in sorted(ENTRY_POINTS.items()):
        if takes_matching:
            out += [(name, "matching", m) for m in MATCHING_MUTATIONS]
        out += [
            (name, "profile", m)
            for m in PROFILE_MUTATIONS
            if not (name in MAPS and m == "classes not a partition")
        ]
    return out


@pytest.mark.parametrize("name, what, mutation", _cases())
@settings(derandomize=True, max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_agents=st.integers(2, 3),
    from_mechanism=st.booleans(),
    data=st.data(),
)
def test_every_entry_point_refuses_a_mutated_matching_or_profile(
    name, what, mutation, seed, n_agents, from_mechanism, data
):
    """Each entry point, called with one mutation of a valid CIR matching (the
    endowment or the mechanism's outcome) or of a valid trichotomous profile,
    raises ValidationError and returns nothing."""
    inst, prefs = random_market(seed, n_agents)
    mu = balex.run_ir_priority(inst, prefs)[0] if from_mechanism else inst.endowment_matching()
    i = data.draw(st.integers(0, n_agents - 1), label="agent")
    j = data.draw(st.sampled_from([k for k in range(n_agents) if k != i]), label="other")
    if what == "matching":
        mu = Matching(MATCHING_MUTATIONS[mutation](inst, mu, i, j))
    else:
        prefs = PROFILE_MUTATIONS[mutation](inst, prefs, i)
    call = ENTRY_POINTS[name][0]
    with pytest.raises(ValidationError):
        call(inst, mu, prefs)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_accepts_the_unmutated_inputs(name):
    """The mutations are the fault: on thm4-base's endowment and profile no
    entry point raises ValidationError (the obvious-manipulability search
    may refuse the opponent space)."""
    fx = load_fixture("thm4-base")
    try:
        ENTRY_POINTS[name][0](fx.instance, fx.instance.endowment_matching(), fx.prefs)
    except EnumerationLimitError:
        assert name == "check_obvious_manipulability"


@pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - MAPS))
def test_a_class_based_profile_is_refused_only_where_a_trichotomous_one_is_needed(name):
    """thm4-base's profile as [A, B, rest] classes: the entry points in
    TRICHOTOMOUS_ONLY refuse it with ValidationError, not a bare
    AttributeError from reading its A, and the others accept it."""
    fx = load_fixture("thm4-base")
    call = ENTRY_POINTS[name][0]
    args = fx.instance, fx.instance.endowment_matching(), marginal_profile(fx.instance, fx.prefs)
    if name in TRICHOTOMOUS_ONLY:
        with pytest.raises(ValidationError, match="needs a trichotomous profile$"):
            call(*args)
    else:
        call(*args)


def test_the_table_holds_every_entry_point_that_takes_a_matching_or_a_profile():
    """Every function in balex.__all__ with a `mu`, `prefs` or `attractive`
    parameter is in ENTRY_POINTS or, with its reason, in UNCHECKED, so a new
    entry point cannot skip the boundary."""
    found = {
        name
        for name in balex.__all__
        if inspect.isfunction(getattr(balex, name))
        and inspect.signature(getattr(balex, name)).parameters.keys() & {"mu", "prefs", "attractive"}
    }
    assert found == {name.split("/")[0] for name in ENTRY_POINTS} | set(UNCHECKED)


def test_a_base_matching_that_is_not_cir_is_bad_input():
    """The three entry points that need a CIR base matching refuse another one
    with ValidationError, which callers catch as bad input."""
    fx = load_fixture("thm4-base")  # 1: o, 2: p, 3: q1 q2, 4: r
    inst, prefs = fx.instance, fx.prefs
    swapped = Matching({**inst.endowment, "1": fs("p"), "2": fs("o")})  # p is unacceptable to 1
    calls = {
        "^base matching must be CIR at the given \\(A, B\\) profile$": ENTRY_POINTS["serial_refine"][0],
        "^base matching must be component-wise individually rational$": (
            balex.find_cir_pareto_improving_cycle
        ),
        "^strict-acceptability core audit requires a CIR candidate matching$": (
            ENTRY_POINTS["unambiguously_in_weak_core/strict"][0]
        ),
    }
    for message, call in calls.items():
        with pytest.raises(ValidationError, match=message):
            call(inst, swapped, prefs)

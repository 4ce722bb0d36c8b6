"""Shared test helpers: enumeration-based oracles for the mechanism pipeline."""

from __future__ import annotations

import random

from balex.audits import enumerate_matchings, welfare_vector
from balex.model import Instance, Matching, TrichotomousPreference, validate_instance
from balex.responsive import cir_trichotomous


def make_instance(sizes: list[int]) -> Instance:
    agents = [f"a{i + 1}" for i in range(len(sizes))]
    objects, endow, k = [], {}, 0
    for a, s in zip(agents, sizes):
        own = [f"o{k + j + 1}" for j in range(s)]
        k += s
        objects += own
        endow[a] = own
    return validate_instance({"agents": agents, "objects": objects, "endowments": endow})


def random_profile(
    instance: Instance, rng: random.Random, strongly: bool = False
) -> dict[str, TrichotomousPreference]:
    prefs = {}
    for a in instance.agents:
        attractive, bearable = set(), set()
        for o in instance.object_ids:
            if o in instance.endowment[a]:
                (attractive if rng.random() < 0.45 else bearable).add(o)
            else:
                roll = rng.random()
                if roll < 0.35:
                    attractive.add(o)
                elif roll < 0.65 and not strongly:
                    bearable.add(o)
        prefs[a] = TrichotomousPreference(a, frozenset(attractive), frozenset(bearable))
    return prefs


def on_masks(instance: Instance, run):
    """A stand-in for `run_ir_priority` on `instance` as a stand-in for the
    misreport audits' mechanism entry, `mechanism._final_masks`: the same
    final matching, as bundle masks."""

    def kernel(flow, a_masks, b_masks, endow):
        profile = {
            a: TrichotomousPreference(a, instance.unmask(x), instance.unmask(y))
            for a, x, y in zip(instance.agents, a_masks, b_masks)
        }
        final, _ = run(instance, profile)
        return [instance.mask(final.assignment[a]) for a in instance.agents]

    return kernel


def unbeatable(instance: Instance, prefs, final: Matching) -> list[bool]:
    """Per agent in priority order, whether its bundle in `final` holds
    min(size, |P|) objects of every class prefix P of its preference [A, B,
    rest]: then no bundle of its size holds more of any prefix, so no
    responsive extension ranks any such bundle strictly above it."""
    out = []
    for a in instance.agents:
        size, prefix, full = len(instance.endowment[a]), set(), True
        for cls in prefs[a].to_classes(instance.objects).classes:
            prefix |= cls
            full &= len(final.assignment[a] & prefix) == min(size, len(prefix))
        out.append(full)
    return out


def random_matching(instance: Instance, rng: random.Random) -> Matching:
    objs = list(instance.object_ids)
    rng.shuffle(objs)
    assignment, k = {}, 0
    for a in instance.agents:
        s = len(instance.endowment[a])
        assignment[a] = frozenset(objs[k : k + s])
        k += s
    return Matching(assignment)


def oracle_refine(
    instance: Instance,
    attractive: dict[str, frozenset[str]],
    bearable: dict[str, frozenset[str]],
    mu: Matching,
) -> tuple[Matching, tuple[int, ...]]:
    """Enumeration-based serial dictatorship over CIR matchings improving mu."""
    prefs = {a: TrichotomousPreference(a, attractive[a], bearable[a]) for a in instance.agents}
    base = welfare_vector(instance, mu, prefs)
    pool = [
        m
        for m in enumerate_matchings(instance)
        if cir_trichotomous(instance, m, prefs)
        and all(
            len(m.assignment[a] & attractive[a]) >= base[i]
            for i, a in enumerate(instance.agents)
        )
    ]
    assert pool, "oracle: constraint set empty"
    promises = []
    for a in instance.agents:
        k = max(len(m.assignment[a] & attractive[a]) for m in pool)
        promises.append(k)
        pool = [m for m in pool if len(m.assignment[a] & attractive[a]) == k]
    return min(pool, key=lambda m: m.key(instance)), tuple(promises)


def oracle_non_improvable(
    instance: Instance,
    attractive: dict[str, frozenset[str]],
    bearable_outer: dict[str, frozenset[str]],
    mu: Matching,
) -> frozenset[str]:
    prefs = {
        a: TrichotomousPreference(a, attractive[a], bearable_outer[a])
        for a in instance.agents
    }
    base = welfare_vector(instance, mu, prefs)
    pool = [
        m
        for m in enumerate_matchings(instance)
        if cir_trichotomous(instance, m, prefs)
        and all(
            len(m.assignment[a] & attractive[a]) >= base[i]
            for i, a in enumerate(instance.agents)
        )
    ]
    out = set()
    for i, a in enumerate(instance.agents):
        if all(len(m.assignment[a] & attractive[a]) <= base[i] for m in pool):
            out.add(a)
    return frozenset(out)


def oracle_mechanism(
    instance: Instance, prefs: dict[str, TrichotomousPreference]
) -> Matching:
    """Reference implementation of the full outer loop by exhaustive enumeration."""
    attractive = {a: prefs[a].attractive for a in instance.agents}
    true_b = {a: prefs[a].bearable for a in instance.agents}
    floor = {a: instance.endowment[a] - attractive[a] for a in instance.agents}
    ceil = {a: instance.objects - attractive[a] for a in instance.agents}
    elicited: frozenset[str] = frozenset()
    mu = instance.endowment_matching()
    for _ in range(len(instance.agents)):
        bearable = {a: true_b[a] if a in elicited else floor[a] for a in instance.agents}
        outer = {a: true_b[a] if a in elicited else ceil[a] for a in instance.agents}
        mu, _ = oracle_refine(instance, attractive, bearable, mu)
        non_improvable = oracle_non_improvable(instance, attractive, outer, mu)
        assert elicited <= non_improvable
        elicited = non_improvable
        if elicited == frozenset(instance.agents):
            final, _ = oracle_refine(instance, attractive, true_b, mu)
            return final
    raise AssertionError("oracle mechanism did not converge")

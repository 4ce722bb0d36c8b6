"""Reasoning about responsive extensions of marginal preferences.

A bundle order is responsive to a marginal order when swapping one object for
a marginally better one improves the bundle.  Marginals pin down only part of
the bundle order; the operations here decide what holds for EVERY responsive
extension (unambiguous comparisons, component-wise individual rationality) and
build explicit additive extensions as witnesses for the rest.

Comparisons use exact rational arithmetic throughout; no floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .model import (
    Instance,
    MarginalPreference,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
)


class BundleComparison(Enum):
    """Verdict of an unambiguous bundle comparison (equal-cardinality bundles only)."""

    ALWAYS_WEAKLY_BETTER = "always-weakly-better"
    ALWAYS_WEAKLY_WORSE = "always-weakly-worse"
    EQUIVALENT = "equivalent"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class ResponsiveExtension:
    """Additive utility representation of one responsive extension.

    Utilities are constant on indifference classes and strictly decreasing
    across them, so bundle sums respect the marginal order.  Additive implies
    responsive (not conversely); extensions built here serve as witnesses and
    falsifiers, never as the source of exact verdicts.
    """

    owner: str
    utility: Mapping[str, Fraction]

    def score(self, bundle: Iterable[str]) -> Fraction:
        u = self.utility
        return sum((u[o] for o in bundle), Fraction(0))

    def to_json(self) -> dict[str, str]:
        return {o: str(self.utility[o]) for o in sorted(self.utility)}


def prefix_counts(pref: MarginalPreference, bundle: Iterable[str]) -> tuple[int, ...]:
    """prefix[k-1] = number of bundle objects ranked in class k or better (k = 1..depth+1)."""
    depth = len(pref.classes)
    counts = [0] * (depth + 2)
    for o in bundle:
        counts[pref.ranks.get(o, depth + 1)] += 1
    for k in range(1, depth + 2):
        counts[k] += counts[k - 1]
    return tuple(counts[1:])


def compare_unambiguous(
    x: Iterable[str], y: Iterable[str], pref: MarginalPreference
) -> BundleComparison:
    """Compare two equal-cardinality bundles across all responsive extensions.

    X is always-weakly-better than Y exactly when a rank-preserving bijection
    from Y\\X onto X\\Y exists, which for weak orders reduces to prefix-count
    dominance: at every rank k, X holds at least as many objects of rank <= k
    as Y does.
    """
    xs, ys = frozenset(x), frozenset(y)
    if len(xs) != len(ys):
        raise ValueError(f"bundles must have equal cardinality ({len(xs)} vs {len(ys)})")
    px = prefix_counts(pref, xs)
    py = prefix_counts(pref, ys)
    if px == py:
        return BundleComparison.EQUIVALENT
    if all(a >= b for a, b in zip(px, py)):
        return BundleComparison.ALWAYS_WEAKLY_BETTER
    if all(a <= b for a, b in zip(px, py)):
        return BundleComparison.ALWAYS_WEAKLY_WORSE
    return BundleComparison.AMBIGUOUS


def exists_strict_preference(
    x: Iterable[str], y: Iterable[str], pref: MarginalPreference
) -> bool:
    """True iff some responsive extension of `pref` ranks X strictly above Y."""
    verdict = compare_unambiguous(y, x, pref)
    return verdict not in (BundleComparison.ALWAYS_WEAKLY_BETTER, BundleComparison.EQUIVALENT)


def strict_witness_extension(
    x: Iterable[str], y: Iterable[str], pref: MarginalPreference
) -> ResponsiveExtension:
    """An additive extension scoring X strictly above Y; the caller must have
    checked exists_strict_preference(x, y, pref) first."""
    xs, ys = frozenset(x), frozenset(y)
    depth = len(pref.classes)
    px = prefix_counts(pref, xs)
    py = prefix_counts(pref, ys)
    pivot = next((k for k in range(depth + 1) if px[k] > py[k]), None)
    if pivot is None:
        raise ValueError("no responsive extension ranks X above Y")
    # unit step at the pivot rank, plus a slope too small to overturn the step
    levels = depth + 1
    eps = Fraction(1, 2 * levels * (len(xs) + 1))
    values = [(1 if k <= pivot else 0) + eps * (levels - k) for k in range(depth)]
    ranks = pref.ranks
    ext = ResponsiveExtension(pref.owner, {o: values[ranks[o] - 1] for o in pref.universe()})
    if not ext.score(xs) > ext.score(ys):
        raise MechanismInvariantError("witness extension does not rank X strictly above Y")
    return ext


def random_extension(pref: MarginalPreference, rng: random.Random) -> ResponsiveExtension:
    """A random additive extension (random strictly decreasing class utilities)."""
    depth = max(1, len(pref.classes))
    raw = sorted((rng.randrange(1, 1000) for _ in range(depth)), reverse=True)
    values = [Fraction(v * depth + (depth - i), 1) for i, v in enumerate(raw)]
    utility = {o: values[pref.ranks[o] - 1] for o in pref.universe()}
    return ResponsiveExtension(pref.owner, utility)


def build_punishing_extension(
    pref: MarginalPreference, pivot: str, endowment_size: int
) -> ResponsiveExtension:
    """Additive extension with objects weakly above `pivot` valued in [0, 1) and
    objects strictly below valued in (-T-1, -T), T = endowment_size.

    Any bundle short on weakly-above-pivot objects then scores below the
    endowment, which certifies failures of individual rationality.
    """
    ranks = pref.ranks
    if pivot not in ranks:
        raise ValueError(f"pivot object {pivot!r} not ranked by agent {pref.owner!r}")
    pr = ranks[pivot]
    upper = [k for k, cls in enumerate(pref.classes, start=1) if cls and k <= pr]
    lower = [k for k, cls in enumerate(pref.classes, start=1) if cls and k > pr]
    t = endowment_size
    utility: dict[str, Fraction] = {}
    for o in pref.universe():
        k = ranks[o]
        if k <= pr:
            j = upper.index(k)
            utility[o] = Fraction(len(upper) - j, len(upper) + 1)
        else:
            j = lower.index(k)
            utility[o] = Fraction(-t, 1) - Fraction(j + 1, len(lower) + 1)
    return ResponsiveExtension(pref.owner, utility)


def cir_violation(
    instance: Instance, mu: Matching, prefs: Mapping[str, MarginalPreference]
) -> tuple[str, str] | None:
    """First (agent, pivot) pair violating component-wise individual rationality, if any.

    Agent i with endowed pivot ω violates when her bundle holds fewer objects
    weakly above ω than her endowment does.
    """
    for a in instance.agents:
        ranks = prefs[a].ranks
        bundle = mu.assignment[a]
        own = instance.endowment[a]
        for pivot in sorted(own):
            bar = ranks[pivot]
            have = sum(1 for o in bundle if ranks[o] <= bar)
            keep = sum(1 for o in own if ranks[o] <= bar)
            if have < keep:
                return a, pivot
    return None


def is_component_wise_IR(
    instance: Instance, mu: Matching, prefs: Mapping[str, MarginalPreference]
) -> bool:
    """Component-wise individual rationality, equivalent to unambiguous IR."""
    return cir_violation(instance, mu, prefs) is None


def cir_trichotomous(
    instance: Instance, mu: Matching, prefs: Mapping[str, TrichotomousPreference]
) -> bool:
    """CIR specialized to (A, B) form: bundle within A ∪ B and no attractive loss."""
    for a in instance.agents:
        p = prefs[a]
        bundle = mu.assignment[a]
        if bundle - p.acceptable():
            return False
        if len(bundle & p.attractive) < len(instance.endowment[a] & p.attractive):
            return False
    return True

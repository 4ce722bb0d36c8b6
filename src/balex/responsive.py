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
from itertools import accumulate
from operator import or_
from typing import Iterable, Mapping, Sequence

from .model import (
    AnyProfile,
    Instance,
    MarginalPreference,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
    matching_masks,
    profile_masks,
)


class BundleComparison(Enum):
    """Verdict of an unambiguous bundle comparison (equal-cardinality bundles only)."""

    ALWAYS_WEAKLY_BETTER = "always-weakly-better"
    ALWAYS_WEAKLY_WORSE = "always-weakly-worse"
    EQUIVALENT = "equivalent"
    AMBIGUOUS = "ambiguous"

    @property
    def admits_strict_preference(self) -> bool:
        """For the verdict on (X, Y): some responsive extension ranks X strictly above Y."""
        return self is BundleComparison.ALWAYS_WEAKLY_BETTER or self is BundleComparison.AMBIGUOUS


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
    counts = [0] * (depth + 1)
    for o in bundle:
        counts[pref.ranks.get(o, depth + 1) - 1] += 1
    return tuple(accumulate(counts))


def prefix_masks(instance: Instance, prefs: AnyProfile) -> list[list[int]]:
    """The mask twin of prefix_counts, per agent in priority order: entry k
    holds the objects ranked in class k + 1 or better of the agent's classes
    ([A, B, rest] for a trichotomous preference) and the last entry every
    object, so the popcounts of a bundle mask against these masks are the
    bundle's prefix_counts.  Built from model.profile_masks, which refuses an
    invalid profile."""
    full = (1 << len(instance.object_ids)) - 1
    return [[*accumulate(classes, or_), full] for classes in profile_masks(instance, prefs)]


def compare_prefix_counts(px: tuple[int, ...], py: tuple[int, ...]) -> BundleComparison:
    """Compare two equal-size bundles, given as prefix counts, across all responsive extensions.

    X is always-weakly-better than Y exactly when a rank-preserving bijection
    from Y\\X onto X\\Y exists, which for weak orders reduces to prefix-count
    dominance: at every rank k, X holds at least as many objects of rank <= k
    as Y does.  The last count is the bundle size.
    """
    if px[-1] != py[-1]:
        raise ValueError(f"bundles must have equal cardinality ({px[-1]} vs {py[-1]})")
    above = below = False  # X holds more (fewer) objects of rank <= k than Y, some k
    for a, b in zip(px, py):
        above |= a > b
        below |= a < b
    if above:
        return BundleComparison.AMBIGUOUS if below else BundleComparison.ALWAYS_WEAKLY_BETTER
    return BundleComparison.ALWAYS_WEAKLY_WORSE if below else BundleComparison.EQUIVALENT


def compare_unambiguous(
    x: Iterable[str], y: Iterable[str], pref: MarginalPreference
) -> BundleComparison:
    """Compare two equal-cardinality bundles of objects across all responsive extensions."""
    px, py = prefix_counts(pref, frozenset(x)), prefix_counts(pref, frozenset(y))
    return compare_prefix_counts(px, py)


def exists_strict_preference(x: Iterable[str], y: Iterable[str], pref: MarginalPreference) -> bool:
    """True iff some responsive extension of `pref` ranks X strictly above Y."""
    return compare_unambiguous(x, y, pref).admits_strict_preference


def strict_witness_extension(
    x: Iterable[str], y: Iterable[str], pref: MarginalPreference
) -> ResponsiveExtension:
    """An additive extension scoring X strictly above Y; the caller must have
    checked exists_strict_preference(x, y, pref) first."""
    xs, ys = frozenset(x), frozenset(y)
    depth = len(pref.classes)
    px, py = prefix_counts(pref, xs), prefix_counts(pref, ys)
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


def cir_violation(instance: Instance, mu: Matching, prefs: AnyProfile) -> tuple[str, str] | None:
    """First (agent, pivot) pair violating component-wise individual rationality, if any.

    Agent i with endowed pivot ω violates when her bundle holds fewer objects
    weakly above ω than her endowment does.  `mu` and `prefs` are checked
    with model.matching_masks and model.profile_masks; a trichotomous
    preference is read as its classes [A, B, rest].
    """
    return _cir_violation(instance, matching_masks(instance, mu), prefix_masks(instance, prefs))


def _cir_violation(
    instance: Instance, bundles: Sequence[int], prefixes: Sequence[Sequence[int]]
) -> tuple[str, str] | None:
    """cir_violation on checked bundle masks and each agent's prefix_masks:
    the least endowed object, by identifier, of any class at whose prefix
    the bundle holds fewer objects than the endowment does."""
    for a, bundle, own, ps in zip(instance.agents, bundles, instance.endowment_masks, prefixes):
        bad = prev = 0
        for p in ps:
            pivots = own & p & ~prev
            if pivots and (bundle & p).bit_count() < (own & p).bit_count():
                bad |= pivots
            prev = p
        if bad:
            return a, instance.object_ids[(bad & -bad).bit_length() - 1]
    return None


def is_component_wise_IR(instance: Instance, mu: Matching, prefs: AnyProfile) -> bool:
    """Component-wise individual rationality, equivalent to unambiguous IR."""
    return cir_violation(instance, mu, prefs) is None


def cir_trichotomous(
    instance: Instance, mu: Matching, prefs: Mapping[str, TrichotomousPreference]
) -> bool:
    """CIR specialized to (A, B) form: bundle within A ∪ B and no attractive
    loss.  The profile rule puts each endowment within A ∪ B, so this is
    is_component_wise_IR under the classes [A, B, rest]."""
    return is_component_wise_IR(instance, mu, prefs)

"""Exact solvers for constrained attractive-count maximization over matchings.

The constraint systems the mechanism generates fix, per agent, a set of allowed
objects, a lower bound on the number of attractive objects received and
optionally an exact count (once a promise is locked).  Queries are answered on
the flownet network of the constraint system, which finds its first feasible
point in two phases: augmenting paths fill every agent, then cycles raise the
attractive counts below their lower bounds.  brute_force_max answers the same
queries by exhaustive enumeration and serves as the oracle everything else is
checked against.

Counts are integral throughout; witnesses are tie-broken to the canonical
lexicographic minimum (agent priority order, then object identifier order).

This module also holds the library's one matching enumerator, which the
brute-force oracle and the exhaustive audits share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .flownet import ExchangeFlow
from .model import Instance, Matching, ValidationError, _matching_from_masks, canon


class InfeasibleError(ValueError):
    """Raised when a constraint system admits no matching."""


class EnumerationLimitError(ValueError):
    """Raised when a brute-force operation is asked to enumerate too large a space."""


@dataclass(frozen=True)
class WelfareConstraints:
    """Per-agent candidate sets and attractive-count bounds for one query.

    allowed[i] is the set an agent's bundle must come from, attractive[i] the
    objects counted toward her welfare, min_attractive[i] a lower bound on that
    count and exact_attractive[i] (when present) pins it exactly.
    """

    allowed: Mapping[str, frozenset[str]]
    attractive: Mapping[str, frozenset[str]]
    min_attractive: Mapping[str, int]
    exact_attractive: Mapping[str, int] = field(default_factory=dict)

    def check(self, instance: Instance) -> None:
        """ValidationError for an agent or an object the instance does not
        have, ValueError for bounds that no bundle can meet."""
        agents = {*self.allowed, *self.attractive, *self.min_attractive, *self.exact_attractive}
        objects = set().union(*self.allowed.values(), *self.attractive.values())
        unknown = [("agent", agents - set(instance.agents)), ("object", objects - instance.objects)]
        for kind, stray in unknown:
            if stray:
                raise ValidationError(f"constraints name unknown {kind}(s) {canon(stray)}")
        for a in instance.agents:
            size = len(instance.endowment[a])
            if self.min_attractive.get(a, 0) > size:
                raise ValueError(
                    f"agent {a!r}: min_attractive exceeds the endowment size {size}"
                )
            if a in self.exact_attractive and self.exact_attractive[a] < self.min_attractive.get(a, 0):
                raise ValueError(f"agent {a!r}: exact_attractive below min_attractive")


def feasible(instance: Instance, constraints: WelfareConstraints) -> Matching | None:
    """Some matching satisfying the constraints (canonical witness), or None."""
    flow = _make_flow(instance, constraints)
    if not flow.solve_feasible():
        return None
    return _matching_from_masks(instance, flow.extract_canonical(flow.order))


def max_attractive(
    instance: Instance, constraints: WelfareConstraints, target: str
) -> tuple[int, Matching]:
    """Maximum attainable |bundle(target) ∩ A_target| over the constraint set, with witness."""
    t = _target_index(instance, target)
    flow = _make_flow(instance, constraints)
    if not flow.solve_feasible():
        raise InfeasibleError("constraint set is empty")
    best = flow.maximize(t)
    flow.freeze(t)
    return best, _matching_from_masks(instance, flow.extract_canonical(flow.order))


def _target_index(instance: Instance, target: str) -> int:
    if target not in instance.agent_index:
        raise ValidationError(f"unknown target agent {target!r}")
    return instance.agent_index[target]


def _make_flow(instance: Instance, constraints: WelfareConstraints) -> ExchangeFlow:
    constraints.check(instance)
    exact = constraints.exact_attractive
    lo = [exact.get(a, constraints.min_attractive.get(a, 0)) for a in instance.agents]
    hi = [exact.get(a, size) for a, size in zip(instance.agents, instance.sizes)]
    flow = ExchangeFlow(instance.sizes, n_objects=len(instance.object_ids))
    flow.install(
        [instance.mask(constraints.attractive.get(a, frozenset())) for a in instance.agents],
        [instance.mask(constraints.allowed.get(a, frozenset())) for a in instance.agents],
        lo,
        hi,
    )
    return flow


def mask_matchings(
    sizes: Sequence[int],
    objects: int,
    keep: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every distribution of the objects in mask `objects` (bit k is the k-th
    object in identifier order) that gives agent i sizes[i] of them, as
    per-agent bundle masks: a market's matchings for the full mask, a
    coalition's reallocations for its endowment mask.  Agents in order each
    take a combination of the remaining objects in index order, so matchings
    come out in canonical order; `keep(i, mask)` prunes the bundles of agent i."""
    n = len(sizes)
    acc = [0] * n

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(acc)
            return
        bits = [1 << k for k in range(remaining.bit_length()) if remaining >> k & 1]
        for combo in itertools.combinations(bits, sizes[i]):
            mask = sum(combo)
            if keep is not None and not keep(i, mask):
                continue
            acc[i] = mask
            yield from rec(i + 1, remaining ^ mask)

    return rec(0, objects)


def _matchings(
    instance: Instance, keep: Callable[[int, int], bool] | None = None
) -> Iterator[Matching]:
    """mask_matchings on the instance, as Matching objects."""
    for masks in mask_matchings(instance.sizes, (1 << len(instance.object_ids)) - 1, keep):
        yield _matching_from_masks(instance, masks)


def _check_enumeration_bound(instance: Instance, bound: int) -> None:
    if len(instance.objects) > bound:
        raise EnumerationLimitError(
            f"instance has {len(instance.objects)} objects, enumeration bound is {bound}"
        )


def enumerate_matchings(instance: Instance, bound: int = 10) -> Iterator[Matching]:
    """Every matching of the instance exactly once, in canonical order."""
    _check_enumeration_bound(instance, bound)
    yield from _matchings(instance)


def enumerate_constrained(
    instance: Instance, constraints: WelfareConstraints
) -> Iterator[Matching]:
    """All matchings satisfying the constraints, in canonical order."""
    constraints.check(instance)
    agents = instance.agents
    allowed = [instance.mask(constraints.allowed.get(a, frozenset())) for a in agents]
    attractive = [instance.mask(constraints.attractive.get(a, frozenset())) for a in agents]
    low = [constraints.min_attractive.get(a, 0) for a in agents]
    exact = [constraints.exact_attractive.get(a) for a in agents]

    def keep(i: int, mask: int) -> bool:
        got = (mask & attractive[i]).bit_count()
        return not mask & ~allowed[i] and got >= low[i] and exact[i] in (None, got)

    return _matchings(instance, keep)


def brute_force_max(
    instance: Instance,
    constraints: WelfareConstraints,
    target: str,
    bound: int = 10,
) -> tuple[int, Matching]:
    """Oracle twin of max_attractive by exhaustive enumeration (small instances only)."""
    _check_enumeration_bound(instance, bound)
    _target_index(instance, target)
    a_target = constraints.attractive.get(target, frozenset())
    best = -1
    witness: Matching | None = None
    for mu in enumerate_constrained(instance, constraints):
        got = len(mu.assignment[target] & a_target)
        if got > best:
            best = got
            witness = mu
    if witness is None:
        raise InfeasibleError("constraint set is empty")
    return best, witness


def network_dump(instance: Instance, constraints: WelfareConstraints) -> str:
    """Text dump of the flow network for one constraint system (debug aid)."""
    flow = _make_flow(instance, constraints)
    flow.solve_feasible()
    return flow.dump()

"""Cycle algebra on matchings: distance, decomposition, application, welfare effects.

A cycle of a matching is an alternating agent/object sequence describing a
balanced reallocation step: each listed agent receives the object listed with
her and hands the previous agent's object on.  Any difference between two
matchings decomposes into object-disjoint cycles, which is what lets the
mechanism and the efficiency audits reason locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .mechanism import _non_improvable
from .model import (
    Instance,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
    ValidationError,
    matching_masks,
    require_trichotomous,
)
from .optimize import WelfareConstraints, max_attractive
from .responsive import _cir_violation, prefix_masks


@dataclass(frozen=True)
class Cycle:
    """Steps ((i_1, o_1), ..., (i_L, o_L)): agent i_l receives o_l and gives o_{l-1}
    (cyclically).  Validity is relative to a base matching, checked by
    `validate_against` and eagerly by the `of` constructor."""

    steps: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        agents = [a for a, _ in self.steps]
        objects = [o for _, o in self.steps]
        if len(self.steps) < 2:
            raise ValueError("a cycle involves at least two agents")
        if len(set(agents)) != len(agents) or len(set(objects)) != len(objects):
            raise ValueError("cycle agents and objects must be distinct")

    @classmethod
    def of(cls, mu: Matching, steps: tuple[tuple[str, str], ...]) -> Cycle:
        c = cls(tuple(steps))
        c.validate_against(mu)
        return c

    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.steps)

    def objects(self) -> tuple[str, ...]:
        return tuple(o for _, o in self.steps)

    def validate_against(self, mu: Matching) -> None:
        steps = self.steps
        for l in range(len(steps)):
            agent, received = steps[l]
            gives = steps[l - 1][1]  # step l-1 wraps to the last step for l = 0
            if gives not in mu.assignment[agent]:
                raise ValueError(
                    f"invalid cycle: agent {agent!r} does not hold {gives!r}"
                )
            if received in mu.assignment[agent]:
                raise ValueError(
                    f"invalid cycle: agent {agent!r} already holds {received!r}"
                )

    def rotated(self) -> Cycle:
        """Same cycle, started at its lexicographically least agent."""
        k = min(range(len(self.steps)), key=lambda i: self.steps[i][0])
        return Cycle(self.steps[k:] + self.steps[:k])

    def to_json(self) -> list[list[str]]:
        """Trace serialization: an array of (agent, received object) pairs."""
        return [[a, o] for a, o in self.steps]


def distance(mu: Matching, nu: Matching) -> int:
    """Number of bundle slots filled differently between two matchings."""
    return sum(
        len(mu.assignment[a]) - len(mu.assignment[a] & nu.assignment[a])
        for a in mu.assignment
    )


def apply_cycle(mu: Matching, cycle: Cycle) -> Matching:
    """Execute a cycle: every listed agent swaps the previous object for her own."""
    cycle.validate_against(mu)
    assignment = {a: set(b) for a, b in mu.assignment.items()}
    steps = cycle.steps
    for l in range(len(steps)):
        agent, received = steps[l]
        gives = steps[l - 1][1]
        assignment[agent].discard(gives)
        assignment[agent].add(received)
    return Matching({a: frozenset(b) for a, b in assignment.items()})


def reverse_cycle(cycle: Cycle) -> Cycle:
    """The cycle undoing all trades: applying it after the original restores the base."""
    steps = cycle.steps
    length = len(steps)
    rev = [(steps[0][0], steps[-1][1])]
    for k in range(1, length):
        rev.append((steps[length - k][0], steps[length - k - 1][1]))
    return Cycle(tuple(rev))


def decompose(nu: Matching, mu: Matching) -> list[Cycle]:
    """Object-disjoint cycles of `mu` whose execution yields `nu`; empty iff equal."""
    owner_nu: dict[str, str] = {}
    for a, bundle in nu.assignment.items():
        for o in bundle:
            owner_nu[o] = a
    cur = {a: set(b) for a, b in mu.assignment.items()}
    owner_cur = {o: a for a, b in cur.items() for o in b}

    cycles: list[Cycle] = []
    while True:
        moved = sorted(o for o, a in owner_cur.items() if owner_nu[o] != a)
        if not moved:
            break
        # walk: each receiver's object leads to its current holder, who in turn
        # needs her own smallest missing object, until a holder repeats
        seq: list[tuple[str, str]] = []
        pos: dict[str, int] = {}
        obj = moved[0]
        agent = owner_nu[obj]
        while agent not in pos:
            pos[agent] = len(seq)
            seq.append((agent, obj))
            holder = owner_cur[obj]
            if holder in pos:
                agent = holder
                break
            obj = min(nu.assignment[holder] - frozenset(cur[holder]))
            agent = holder
        steps = tuple(seq[pos[agent]:])
        cycle = Cycle.of(Matching({a: frozenset(b) for a, b in cur.items()}), steps)
        cycles.append(cycle.rotated())
        for l in range(len(steps)):
            receiver, received = steps[l]
            gives = steps[l - 1][1]
            cur[receiver].discard(gives)
            cur[receiver].add(received)
            owner_cur[received] = receiver
    return cycles


@dataclass(frozen=True)
class CycleEffect:
    """Welfare classification of a cycle relative to a base matching."""

    cir: bool
    increases: frozenset[str]
    decreases: frozenset[str]
    pareto_improving: bool


def classify_cycle(
    cycle: Cycle, mu: Matching, prefs: Mapping[str, TrichotomousPreference]
) -> CycleEffect:
    """CIR flag plus the sets of agents whose attractive count rises or falls."""
    cycle.validate_against(mu)
    steps = cycle.steps
    cir = True
    increases: set[str] = set()
    decreases: set[str] = set()
    for l in range(len(steps)):
        agent, received = steps[l]
        gives = steps[l - 1][1]
        p = prefs[agent]
        if received not in p.attractive and received not in p.bearable:
            cir = False
        delta = int(received in p.attractive) - int(gives in p.attractive)
        if delta > 0:
            increases.add(agent)
        elif delta < 0:
            decreases.add(agent)
    return CycleEffect(
        cir=cir,
        increases=frozenset(increases),
        decreases=frozenset(decreases),
        pareto_improving=bool(increases) and not decreases,
    )


def _preferred_missing(
    nu_bundle: frozenset[str], mu_bundle: frozenset[str], pref: TrichotomousPreference
) -> str:
    gained = nu_bundle - mu_bundle
    attractive = sorted(gained & pref.attractive)
    if attractive:
        return attractive[0]
    return min(gained)


def find_cir_pareto_improving_cycle(
    instance: Instance,
    mu: Matching,
    prefs: Mapping[str, TrichotomousPreference],
) -> Cycle | None:
    """Some CIR Pareto-improving cycle of `mu`, or None iff `mu` is unambiguously
    efficient (for component-wise individually rational `mu`).

    One improvability network finds the first agent (in priority order) that
    some CIR matching weakly improving `mu` makes strictly better off; that
    agent's maximization query gives a strictly improving witness matching.  The
    witness is then shrunk by discarding welfare-neutral subcycles of the
    most-preferred-object graph until the remaining trade is itself a
    Pareto-improving cycle.  `mu` and `prefs` are checked with
    model.matching_masks, model.require_trichotomous and model.profile_masks,
    and a `mu` that is not CIR is a ValidationError too.
    """
    require_trichotomous(prefs, "the improving-cycle search")
    bundles = matching_masks(instance, mu)
    prefixes = prefix_masks(instance, prefs)
    if _cir_violation(instance, bundles, prefixes):
        raise ValidationError("base matching must be component-wise individually rational")
    stuck = _non_improvable(instance, prefixes, bundles)
    attractive = {a: prefs[a].attractive for a in instance.agents}
    target = next((a for a in instance.agents if a not in stuck), None)
    if target is None:
        return None
    welfare = {a: len(mu.assignment[a] & attractive[a]) for a in instance.agents}
    constraints = WelfareConstraints(
        allowed={a: prefs[a].acceptable() for a in instance.agents},
        attractive=attractive,
        min_attractive=welfare,
    )
    best, nu = max_attractive(instance, constraints, target)
    if best <= welfare[target]:
        raise MechanismInvariantError(
            f"agent {target!r} is improvable but its maximum does not exceed its welfare"
        )
    while True:
        moved = sorted(a for a in instance.agents if mu.assignment[a] != nu.assignment[a])
        owner_mu = {o: a for a, b in mu.assignment.items() for o in b}
        start = moved[0]
        seq: list[tuple[str, str]] = []
        pos: dict[str, int] = {}
        agent = start
        while agent not in pos:
            pos[agent] = len(seq)
            obj = _preferred_missing(nu.assignment[agent], mu.assignment[agent], prefs[agent])
            seq.append((agent, obj))
            agent = owner_mu[obj]
        cycle = Cycle.of(mu, tuple(seq[pos[agent]:])).rotated()
        effect = classify_cycle(cycle, mu, prefs)
        if effect.increases:
            if effect.decreases or not effect.cir:
                raise MechanismInvariantError(
                    "improving-cycle construction produced a non-CIR or non-Pareto cycle"
                )
            return cycle
        # welfare-neutral trade: strip it from the witness and retry
        nu = apply_cycle(nu, reverse_cycle(cycle))
        if nu == mu:
            raise MechanismInvariantError("witness degenerated to the base matching")

"""The individually rational priority mechanism.

Inner loop: a serial dictatorship over the component-wise individually
rational matchings that weakly improve the current one — agent by agent in
priority order, each agent's attainable attractive count is maximized and
locked in as her promise.  Outer loop: starting from the endowment and the
minimal bearable sets, agents whose promise can no longer grow even under
maximal bearable sets for everyone un-elicited are asked to reveal their true
bearable sets, and the dictatorship is re-run; the loop ends when nobody can
improve, after at most one round per agent.  A re-run over an unchanged
constraint system would repeat the last pass, so it is skipped: when every
agent revealed since that pass reports just its endowment outside its
attractive set, as on strongly trichotomous profiles.  `flow_queries` counts
the queries a run actually asks.

Elicitation is simulated: the full profile is an input, but the trace records
the round at which each agent's bearable set was first read, so the claim that
the mechanism consumes bearable-set information only once an agent stops
improving is a checkable trace property.

A run is `_run_masks`, which works on object masks throughout, on a network
its caller passes; the misreport audits call it on (A, B) masks directly, all
runs of one search on one network.  `run_ir_priority` validates and masks the
profile, runs it on a new network and names only the final matching.  The
trace keeps the other rounds as masks, with a snapshot of the reported
profile, and names them when `MechanismTrace.rounds` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .flownet import ExchangeFlow
from .model import (
    Instance,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
    validate_matching,
)
from .responsive import cir_trichotomous

# Per agent in priority order, the reported (attractive, bearable) sets.
Profile = tuple[tuple[frozenset[str], frozenset[str]], ...]
# One round as a run keeps it: bundle masks, promises, and the non-improvable
# agents as a mask over agent indices.
MaskRound = tuple[list[int], list[int], int]


@dataclass(frozen=True)
class RoundState:
    """One outer round: matching, promises, non-improvable set and bearable maps."""

    round: int
    mu: Matching
    promises: tuple[int, ...]
    non_improvable: frozenset[str]
    bearable: dict[str, frozenset[str]]
    bearable_outer: dict[str, frozenset[str]]


@dataclass(frozen=True, eq=False)
class MechanismTrace:
    """Full record of a run: per-round states, first-elicitation rounds, final matching.

    A run keeps its rounds as masks, next to a snapshot of the reported
    profile, and names only the final matching.  `rounds` names the rest the
    first time it is read and keeps the result; its last entry is the final
    pass, whose `mu` is `final`.
    """

    final: Matching
    elicitation_round: dict[str, int]
    flow_queries: int
    _instance: Instance = field(repr=False)
    _profile: Profile = field(repr=False)
    _masks: tuple[MaskRound, ...] = field(repr=False)

    @cached_property
    def rounds(self) -> tuple[RoundState, ...]:
        return tuple(_name_rounds(self._instance, self._profile, self._masks, self.final))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MechanismTrace):
            return NotImplemented
        return (self.rounds, self.final, self.elicitation_round, self.flow_queries) == (
            other.rounds, other.final, other.elicitation_round, other.flow_queries
        )


def _name_rounds(
    instance: Instance,
    profile: Profile,
    rounds: Sequence[MaskRound],
    final: Matching | None = None,
) -> list[RoundState]:
    """The named states of `rounds`; the last one's matching is `final` when given.

    An agent's bearable set is its reported one once it is non-improvable;
    before that, the endowed objects outside its attractive set (`bearable`)
    and every object outside it (`bearable_outer`).
    """
    agents = instance.agents
    named = []
    for t, (bundles, promises, elicited) in enumerate(rounds, start=1):
        if final is not None and t == len(rounds):
            mu = final
        else:
            mu = Matching({a: instance.unmask(bundles[i]) for i, a in enumerate(agents)})
        bearable, outer = {}, {}
        for i, a in enumerate(agents):
            attractive, true = profile[i]
            if elicited >> i & 1:
                bearable[a] = outer[a] = true
            else:
                bearable[a] = instance.endowment[a] - attractive
                outer[a] = instance.objects - attractive
        named.append(
            RoundState(
                round=t,
                mu=mu,
                promises=tuple(promises),
                non_improvable=frozenset(a for i, a in enumerate(agents) if elicited >> i & 1),
                bearable=bearable,
                bearable_outer=outer,
            )
        )
    return named


def _query_masks(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
    mu: Matching,
) -> tuple[list[int], list[int], list[int]]:
    """Attractive masks, allowed (A ∪ B) masks and the bundle masks of `mu`."""
    a_masks = [instance.mask(attractive[a]) for a in instance.agents]
    allowed = [instance.mask(attractive[a] | bearable[a]) for a in instance.agents]
    mu_masks = [instance.mask(mu.assignment[a]) for a in instance.agents]
    return a_masks, allowed, mu_masks


def _network(sizes: list[int], m: int) -> ExchangeFlow:
    """A network for the constraint systems of a market with these agent
    sizes and m objects; it holds none until `_start` installs one."""
    n = len(sizes)
    return ExchangeFlow(sizes, [0] * n, [0] * n, [0] * n, n_objects=m)


def _start(
    flow: ExchangeFlow, a_masks: list[int], allowed: list[int], incumbent: list[int]
) -> ExchangeFlow:
    """`flow`, restarted on the CIR matchings under these masks that give
    every agent at least as many attractive objects as the `incumbent`
    matching, from that matching."""
    if not flow.restart(a_masks, allowed, incumbent):
        raise MechanismInvariantError("the incumbent matching does not satisfy the constraint set")
    return flow


def _dictatorship(flow: ExchangeFlow) -> list[int]:
    """Serial dictatorship core: promises K^1..K^n over the constrained flow."""
    promises = []
    for i in range(flow.n):
        promises.append(flow.maximize(i))
        flow.freeze(i)
    return promises


def _refine_masks(
    sizes: list[int],
    a_masks: list[int],
    allowed: list[int],
    incumbent: list[int],
    m: int,
) -> tuple[list[int], ExchangeFlow]:
    """One serial-dictatorship pass from `incumbent`: promises and the network."""
    flow = _start(_network(sizes, m), a_masks, allowed, incumbent)
    return _dictatorship(flow), flow


def serial_refine(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
    mu: Matching,
) -> tuple[Matching, tuple[int, ...]]:
    """One full serial-dictatorship pass over the CIR matchings weakly improving `mu`.

    Returns the canonical (lexicographically least) matching complying with all
    promises, plus the promise vector.  An unbalanced `mu` raises ValidationError.
    """
    validate_matching(instance, mu.assignment)
    prefs = {
        a: TrichotomousPreference(a, frozenset(attractive[a]), frozenset(bearable[a]))
        for a in instance.agents
    }
    if not cir_trichotomous(instance, mu, prefs):
        raise ValueError("base matching must be CIR at the given (A, B) profile")
    a_masks, allowed, mu_masks = _query_masks(instance, attractive, bearable, mu)
    promises, flow = _refine_masks(
        list(instance.sizes), a_masks, allowed, mu_masks, len(instance.object_ids)
    )
    bundles = flow.extract_canonical(list(range(len(instance.agents))))
    matching = Matching(
        {a: instance.unmask(bundles[i]) for i, a in enumerate(instance.agents)}
    )
    return matching, tuple(promises)


def non_improvable_set(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable_outer: Mapping[str, frozenset[str]],
    mu: Matching,
) -> frozenset[str]:
    """Agents whose attractive count cannot rise in any CIR matching weakly
    improving `mu` under the given (maximal) bearable sets.  An unbalanced
    `mu` raises ValidationError."""
    validate_matching(instance, mu.assignment)
    a_masks, allowed, mu_masks = _query_masks(instance, attractive, bearable_outer, mu)
    flow = _start(
        _network(list(instance.sizes), len(instance.object_ids)), a_masks, allowed, mu_masks
    )
    return frozenset(a for i, a in enumerate(instance.agents) if not flow.can_improve(i))


class _RunFailed(MechanismInvariantError):
    """A broken invariant inside `_run_masks`; its second argument holds the
    finished rounds as masks, which `run_ir_priority` names."""


def _run_masks(
    flow: ExchangeFlow,
    a_masks: list[int],
    b_masks: list[int],
    endow: list[int],
) -> tuple[list[int], list[MaskRound], dict[int, int], int]:
    """The mechanism on masks, on `flow`, a network for the market's sizes and
    object count: per agent in priority order its reported attractive and
    bearable masks and its endowment mask.

    Returns the final bundle masks, the rounds (the last is the final pass),
    the round at which each agent's bearable set was first read, by agent
    index in elicitation order, and the flow-query count.  Each endowment must
    lie within its agent's A ∪ B.  The run installs its first system on `flow`,
    whatever an earlier run left there; each round's refinement, improvability
    check and the final pass then retarget it at the matching it holds.

    A round's pass, and the final pass, run only when the system's bearable
    masks differ from those of the last pass that ran; otherwise they keep
    that pass's bundles and promises.  Lemma: a serial-dictatorship pass over
    a system whose lower bounds are an earlier pass's own promises, on that
    pass's allowed masks, returns the same promises and the same canonical
    matching.  Each promise is still attainable (the held matching attains
    it) and no larger count is, as the earlier pass ran on a superset, so
    once every agent is frozen the feasible set is {each agent's attractive
    count = its promise}, as it was.  `maximize` reaches the exact maximum
    and extraction pins the lexicographically least point of that set;
    neither depends on the flow it starts from.  Retargeting sets the lower
    bounds to the held matching's counts, the last pass's promises, so the
    lemma applies whenever no agent elicited since that pass reports a
    bearable set other than its endowment outside A: after the first pass,
    always on strongly trichotomous profiles.
    """
    n = flow.n
    full = (1 << flow.m) - 1
    b_floor = [e & ~a for e, a in zip(endow, a_masks)]
    b_ceil = [full & ~a for a in a_masks]
    everyone = (1 << n) - 1
    elicited = 0
    rounds: list[MaskRound] = []
    elicitation_round: dict[int, int] = {}
    order = list(range(n))
    _start(flow, a_masks, [a | b for a, b in zip(a_masks, b_floor)], endow)
    bearable, solved = b_floor, None  # the held system's bearable masks, the last pass's

    for t in range(1, n + 2):
        if bearable != solved:
            promises = _dictatorship(flow)
            bundles = flow.extract_canonical(order)
            solved = bearable
        if elicited == everyone:
            break  # that was the final pass, with every true bearable set revealed
        if t > n:
            raise _RunFailed(f"outer loop did not terminate within {n} rounds", rounds)

        # per agent, its true bearable mask once elicited, else the widest
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
        bearable = [b_masks[i] if elicited >> i & 1 else b_floor[i] for i in order]
        flow.retarget(bearable)

    rounds.append((bundles, promises, everyone))
    return bundles, rounds, elicitation_round, flow.queries


def run_ir_priority(
    instance: Instance, prefs: Mapping[str, TrichotomousPreference]
) -> tuple[Matching, MechanismTrace]:
    """Run the priority mechanism; returns the final matching and a full trace.

    The outer loop performs at most one elicitation round per agent; failure of
    the non-improvable set to grow raises MechanismInvariantError with the
    named states of the finished rounds as its second argument.  The run
    itself is `_run_masks`; the rounds stay masks, and the agent sets bitmasks
    over agent indices, until the trace is read.
    """
    agents = instance.agents
    profile: Profile = tuple((prefs[a].attractive, prefs[a].bearable) for a in agents)
    a_masks = [instance.mask(attractive) for attractive, _ in profile]
    b_masks = [instance.mask(bearable) for _, bearable in profile]
    endow = list(instance.endowment_masks)
    for i, a in enumerate(agents):
        if endow[i] & ~(a_masks[i] | b_masks[i]):
            raise ValueError(f"agent {a!r}: endowment not contained in A ∪ B")
    try:
        bundles, rounds, elicited, queries = _run_masks(
            _network(list(instance.sizes), len(instance.object_ids)), a_masks, b_masks, endow
        )
    except _RunFailed as exc:
        message, finished = exc.args
        raise MechanismInvariantError(message, _name_rounds(instance, profile, finished)) from exc
    final = Matching({a: instance.unmask(bundles[i]) for i, a in enumerate(agents)})
    trace = MechanismTrace(
        final=final,
        elicitation_round={agents[i]: t for i, t in elicited.items()},
        flow_queries=queries,
        _instance=instance,
        _profile=profile,
        _masks=tuple(rounds),
    )
    return final, trace


def trace_to_json(instance: Instance, trace: MechanismTrace) -> dict[str, object]:
    """Stable-field-order JSON rendering of a mechanism trace."""

    def setmap(d: Mapping[str, frozenset[str]]) -> dict[str, list[str]]:
        return {a: sorted(d[a]) for a in instance.agents}

    return {
        "rounds": [
            {
                "round": r.round,
                "matching": {a: sorted(r.mu.assignment[a]) for a in instance.agents},
                "promises": list(r.promises),
                "non_improvable": sorted(r.non_improvable),
                "bearable": setmap(r.bearable),
                "bearable_outer": setmap(r.bearable_outer),
            }
            for r in trace.rounds
        ],
        "final": {a: sorted(trace.final.assignment[a]) for a in instance.agents},
        "elicitation_round": {
            a: trace.elicitation_round[a] for a in instance.agents
        },
        "flow_queries": trace.flow_queries,
    }

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
its caller builds with `ExchangeFlow(sizes, n_objects=m)` and passes in.  The
misreport audits call `_final_masks` on (A, B) masks directly, all runs of
one search, the truthful one included, on one network; it returns only a
run's final bundles, and on a strongly trichotomous profile runs the single
pass those bundles come from, without the elicitation loop and its invariant
checks (Lemma (b) of `_run_masks`).  Each run installs its system from the
endowment with `ExchangeFlow.install`: one pass per agent, or, on a network
whose first install was from the endowment too, a pass over the agents whose
reported masks differ from that install's.
`run_ir_priority` masks the profile, runs it on a new network and names only
the final matching, the only matching a run extracts.  The trace keeps the
other rounds as the run kept them, with a snapshot of the reported profile:
an earlier pass as its bearable masks, its promises and the matching the
network held after it.  When `MechanismTrace.rounds` is first read, the
earlier passes are extracted on one new network, each installed on it from
its held matching, and the rounds are named.  The queries from a base
matching (`serial_refine`, `non_improvable_set` and the improving-cycle
search in `cycles`) each run on one network, installed from it by
`_from_base`.

Input errors: the public entry points take their masks from
`model.profile_masks` and `model.matching_masks`, which raise ValidationError
for a profile or a matching that is not valid for the instance; this module
checks nothing of its own beyond that, except that a base matching must be
CIR (`_from_base`) and the mechanism's profile trichotomous
(`model.require_trichotomous`).
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
    ValidationError,
    _matching_from_masks,
    matching_masks,
    profile_masks,
    require_trichotomous,
)
from .responsive import _cir_violation, prefix_masks

# Per agent in priority order, the reported (attractive, bearable) sets.
Profile = tuple[tuple[frozenset[str], frozenset[str]], ...]
# One round with its pass resolved: bundle masks, promises, and the
# non-improvable agents as a mask over agent indices.
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

    A run keeps its rounds as `_run_masks` keeps them, next to a snapshot of
    the reported profile, and names only the final matching.  `round_count`
    counts them; `rounds` extracts each earlier pass and names the rounds the
    first time it is read, and keeps the result.  Its last entry is the final
    pass, whose `mu` is `final`.
    """

    final: Matching
    elicitation_round: dict[str, int]
    flow_queries: int
    _instance: Instance = field(repr=False)
    _profile: Profile = field(repr=False)
    _rounds: tuple[KeptRound, ...] = field(repr=False)

    @property
    def round_count(self) -> int:
        """How many entries `rounds` has, the final pass included; reads none."""
        return len(self._rounds)

    @cached_property
    def rounds(self) -> tuple[RoundState, ...]:
        instance = self._instance
        a_masks = [instance.mask(attractive) for attractive, _ in self._profile]
        unread = any(kept.bundles is None for kept, _ in self._rounds)
        flow = ExchangeFlow(instance.sizes, n_objects=len(instance.object_ids)) if unread else None
        masks = _resolve_rounds(flow, a_masks, self._rounds)
        return tuple(_name_rounds(instance, self._profile, masks, self.final))

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
        last = final is not None and t == len(rounds)
        mu = final if last else _matching_from_masks(instance, bundles)
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


def _start(
    flow: ExchangeFlow, a_masks: list[int], allowed: list[int], incumbent: list[int]
) -> ExchangeFlow:
    """`flow`, with the system of the CIR matchings under these masks that
    give every agent at least as many attractive objects as the `incumbent`
    matching installed on it, from that matching."""
    if not flow.install(a_masks, allowed, bundles=incumbent):
        raise MechanismInvariantError("the incumbent matching does not satisfy the constraint set")
    return flow


def _dictatorship(flow: ExchangeFlow) -> list[int]:
    """Serial dictatorship core: promises K^1..K^n over the constrained flow."""
    promises = []
    for i in range(flow.n):
        promises.append(flow.maximize(i))
        flow.freeze(i)
    return promises


_NOT_CIR = "base matching must be CIR at the given (A, B) profile"


def _from_base(
    instance: Instance, prefixes: list[list[int]], mu: Matching, fault: str
) -> ExchangeFlow:
    """A new network holding the system of the CIR matchings under each
    agent's `prefixes` (A and A ∪ B are the first two) that give every agent
    at least as many attractive objects as `mu`, installed from `mu`.  `mu`
    is checked with model.matching_masks, and one that is not CIR under the
    prefixes is a ValidationError(`fault`)."""
    bundles = matching_masks(instance, mu)
    if _cir_violation(instance, bundles, prefixes):
        raise ValidationError(fault)
    flow = ExchangeFlow(instance.sizes, n_objects=len(instance.object_ids))
    return _start(flow, [p[0] for p in prefixes], [p[1] for p in prefixes], bundles)


def serial_refine(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
    mu: Matching,
) -> tuple[Matching, tuple[int, ...]]:
    """One full serial-dictatorship pass over the CIR matchings weakly improving `mu`.

    Returns the canonical (lexicographically least) matching complying with all
    promises, plus the promise vector.  `mu` and the profile are checked with
    model.matching_masks and model.profile_masks, and a `mu` that is not CIR
    under the profile is a ValidationError too.
    """
    flow = _from_base(instance, _prefixes(instance, attractive, bearable), mu, _NOT_CIR)
    promises = _dictatorship(flow)
    return _matching_from_masks(instance, flow.extract_canonical(flow.order)), tuple(promises)


def non_improvable_set(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable_outer: Mapping[str, frozenset[str]],
    mu: Matching,
) -> frozenset[str]:
    """Agents whose attractive count cannot rise in any CIR matching weakly
    improving `mu` under the given (maximal) bearable sets.  `mu` and the
    profile are checked with model.matching_masks and model.profile_masks,
    and a `mu` that is not CIR under the profile is a ValidationError too."""
    flow = _from_base(instance, _prefixes(instance, attractive, bearable_outer), mu, _NOT_CIR)
    return frozenset(a for i, a in enumerate(instance.agents) if not flow.can_improve(i))


def _prefixes(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
) -> list[list[int]]:
    """The prefix_masks of the profile giving each agent these (A, B) sets."""
    prefs = {
        a: TrichotomousPreference(a, frozenset(attractive[a]), frozenset(bearable[a]))
        for a in instance.agents
        if a in attractive and a in bearable
    }
    return prefix_masks(instance, prefs)


class _RunFailed(MechanismInvariantError):
    """A broken invariant inside `_run_masks`; its second argument holds the
    finished rounds as the run keeps them, which `run_ir_priority` names."""


class _Pass:
    """A serial-dictatorship pass as a run keeps it: the bearable masks it ran
    under and its promises, and either the matching the network held after it
    (`held`) or its canonical bundles (`bundles`).  The run's last pass gets
    its bundles; an earlier one keeps the held matching until it is read."""

    __slots__ = ("bearable", "promises", "held", "bundles")

    def __init__(self, bearable: list[int], promises: list[int]) -> None:
        self.bearable = bearable
        self.promises = promises
        self.held: list[int] | None = None
        self.bundles: list[int] | None = None


# One round as a run keeps it: its pass and the non-improvable agents as a
# mask over agent indices.
KeptRound = tuple[_Pass, int]


def _resolve_rounds(
    flow: ExchangeFlow | None, a_masks: list[int], rounds: Sequence[KeptRound]
) -> list[MaskRound]:
    """Kept rounds as bundle masks, promises and non-improvable masks.

    A pass without bundles gets them here, once, on `flow` (None only when
    every pass holds them): its system installed from its held matching has
    its promises as lower bounds, and with every agent frozen, extraction
    pins the lexicographically least matching that meets them, as it would
    have after the pass, whatever the network held before.
    """
    for kept, _ in rounds:
        if kept.bundles is None:
            _start(flow, a_masks, [a | b for a, b in zip(a_masks, kept.bearable)], kept.held)
            flow.freeze_all()
            kept.bundles = flow.extract_canonical(flow.order)
    return [(kept.bundles, kept.promises, elicited) for kept, elicited in rounds]


def _run_masks(
    flow: ExchangeFlow,
    a_masks: list[int],
    b_masks: list[int],
    endow: list[int],
) -> tuple[list[int], list[KeptRound], dict[int, int], int]:
    """The mechanism on masks, on `flow`, a network for the market's sizes and
    object count: per agent in priority order its reported attractive and
    bearable masks and its endowment mask.

    Returns the final bundle masks, the rounds as kept (the last is the final
    pass; `_resolve_rounds` gives their bundles), the round at which each
    agent's bearable set was first read, by agent index in elicitation order,
    and the flow-query count.  Each endowment must lie within its agent's
    A ∪ B.  The run installs its first system on `flow`, whatever an earlier
    run left there; each round's refinement, improvability check and the
    final pass then retarget it at the matching it holds.

    A round's pass, and the final pass, run only when the system's bearable
    masks differ from those of the last pass that ran; otherwise they keep
    that pass's promises.  Only the final bundles are extracted, once, at
    the end; a skipped final pass leaves the freezes that `retarget`
    cleared, so every agent is frozen first.  An earlier pass keeps the
    matching the network held after it, taken just before a later pass
    moves the flow or a `_RunFailed` is raised, so a one-pass run keeps
    none.

    Lemma: once every agent is frozen after a pass, the feasible set is
    {each agent's attractive count = its promise} on the pass's allowed
    masks.  `maximize` reaches the exact maximum, and extraction pins the
    lexicographically least point of that set, whatever flow either starts
    from.  So (a) a pass's canonical matching can be extracted later from
    any point of the set, such as the matching the network held after it,
    and the next pass, whose lower bounds `retarget` sets to the held
    matching's counts (the same promises), needs only such a point; and
    (b) a pass over a system whose lower bounds are an earlier pass's own
    promises, on that pass's allowed masks, returns the same promises and
    canonical matching: each promise is still attainable (the held matching
    attains it) and no larger count is, as the earlier pass ran on a
    superset.  By (b) a pass is skipped whenever no agent elicited since the
    last one reports a bearable set other than its endowment outside A:
    after the first pass, always on strongly trichotomous profiles.  For such
    a profile the whole run reduces to its first pass, so `_final_masks`
    runs that pass alone when only the final bundles are wanted.
    """
    n = flow.n
    full = (1 << flow.m) - 1
    b_floor = [e & ~a for e, a in zip(endow, a_masks)]
    b_ceil = [full & ~a for a in a_masks]
    everyone = (1 << n) - 1
    elicited = 0
    rounds: list[KeptRound] = []
    elicitation_round: dict[int, int] = {}
    order = flow.order
    _start(flow, a_masks, [a | b for a, b in zip(a_masks, b_floor)], endow)
    bearable = b_floor  # the held system's bearable masks
    kept = _Pass(bearable, _dictatorship(flow))  # the last pass that ran

    try:
        for t in range(1, n + 2):
            if bearable != kept.bearable:
                kept.held = flow.matching()  # the pass below moves the flow
                kept = _Pass(bearable, _dictatorship(flow))
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
            rounds.append((kept, elicited))
            bearable = [b_masks[i] if elicited >> i & 1 else b_floor[i] for i in order]
            flow.retarget(bearable)
    except _RunFailed:
        kept.held = flow.matching()  # the finished rounds are read from it
        raise

    flow.freeze_all()
    kept.bundles = flow.extract_canonical(order)
    rounds.append((kept, everyone))
    return kept.bundles, rounds, elicitation_round, flow.queries


def _final_masks(
    flow: ExchangeFlow, a_masks: list[int], b_masks: list[int], endow: list[int]
) -> list[int]:
    """The final bundle masks of `_run_masks` on the same arguments, and
    nothing else of the run: the entry the misreport audits call.

    When every agent reports its endowment outside A as its bearable set (a
    strongly trichotomous profile), no elicitation round changes the system,
    so by Lemma (b) of `_run_masks` the outcome is one serial-dictatorship
    pass from the endowment, extracted with every agent frozen, as the pass
    leaves them.  That pass runs alone: the loop's improvability checks, and
    with them its "non-improvable set shrank" and "failed to grow" invariant
    checks, do not run for such profiles.  An infeasible endowment still
    raises from `_start`, and a lost extraction from `extract_canonical`.
    Any other profile runs `_run_masks`.  Either way the run installs its
    system on `flow` from the endowment, so on a network that every run of a
    search shares, only the agents whose masks differ from its first run's
    are reinstalled.
    """
    allowed = []
    for a, b, e in zip(a_masks, b_masks, endow):
        if b != e & ~a:
            return _run_masks(flow, a_masks, b_masks, endow)[0]
        allowed.append(a | b)
    _dictatorship(_start(flow, a_masks, allowed, endow))  # which freezes every agent
    return flow.extract_canonical(flow.order)


def run_ir_priority(
    instance: Instance, prefs: Mapping[str, TrichotomousPreference]
) -> tuple[Matching, MechanismTrace]:
    """Run the priority mechanism; returns the final matching and a full trace.

    The profile is checked with model.require_trichotomous and
    model.profile_masks, before any network is built.  The outer loop
    performs at most one elicitation round per agent; failure of the
    non-improvable set to grow raises MechanismInvariantError with the named
    states of the finished rounds as its second argument.  The run itself is `_run_masks`; the
    rounds stay as it keeps them, and the agent sets bitmasks over agent
    indices, until the trace is read.
    """
    agents = instance.agents
    require_trichotomous(prefs, "the priority mechanism")
    classes = profile_masks(instance, prefs)
    profile: Profile = tuple((prefs[a].attractive, prefs[a].bearable) for a in agents)
    a_masks = [c[0] for c in classes]
    b_masks = [c[1] for c in classes]
    endow = list(instance.endowment_masks)
    flow = ExchangeFlow(instance.sizes, n_objects=len(instance.object_ids))
    try:
        bundles, rounds, elicited, queries = _run_masks(flow, a_masks, b_masks, endow)
    except _RunFailed as exc:
        message, finished = exc.args
        named = _name_rounds(instance, profile, _resolve_rounds(flow, a_masks, finished))
        raise MechanismInvariantError(message, named) from exc
    final = _matching_from_masks(instance, bundles)
    trace = MechanismTrace(
        final=final,
        elicitation_round={agents[i]: t for i, t in elicited.items()},
        flow_queries=queries,
        _instance=instance,
        _profile=profile,
        _rounds=tuple(rounds),
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

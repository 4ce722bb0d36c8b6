"""The individually rational priority mechanism.

Inner loop: a serial dictatorship over the component-wise individually
rational matchings that weakly improve the current one — agent by agent in
priority order, each agent's attainable attractive count is maximized and
locked in as her promise.  Outer loop: starting from the endowment and the
minimal bearable sets, agents whose promise can no longer grow even under
maximal bearable sets for everyone un-elicited are asked to reveal their true
bearable sets, and the dictatorship is re-run; the loop ends when nobody can
improve, after at most one round per agent.

Elicitation is simulated: the full profile is an input, but the trace records
the round at which each agent's bearable set was first read, so the claim that
the mechanism consumes bearable-set information only once an agent stops
improving is a checkable trace property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .flownet import ExchangeFlow
from .model import Instance, Matching, MechanismInvariantError, TrichotomousPreference
from .responsive import cir_trichotomous


@dataclass(frozen=True)
class RoundState:
    """One outer round: matching, promises, non-improvable set and bearable maps."""

    round: int
    mu: Matching
    promises: tuple[int, ...]
    non_improvable: frozenset[str]
    bearable: dict[str, frozenset[str]]
    bearable_outer: dict[str, frozenset[str]]


@dataclass(frozen=True)
class MechanismTrace:
    """Full record of a run: per-round states, first-elicitation rounds, final matching."""

    rounds: tuple[RoundState, ...]
    final: Matching
    elicitation_round: dict[str, int]
    flow_queries: int


def _profile_masks(
    instance: Instance, prefs: Mapping[str, TrichotomousPreference]
) -> tuple[list[int], list[int]]:
    a_masks, b_masks = [], []
    for a in instance.agents:
        a_masks.append(instance.mask(prefs[a].attractive))
        b_masks.append(instance.mask(prefs[a].bearable))
    return a_masks, b_masks


def _welfare(mu_masks: list[int], a_masks: list[int]) -> list[int]:
    return [bin(mu & a).count("1") for mu, a in zip(mu_masks, a_masks)]


def _query_masks(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
    mu: Matching,
) -> tuple[list[int], list[int], list[int]]:
    """Attractive masks, allowed (A ∪ B) masks and the attractive counts under `mu`."""
    a_masks = [instance.mask(attractive[a]) for a in instance.agents]
    allowed = [instance.mask(attractive[a] | bearable[a]) for a in instance.agents]
    mu_masks = [instance.mask(mu.assignment[a]) for a in instance.agents]
    return a_masks, allowed, _welfare(mu_masks, a_masks)


def _feasible_flow(
    sizes: list[int],
    a_masks: list[int],
    allowed: list[int],
    baseline: list[int],
    m: int,
    purpose: str,
) -> ExchangeFlow:
    """The network of CIR matchings giving every agent at least `baseline`
    attractive objects; the incumbent matching makes it feasible."""
    flow = ExchangeFlow(sizes, a_masks, allowed, list(baseline), None, n_objects=m)
    if not flow.solve_feasible():
        raise MechanismInvariantError(
            f"{purpose} constraint set is empty although the base matching satisfies it"
        )
    return flow


def _refine_masks(
    sizes: list[int],
    a_masks: list[int],
    allowed: list[int],
    baseline: list[int],
    m: int,
) -> tuple[list[int], ExchangeFlow]:
    """Serial dictatorship core: promises K^1..K^n over the constrained flow."""
    flow = _feasible_flow(sizes, a_masks, allowed, baseline, m, "refinement")
    promises = []
    for i in range(len(sizes)):
        promises.append(flow.maximize(i))
        flow.freeze(i)
    return promises, flow


def _improvable_masks(
    sizes: list[int],
    a_masks: list[int],
    allowed: list[int],
    baseline: list[int],
    m: int,
) -> tuple[set[int], int]:
    """Indices of agents whose attractive count can still rise; plus query count."""
    flow = _feasible_flow(sizes, a_masks, allowed, baseline, m, "improvability")
    out = {i for i in range(len(sizes)) if flow.can_improve(i)}
    return out, flow.queries


def serial_refine(
    instance: Instance,
    attractive: Mapping[str, frozenset[str]],
    bearable: Mapping[str, frozenset[str]],
    mu: Matching,
) -> tuple[Matching, tuple[int, ...]]:
    """One full serial-dictatorship pass over the CIR matchings weakly improving `mu`.

    Returns the canonical (lexicographically least) matching complying with all
    promises, plus the promise vector.
    """
    prefs = {
        a: TrichotomousPreference(a, frozenset(attractive[a]), frozenset(bearable[a]))
        for a in instance.agents
    }
    if not cir_trichotomous(instance, mu, prefs):
        raise ValueError("base matching must be CIR at the given (A, B) profile")
    a_masks, allowed, baseline = _query_masks(instance, attractive, bearable, mu)
    promises, flow = _refine_masks(
        list(instance.sizes), a_masks, allowed, baseline, len(instance.object_ids)
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
    improving `mu` under the given (maximal) bearable sets."""
    a_masks, allowed, baseline = _query_masks(instance, attractive, bearable_outer, mu)
    improvable, _ = _improvable_masks(
        list(instance.sizes), a_masks, allowed, baseline, len(instance.object_ids)
    )
    return frozenset(
        a for i, a in enumerate(instance.agents) if i not in improvable
    )


def run_ir_priority(
    instance: Instance, prefs: Mapping[str, TrichotomousPreference]
) -> tuple[Matching, MechanismTrace]:
    """Run the priority mechanism; returns the final matching and a full trace.

    The outer loop performs at most one elicitation round per agent; failure of
    the non-improvable set to grow raises MechanismInvariantError with the
    partial trace attached as the exception argument.
    """
    n = len(instance.agents)
    m = len(instance.object_ids)
    sizes = list(instance.sizes)
    a_masks, b_true = _profile_masks(instance, prefs)
    full = (1 << m) - 1
    endow = list(instance.endowment_masks)
    for i, a in enumerate(instance.agents):
        if endow[i] & ~(a_masks[i] | b_true[i]):
            raise ValueError(f"agent {a!r}: endowment not contained in A ∪ B")
    b_floor = [endow[i] & ~a_masks[i] for i in range(n)]
    b_ceil = [full & ~a_masks[i] for i in range(n)]

    def bearable_vec(elicited: frozenset[int], outer: bool) -> list[int]:
        base = b_ceil if outer else b_floor
        return [b_true[i] if i in elicited else base[i] for i in range(n)]

    def named(vec: list[int]) -> dict[str, frozenset[str]]:
        return {a: instance.unmask(vec[i]) for i, a in enumerate(instance.agents)}

    elicited: frozenset[int] = frozenset()
    mu_masks = endow
    queries = 0
    rounds: list[RoundState] = []
    elicitation_round: dict[str, int] = {}
    all_agents = frozenset(range(n))

    for t in range(1, n + 1):
        allowed = [a_masks[i] | b for i, b in enumerate(bearable_vec(elicited, False))]
        baseline = _welfare(mu_masks, a_masks)
        promises, flow = _refine_masks(sizes, a_masks, allowed, baseline, m)
        queries += flow.queries
        mu_masks = flow.extract_canonical(list(range(n)))
        mu = Matching({a: instance.unmask(mu_masks[i]) for i, a in enumerate(instance.agents)})

        allowed_bar = [
            a_masks[i] | b for i, b in enumerate(bearable_vec(elicited, True))
        ]
        improvable, q = _improvable_masks(sizes, a_masks, allowed_bar, promises, m)
        queries += q
        non_improvable = all_agents - improvable
        if not elicited <= non_improvable:
            raise MechanismInvariantError(
                f"non-improvable set shrank at round {t}", rounds
            )
        if non_improvable == elicited and non_improvable != all_agents:
            raise MechanismInvariantError(
                f"non-improvable set failed to grow at round {t}", rounds
            )
        elicited = non_improvable
        for i in sorted(elicited):
            elicitation_round.setdefault(instance.agents[i], t)
        rounds.append(
            RoundState(
                round=t,
                mu=mu,
                promises=tuple(promises),
                non_improvable=frozenset(instance.agents[i] for i in elicited),
                bearable=named(bearable_vec(elicited, False)),
                bearable_outer=named(bearable_vec(elicited, True)),
            )
        )
        if elicited == all_agents:
            break
    else:
        raise MechanismInvariantError(
            f"outer loop did not terminate within {n} rounds", rounds
        )

    # final pass with every true bearable set revealed
    allowed = [a_masks[i] | b_true[i] for i in range(n)]
    baseline = _welfare(mu_masks, a_masks)
    promises, flow = _refine_masks(sizes, a_masks, allowed, baseline, m)
    queries += flow.queries
    final_masks = flow.extract_canonical(list(range(n)))
    final = Matching(
        {a: instance.unmask(final_masks[i]) for i, a in enumerate(instance.agents)}
    )
    rounds.append(
        RoundState(
            round=len(rounds) + 1,
            mu=final,
            promises=tuple(promises),
            non_improvable=frozenset(instance.agents),
            bearable={a: prefs[a].bearable for a in instance.agents},
            bearable_outer={a: prefs[a].bearable for a in instance.agents},
        )
    )
    trace = MechanismTrace(
        rounds=tuple(rounds),
        final=final,
        elicitation_round=elicitation_round,
        flow_queries=queries,
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

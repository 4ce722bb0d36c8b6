"""Property auditors: efficiency, strategy-proofness variants, weak-core membership.

Everything here is exhaustive and exact at desk scale: matchings, misreports,
coalitions and opponent profiles are enumerated in canonical order, and the
first witness found (if any) is returned with an explicit additive extension
certifying the strict preference it claims.  Brute-force auditors double as
oracles for the flow-based mechanism pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cycles import find_cir_pareto_improving_cycle
from .mechanism import run_ir_priority
from .model import (
    DomainSpec,
    Instance,
    MarginalPreference,
    Matching,
    TrichotomousPreference,
    canon,
    domain_membership,
)
# enumerate_matchings lives in optimize; audits re-exports it
from .optimize import EnumerationLimitError, cached_matchings, enumerate_matchings
from .responsive import (
    ResponsiveExtension,
    cir_trichotomous,
    exists_strict_preference,
    is_component_wise_IR,
    prefix_counts,
    strict_witness_extension,
)

Profile = Mapping[str, TrichotomousPreference]


@dataclass(frozen=True)
class ManipulationWitness:
    """A profitable misreport: some responsive extension of the true marginal
    strictly prefers the misreport outcome."""

    agent: str
    truthful: TrichotomousPreference
    misreport: TrichotomousPreference
    truthful_bundle: frozenset[str]
    misreport_bundle: frozenset[str]
    certificate: ResponsiveExtension

    def __post_init__(self) -> None:
        if not self.certificate.score(self.misreport_bundle) > self.certificate.score(
            self.truthful_bundle
        ):
            raise ValueError("certificate does not rank the misreport bundle strictly higher")


@dataclass(frozen=True)
class ObviousManipulationWitness:
    """A misreport whose best- or worst-case outcome beats truth-telling's."""

    agent: str
    truthful: TrichotomousPreference
    misreport: TrichotomousPreference
    scenario: str  # "best" or "worst"
    truthful_bundle: frozenset[str]
    misreport_bundle: frozenset[str]
    certificate: ResponsiveExtension


@dataclass(frozen=True)
class BlockWitness:
    """A coalition reallocating its own endowments so that every member is
    strictly better off under her certificate extension."""

    coalition: tuple[str, ...]
    reallocation: dict[str, frozenset[str]]
    certificates: dict[str, ResponsiveExtension]

    def __post_init__(self) -> None:
        if not self.coalition:
            raise ValueError("a blocking coalition cannot be empty")
        if set(self.reallocation) != set(self.coalition) or set(self.certificates) != set(
            self.coalition
        ):
            raise ValueError("reallocation and certificates must cover the coalition")


def marginal_profile(
    instance: Instance,
    prefs: Mapping[str, TrichotomousPreference] | Mapping[str, MarginalPreference],
) -> dict[str, MarginalPreference]:
    """Class-based marginals; trichotomous preferences become [A, B, rest] and
    class-based ones pass through."""
    margs: dict[str, MarginalPreference] = {}
    for a in instance.agents:
        p = prefs[a]
        margs[a] = p.to_classes(instance.objects) if isinstance(p, TrichotomousPreference) else p
    return margs


def welfare_vector(instance: Instance, mu: Matching, prefs: Profile) -> tuple[int, ...]:
    return tuple(
        len(mu.assignment[a] & prefs[a].attractive) for a in instance.agents
    )


def _is_dominated(
    instance: Instance,
    mu: Matching,
    margs: Mapping[str, MarginalPreference],
    bound: int,
) -> bool:
    """Whether some matching Pareto-improves `mu` under SOME responsive profile.

    Per agent the improvement needs only one extension (extensions are chosen
    independently), so agent i's condition is that mu(i) does not unambiguously
    strictly dominate nu(i); one agent must additionally admit a strictly
    preferring extension.
    """
    agents = instance.agents
    mu_prefix = [prefix_counts(margs[a], mu.assignment[a]) for a in agents]
    memo: list[dict[frozenset[str], tuple[int, ...]]] = [{} for _ in agents]
    for nu in cached_matchings(instance, bound):
        strict = False
        ok = True
        for i, a in enumerate(agents):
            bundle = nu.assignment[a]
            pv = memo[i].get(bundle)
            if pv is None:
                pv = memo[i][bundle] = prefix_counts(margs[a], bundle)
            mv = mu_prefix[i]
            if pv == mv:
                continue
            if all(x <= y for x, y in zip(pv, mv)):
                ok = False  # nu(i) unambiguously strictly worse: always-weakly-worse
                break
            strict = True  # some rank prefix strictly exceeds: a strict extension exists
        if ok and strict:
            return True
    return False


def unambiguously_efficient(
    instance: Instance,
    mu: Matching,
    prefs: Mapping[str, TrichotomousPreference] | Mapping[str, MarginalPreference],
    mode: str = "brute",
    bound: int = 10,
) -> bool:
    """Pareto-efficiency under every responsive extension of the marginal profile.

    cycle mode requires a trichotomous profile and a CIR matching (the scope of
    the cycle characterization); brute mode accepts any marginal profile and
    scans all matchings.
    """
    if mode == "cycle":
        if not all(isinstance(p, TrichotomousPreference) for p in prefs.values()):
            raise ValueError("cycle mode needs a trichotomous profile")
        return find_cir_pareto_improving_cycle(instance, mu, prefs) is None
    if mode != "brute":
        raise ValueError(f"unknown efficiency mode {mode!r}")
    return not _is_dominated(instance, mu, marginal_profile(instance, prefs), bound)


def efficient_ir_set(
    instance: Instance,
    prefs: Mapping[str, TrichotomousPreference] | Mapping[str, MarginalPreference],
    bound: int = 10,
) -> list[Matching]:
    """All matchings that are unambiguously individually rational and efficient."""
    margs = marginal_profile(instance, prefs)
    out = []
    for mu in cached_matchings(instance, bound):
        if is_component_wise_IR(instance, mu, margs) and not _is_dominated(
            instance, mu, margs, bound
        ):
            out.append(mu)
    return out


# ---------------------------------------------------------------------------
# report enumeration
# ---------------------------------------------------------------------------


def trichotomous_reports(
    instance: Instance, agent: str, domain: DomainSpec | None = None
) -> list[TrichotomousPreference]:
    """All (A, B) reports available to one agent, optionally domain-filtered.

    B is the endowment outside A plus some bearable extra; a non-empty extra
    puts a non-endowed object in class 2, so a domain with nu(2) != 1 only
    sees reports with no extra."""
    objects = instance.object_ids
    endow = instance.endowment[agent]
    others = [o for o in objects if o not in endow]
    extras = domain is None or domain.nu_at(2) == 1
    out = []
    for a_mask in range(1 << len(objects)):
        attractive = frozenset(o for k, o in enumerate(objects) if a_mask >> k & 1)
        floor = endow - attractive
        pool = [o for o in others if o not in attractive] if extras else []
        for x_mask in range(1 << len(pool)):
            extra = frozenset(o for k, o in enumerate(pool) if x_mask >> k & 1)
            pref = TrichotomousPreference(agent, attractive, floor | extra)
            if domain is not None and not domain_membership(
                pref.to_classes(instance.objects), domain, endow
            ):
                continue
            out.append(pref)
    return out


def strongly_trichotomous_reports(
    instance: Instance, agent: str
) -> list[TrichotomousPreference]:
    """Reports with no non-endowed object in the bearable set (B = endowment \\ A)."""
    return trichotomous_reports(instance, agent, DomainSpec.strongly_trichotomous())


class _OutcomeCache:
    """Memoized mechanism outcomes keyed by the full reported profile."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.cache: dict[tuple[tuple[frozenset[str], frozenset[str]], ...], Matching] = {}

    def final(self, profile: Profile) -> Matching:
        key = tuple(
            (profile[a].attractive, profile[a].bearable) for a in self.instance.agents
        )
        hit = self.cache.get(key)
        if hit is None:
            hit, _ = run_ir_priority(self.instance, profile)
            self.cache[key] = hit
        return hit


def check_strategy_proofness(
    instance: Instance,
    prefs: Profile,
    domain: DomainSpec | None = None,
) -> ManipulationWitness | None:
    """Exhaustive misreport search; a misreport counts as profitable when some
    responsive extension of the TRUE marginal strictly prefers its outcome."""
    cache = _OutcomeCache(instance)
    truth_final = cache.final(prefs)
    margs = marginal_profile(instance, prefs)
    for agent in instance.agents:
        truth_bundle = truth_final.assignment[agent]
        for mis in trichotomous_reports(instance, agent, domain):
            if mis == prefs[agent]:
                continue
            outcome = cache.final({**prefs, agent: mis})
            mis_bundle = outcome.assignment[agent]
            if exists_strict_preference(mis_bundle, truth_bundle, margs[agent]):
                return ManipulationWitness(
                    agent=agent,
                    truthful=prefs[agent],
                    misreport=mis,
                    truthful_bundle=truth_bundle,
                    misreport_bundle=mis_bundle,
                    certificate=strict_witness_extension(
                        mis_bundle, truth_bundle, margs[agent]
                    ),
                )
    return None


def check_truncation_proofness(
    instance: Instance, prefs: Profile
) -> ManipulationWitness | None:
    """Misreports varying only the bearable set; a witness is any outcome bundle
    the truthful bundle does not unambiguously weakly dominate."""
    cache = _OutcomeCache(instance)
    truth_final = cache.final(prefs)
    margs = marginal_profile(instance, prefs)
    for agent in instance.agents:
        truth_bundle = truth_final.assignment[agent]
        attractive = prefs[agent].attractive
        floor = instance.endowment[agent] - attractive
        pool = [o for o in instance.object_ids if o not in attractive and o not in floor and o not in instance.endowment[agent]]
        for x_mask in range(1 << len(pool)):
            extra = frozenset(o for k, o in enumerate(pool) if x_mask >> k & 1)
            mis = TrichotomousPreference(agent, attractive, floor | extra)
            if mis == prefs[agent]:
                continue
            outcome = cache.final({**prefs, agent: mis})
            mis_bundle = outcome.assignment[agent]
            if not exists_strict_preference(mis_bundle, truth_bundle, margs[agent]):
                continue
            return ManipulationWitness(
                agent=agent,
                truthful=prefs[agent],
                misreport=mis,
                truthful_bundle=truth_bundle,
                misreport_bundle=mis_bundle,
                certificate=strict_witness_extension(mis_bundle, truth_bundle, margs[agent]),
            )
    return None


def _welfare_pair(bundle: frozenset[str], pref: TrichotomousPreference) -> tuple[int, int]:
    return (len(bundle & pref.attractive), len(bundle & pref.acceptable()))


def check_obvious_manipulability(
    instance: Instance,
    prefs: Profile,
    opponent_universe: Sequence[Profile] | None = None,
    limit: int = 20000,
) -> ObviousManipulationWitness | None:
    """Best-case/worst-case comparison of truth vs every misreport over an
    opponent-profile universe (exhaustive trichotomous space by default).

    Bundles are ranked through additive extensions of the true trichotomous
    marginal; a bundle's worth is determined by its (attractive, acceptable)
    counts, so candidate extensions reduce to positive weight pairs with
    bounded integer components.
    """
    cache = _OutcomeCache(instance)
    for agent in instance.agents:
        others = [a for a in instance.agents if a != agent]
        if opponent_universe is None:
            per_agent = {a: trichotomous_reports(instance, a) for a in others}
            total = 1
            for a in others:
                total *= len(per_agent[a])
            if total > limit:
                raise EnumerationLimitError(
                    f"opponent space has {total} profiles; pass an explicit universe"
                )
            opponents: list[dict[str, TrichotomousPreference]] = [
                dict(zip(others, combo))
                for combo in itertools.product(*(per_agent[a] for a in others))
            ]
        else:
            opponents = [dict(p) for p in opponent_universe]

        true_pref = prefs[agent]
        t = len(instance.endowment[agent])
        directions = [
            (alpha, beta)
            for alpha in range(1, 2 * t + 2)
            for beta in range(1, 2 * t + 2)
        ]

        def outcomes(report: TrichotomousPreference) -> list[tuple[frozenset[str], tuple[int, int]]]:
            seen = []
            for opp in opponents:
                profile = {**opp, agent: report}
                bundle = cache.final(profile).assignment[agent]
                seen.append((bundle, _welfare_pair(bundle, true_pref)))
            return seen

        truth_outcomes = outcomes(true_pref)
        truth_extreme = {}
        for d in directions:
            vals = [d[0] * w[0] + d[1] * w[1] for _, w in truth_outcomes]
            truth_extreme[d] = (max(vals), min(vals))
        for mis in trichotomous_reports(instance, agent):
            if mis == true_pref:
                continue
            mis_outcomes = outcomes(mis)
            for d in directions:
                alpha, beta = d
                scored = [(b, alpha * w[0] + beta * w[1]) for b, w in mis_outcomes]
                for scenario, pick, bench in (
                    ("best", max, truth_extreme[d][0]),
                    ("worst", min, truth_extreme[d][1]),
                ):
                    mis_bundle, mis_val = pick(scored, key=lambda bw: bw[1])
                    if mis_val > bench:
                        tru_bundle = pick(
                            ((b, alpha * w[0] + beta * w[1]) for b, w in truth_outcomes),
                            key=lambda bw: bw[1],
                        )[0]
                        utility = {}
                        for o in instance.object_ids:
                            if o in true_pref.attractive:
                                utility[o] = Fraction(alpha + beta)
                            elif o in true_pref.bearable:
                                utility[o] = Fraction(beta)
                            else:
                                utility[o] = Fraction(0)
                        return ObviousManipulationWitness(
                            agent=agent,
                            truthful=true_pref,
                            misreport=mis,
                            scenario=scenario,
                            truthful_bundle=tru_bundle,
                            misreport_bundle=mis_bundle,
                            certificate=ResponsiveExtension(agent, utility),
                        )
    return None


# ---------------------------------------------------------------------------
# weak core
# ---------------------------------------------------------------------------


def unambiguously_in_weak_core(
    instance: Instance,
    mu: Matching,
    prefs: Profile,
    strict_acceptability: bool = False,
    bound: int = 10,
) -> BlockWitness | None:
    """None iff no coalition can strongly block `mu` (reallocating only its own
    endowments) under some responsive profile; otherwise the first witness.

    With strict_acceptability, extensions rank any bundle containing an
    unacceptable object below the endowment; for CIR candidates blocking then
    reduces to a strict attractive-count gain within acceptable bundles.
    """
    if len(instance.objects) > bound:
        raise EnumerationLimitError(
            f"instance has {len(instance.objects)} objects, coalition bound is {bound}"
        )
    margs = marginal_profile(instance, prefs)
    if strict_acceptability and not cir_trichotomous(instance, mu, prefs):
        raise ValueError(
            "strict-acceptability core audit requires a CIR candidate matching"
        )

    def strictly_better(agent: str, bundle: frozenset[str]) -> bool:
        if strict_acceptability:
            p = prefs[agent]
            if bundle - p.acceptable():
                return False
            return len(bundle & p.attractive) > len(
                mu.assignment[agent] & p.attractive
            )
        return exists_strict_preference(bundle, mu.assignment[agent], margs[agent])

    agents = instance.agents
    for size in range(1, len(agents) + 1):
        for coalition in itertools.combinations(agents, size):
            pool = frozenset().union(*(instance.endowment[a] for a in coalition))
            options: list[list[frozenset[str]]] = []
            feasible = True
            for a in coalition:
                cands = [
                    frozenset(c)
                    for c in itertools.combinations(canon(pool), len(instance.endowment[a]))
                    if strictly_better(a, frozenset(c))
                ]
                if not cands:
                    feasible = False
                    break
                options.append(cands)
            if not feasible:
                continue
            pick = _assemble_disjoint(options, len(pool))
            if pick is None:
                continue
            reallocation = {a: pick[k] for k, a in enumerate(coalition)}
            certificates = {
                a: strict_witness_extension(reallocation[a], mu.assignment[a], margs[a])
                for a in coalition
            }
            return BlockWitness(
                coalition=coalition,
                reallocation=reallocation,
                certificates=certificates,
            )
    return None


def _assemble_disjoint(
    options: list[list[frozenset[str]]], pool_size: int
) -> list[frozenset[str]] | None:
    """First (canonical order) pairwise-disjoint selection, one bundle per list."""

    def rec(i: int, used: frozenset[str], acc: list[frozenset[str]]) -> bool:
        if i == len(options):
            return True
        for cand in options[i]:
            if cand & used:
                continue
            acc.append(cand)
            if rec(i + 1, used | cand, acc):
                return True
            acc.pop()
        return False

    acc: list[frozenset[str]] = []
    return acc if rec(0, frozenset(), acc) else None


def find_efficient_core_matching(
    instance: Instance, prefs: Profile, bound: int = 10
) -> Matching | None:
    """Some unambiguously efficient matching that is unambiguously in the weak
    core under strict acceptability; None triggers a flagged report upstream
    (existence is guaranteed on this domain)."""
    cir: list[tuple[Matching, tuple[int, ...]]] = []
    for mu in cached_matchings(instance, bound):
        if cir_trichotomous(instance, mu, prefs):
            cir.append((mu, welfare_vector(instance, mu, prefs)))
    vectors = [w for _, w in cir]
    for mu, w in cir:
        dominated = any(
            all(x >= y for x, y in zip(v, w)) and v != w for v in vectors
        )
        if dominated:
            continue
        if unambiguously_in_weak_core(instance, mu, prefs, strict_acceptability=True, bound=bound) is None:
            return mu
    return None

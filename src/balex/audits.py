"""Property auditors: efficiency, strategy-proofness variants, weak-core membership.

Everything here is exhaustive and exact at desk scale: matchings, misreports,
coalitions and opponent profiles are enumerated in canonical order, and the
first witness found (if any) is returned with an explicit additive extension
certifying the strict preference it claims.  Brute-force auditors double as
oracles for the flow-based mechanism pipeline.

Bundles are judged as object masks, by their popcounts against the agent's
responsive.prefix_masks and the one dominance rule, compare_prefix_counts;
objects are named only for the matchings and witnesses an audit returns.

Input errors: every audit takes its bundle masks from model.matching_masks
and its prefix masks from model.profile_masks, through
responsive.prefix_masks, so a matching or a profile that is not valid for
the instance is a ValidationError before any enumeration.  Beyond that an
audit checks only its own scope: a trichotomous profile where it needs one,
and a CIR matching for the strict-acceptability core.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .cycles import find_cir_pareto_improving_cycle
from .flownet import ExchangeFlow
from .mechanism import _final_masks
# no audit calls run_ir_priority; the name stays bound here for perfbench's tracer
from .mechanism import run_ir_priority  # noqa: F401
from .model import (
    AnyProfile,
    DomainSpec,
    Instance,
    MarginalPreference,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
    ValidationError,
    _matching_from_masks,
    matching_masks,
    profile_masks,
    require_trichotomous,
)
# enumerate_matchings lives in optimize; audits re-exports it
from .optimize import EnumerationLimitError, enumerate_matchings, mask_matchings
from .optimize import _check_enumeration_bound
from .responsive import (
    BundleComparison,
    ResponsiveExtension,
    _cir_violation,
    compare_prefix_counts,
    prefix_masks,
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


def marginal_profile(instance: Instance, prefs: AnyProfile) -> dict[str, MarginalPreference]:
    """Class-based marginals; trichotomous preferences become [A, B, rest] and
    class-based ones pass through."""
    margs: dict[str, MarginalPreference] = {}
    for a in instance.agents:
        p = prefs[a]
        margs[a] = p.to_classes(instance.objects) if isinstance(p, TrichotomousPreference) else p
    return margs


def welfare_vector(instance: Instance, mu: Matching, prefs: Profile) -> tuple[int, ...]:
    """Per agent in priority order, how many attractive objects (objects of
    its first class) `mu` gives it."""
    bundles = matching_masks(instance, mu)
    return tuple((m & c[0]).bit_count() for m, c in zip(bundles, profile_masks(instance, prefs)))


def _counts(mask: int, prefixes: list[int]) -> tuple[int, ...]:
    """The prefix_counts of a bundle mask, from its agent's prefix_masks."""
    return tuple([(mask & p).bit_count() for p in prefixes])


def _cir_matchings(instance: Instance, prefixes: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The component-wise IR matchings, as bundle masks in canonical order: at
    the class of each endowed object, agent i's bundle holds as many objects of
    that class or better as i's endowment does; prefixes[i] are i's prefix_masks."""
    floors = [
        [(p, (own & p).bit_count()) for prev, p in zip([0, *ps], ps) if own & p & ~prev]
        for own, ps in zip(instance.endowment_masks, prefixes)
    ]

    def cir(i: int, mask: int) -> bool:
        for p, need in floors[i]:
            if (mask & p).bit_count() < need:
                return False
        return True

    return mask_matchings(instance.sizes, (1 << len(instance.object_ids)) - 1, cir)


def _is_dominated(
    instance: Instance, mu_counts: tuple[tuple[int, ...], ...], prefixes: list[list[int]]
) -> bool:
    """Whether some matching Pareto-improves a matching mu under SOME
    responsive profile; prefixes[i] are agent i's prefix_masks and
    mu_counts[i] the prefix counts of mu(i), all the verdict reads of mu.

    Per agent the improvement needs only one extension (extensions are chosen
    independently), so agent i's condition is that mu(i) does not unambiguously
    strictly dominate nu(i); one agent must additionally admit a strictly
    preferring extension.
    """
    verdicts: list[dict[int, BundleComparison]] = [{} for _ in mu_counts]

    def keep(i: int, mask: int) -> bool:
        v = verdicts[i].get(mask)
        if v is None:
            v = verdicts[i][mask] = compare_prefix_counts(_counts(mask, prefixes[i]), mu_counts[i])
        return v is not BundleComparison.ALWAYS_WEAKLY_WORSE

    for nu in mask_matchings(instance.sizes, (1 << len(instance.object_ids)) - 1, keep):
        if any(verdicts[i][m] is not BundleComparison.EQUIVALENT for i, m in enumerate(nu)):
            return True
    return False


def unambiguously_efficient(
    instance: Instance,
    mu: Matching,
    prefs: AnyProfile,
    mode: str = "brute",
    bound: int = 10,
) -> bool:
    """Pareto-efficiency under every responsive extension of the marginal profile.

    cycle mode requires a trichotomous profile and a CIR matching (the scope of
    the cycle characterization); brute mode accepts any marginal profile and
    scans all matchings.
    """
    if mode == "cycle":
        return find_cir_pareto_improving_cycle(instance, mu, prefs) is None
    if mode != "brute":
        raise ValueError(f"unknown efficiency mode {mode!r}")
    _check_enumeration_bound(instance, bound)
    mu_masks = matching_masks(instance, mu)
    prefixes = prefix_masks(instance, prefs)
    mu_counts = tuple(_counts(m, ps) for m, ps in zip(mu_masks, prefixes))
    return not _is_dominated(instance, mu_counts, prefixes)


def efficient_ir_set(instance: Instance, prefs: AnyProfile, bound: int = 10) -> list[Matching]:
    """All matchings that are unambiguously individually rational and efficient.

    CIR matchings with the same per-agent prefix counts share one verdict,
    which reads nothing else of them."""
    _check_enumeration_bound(instance, bound)
    prefixes = prefix_masks(instance, prefs)
    dominated: dict[tuple[tuple[int, ...], ...], bool] = {}
    out = []
    for mu in _cir_matchings(instance, prefixes):
        counts = tuple(_counts(m, ps) for m, ps in zip(mu, prefixes))
        if counts not in dominated:
            dominated[counts] = _is_dominated(instance, counts, prefixes)
        if not dominated[counts]:
            out.append(_matching_from_masks(instance, mu))
    return out


# ---------------------------------------------------------------------------
# report enumeration
# ---------------------------------------------------------------------------

# A report as (attractive, bearable) object masks, and a reported profile as
# one report per agent in priority order.
Report = tuple[int, int]
MaskProfile = tuple[Report, ...]


def trichotomous_reports(
    instance: Instance, agent: str, domain: DomainSpec | None = None
) -> list[TrichotomousPreference]:
    """All (A, B) reports available to one agent, optionally domain-filtered."""
    every = range(1 << len(instance.object_ids))
    return [
        _named(instance, agent, report)
        for report in _report_masks(instance, instance.agent_index[agent], every, domain)
    ]


def _named(instance: Instance, agent: str, report: Report) -> TrichotomousPreference:
    return TrichotomousPreference(agent, instance.unmask(report[0]), instance.unmask(report[1]))


def _report_masks(
    instance: Instance,
    i: int,
    attractive_masks: Iterable[int],
    domain: DomainSpec | None = None,
) -> list[Report]:
    """Agent i's reports with each of `attractive_masks` in turn, optionally
    domain-filtered.

    B is the endowment outside A plus some bearable extra, a submask of the
    objects outside both, taken in increasing order; a non-empty extra puts a
    non-endowed object in class 2, so a domain with nu(2) != 1 only sees
    reports with no extra."""
    endow = instance.endowment_masks[i]
    full = (1 << len(instance.object_ids)) - 1
    extras = domain is None or domain.nu_at(2) == 1
    out = []
    for a in attractive_masks:
        floor = endow & ~a
        pool = full & ~(endow | a) if extras else 0
        x = 0
        while True:
            b = floor | x
            if domain is None or _in_domain(domain, endow, (a, b, full & ~(a | b))):
                out.append((a, b))
            x = (x - pool) & pool  # the next submask of pool
            if not x:
                break
    return out


def _in_domain(domain: DomainSpec, endow: int, classes: tuple[int, ...]) -> bool:
    """model.domain_membership on class masks, for an agent endowed with `endow`."""
    for k, c in enumerate(classes, start=1):
        if (c & endow and domain.eps_at(k) != 1) or (c & ~endow and domain.nu_at(k) != 1):
            return False
    return True


class _OutcomeCache:
    """Memoized mechanism outcomes, the final bundle masks, keyed by the
    reported profile as (A, B) mask pairs in priority order.  Every misreport
    audit reads its outcomes here, starting from the truthful run's (perfbench
    counts the calls to `final`); the strategy-proofness and truncation
    searches look up only the reports their rule keeps and check each bundle
    they read against its reported A ∪ B.  The truthful profile, run when the
    cache is made, and every miss run `mechanism._final_masks` on the one
    network the cache keeps, `ExchangeFlow(sizes, n_objects=m)`: the market's
    sizes and object count fix its layout, and each run installs its own
    system on it with `ExchangeFlow.install`.  The truthful run's install is
    kept, so a miss, which installs from the same endowment, reinstalls only
    the agents whose report differs from the truthful one: the misreporting
    agent, or none.  A strongly trichotomous profile runs
    one serial-dictatorship pass and no elicitation loop, so the loop's
    invariant checks are not made for it; any other profile runs the whole
    `mechanism._run_masks`.  The truthful masks come from model.profile_masks,
    so an invalid profile is a ValidationError, raised before the network is
    built."""

    def __init__(self, instance: Instance, prefs: Profile) -> None:
        self.truth: MaskProfile = tuple((c[0], c[1]) for c in profile_masks(instance, prefs))
        a_masks = [a for a, _ in self.truth]
        b_masks = [b for _, b in self.truth]
        self.endow = list(instance.endowment_masks)
        self.flow = ExchangeFlow(instance.sizes, n_objects=len(instance.object_ids))
        self.cache = {self.truth: _final_masks(self.flow, a_masks, b_masks, self.endow)}

    def final(self, profile: MaskProfile) -> list[int]:
        hit = self.cache.get(profile)
        if hit is None:
            a_masks = [a for a, _ in profile]
            b_masks = [b for _, b in profile]
            hit = _final_masks(self.flow, a_masks, b_masks, self.endow)
            self.cache[profile] = hit
        return hit


def _misreport_search(
    instance: Instance,
    prefs: Profile,
    reports: Callable[[int, Report], list[Report]],
) -> ManipulationWitness | None:
    """First profitable misreport, agents in priority order and each agent's
    `reports` (given its index and truthful report) in order.  A misreport
    counts as profitable when some responsive extension of the TRUE marginal
    strictly prefers its outcome.

    compare_prefix_counts admits a strict preference only when some prefix
    count rises above the truthful one.  A prefix mask P_k of the agent's true
    marginal is open when the truthful bundle holds fewer than min(size,
    |P_k|) of its objects; no bundle of the agent's size holds more of a
    closed one.  An agent with no open prefix is skipped without running any
    report, and a report (A', B') is run only if some open P_k holds more
    objects of A' ∪ B' than the truthful bundle holds of P_k.  The report rule
    reads the kernel's contract that every bundle lies within its agent's
    reported A ∪ B, so each bundle the search reads, the truthful bundle of
    every agent it examines and every misreport bundle, is checked against it:
    a bundle outside raises MechanismInvariantError, never a wrong verdict."""
    cache = _OutcomeCache(instance, prefs)
    truth = cache.truth
    truth_final = cache.final(truth)
    full = (1 << len(instance.object_ids)) - 1
    for i, agent in enumerate(instance.agents):
        _require_within(agent, truth_final[i], truth[i])
        a, b = truth[i]
        prefixes = [a, a | b, full, full]  # the prefix masks of [A, B, rest]
        truth_counts = _counts(truth_final[i], prefixes)
        size = instance.sizes[i]
        open_prefixes = [
            (p, c) for c, p in zip(truth_counts, prefixes) if c < min(size, p.bit_count())
        ]
        if not open_prefixes:
            continue
        for mis in reports(i, truth[i]):
            reach = mis[0] | mis[1]
            if mis == truth[i] or all((reach & p).bit_count() <= c for p, c in open_prefixes):
                continue
            bundle = cache.final(truth[:i] + (mis,) + truth[i + 1:])[i]
            _require_within(agent, bundle, mis)
            if compare_prefix_counts(_counts(bundle, prefixes), truth_counts).admits_strict_preference:
                truth_bundle, mis_bundle = instance.unmask(truth_final[i]), instance.unmask(bundle)
                marginal = prefs[agent].to_classes(instance.objects)
                return ManipulationWitness(
                    agent=agent,
                    truthful=prefs[agent],
                    misreport=_named(instance, agent, mis),
                    truthful_bundle=truth_bundle,
                    misreport_bundle=mis_bundle,
                    certificate=strict_witness_extension(mis_bundle, truth_bundle, marginal),
                )
    return None


def _require_within(agent: str, bundle: int, report: Report) -> None:
    """The kernel's contract that a bundle lies within its agent's reported
    A ∪ B, on which the misreport search's report rule rests."""
    if bundle & ~(report[0] | report[1]):
        raise MechanismInvariantError(
            f"agent {agent!r}: outcome bundle outside the reported A ∪ B"
        )


def check_strategy_proofness(
    instance: Instance,
    prefs: Profile,
    domain: DomainSpec | None = None,
    bound: int = 10,
) -> ManipulationWitness | None:
    """Exhaustive search over every (domain-filtered) report for a misreport whose
    outcome some responsive extension of the TRUE marginal strictly prefers.
    Reports range over every attractive set, so markets with more than `bound`
    objects are refused up front.  A report whose A ∪ B holds no more objects
    of any class prefix than the truthful bundle does, where a bundle of the
    agent's size could hold more, cannot gain, so it is not run; an outcome
    bundle outside its agent's reported A ∪ B is a MechanismInvariantError
    (see _misreport_search)."""
    require_trichotomous(prefs, "strategy-proofness audit")
    _check_enumeration_bound(instance, bound)
    every = range(1 << len(instance.object_ids))
    return _misreport_search(
        instance, prefs, lambda i, _: _report_masks(instance, i, every, domain)
    )


def check_truncation_proofness(
    instance: Instance, prefs: Profile, bound: int = 10
) -> ManipulationWitness | None:
    """check_strategy_proofness's search over the reports that keep each agent's
    truthful attractive set and vary only the bearable extras."""
    require_trichotomous(prefs, "truncation audit")
    _check_enumeration_bound(instance, bound)
    return _misreport_search(
        instance, prefs, lambda i, truth: _report_masks(instance, i, [truth[0]])
    )


def check_obvious_manipulability(
    instance: Instance,
    prefs: Profile,
    limit: int = 20000,
) -> ObviousManipulationWitness | None:
    """Best-case/worst-case comparison of truth vs every misreport over every
    trichotomous opponent profile (Troyan and Morrill, 2020).

    Bundles are ranked through additive extensions of the true trichotomous
    marginal; a bundle's worth is determined by its (attractive, acceptable)
    counts, so candidate extensions reduce to positive weight pairs with
    bounded integer components.  The profile is checked up front, as the
    outcome table that checks it too is built only once the first agent's
    opponent space is known to pass the limit.
    """
    require_trichotomous(prefs, "obvious-manipulability audit")
    all_prefixes = prefix_masks(instance, prefs)
    agents = instance.agents
    m = len(instance.object_ids)
    reports: list[list[Report]] = []
    for i, agent in enumerate(agents):
        others = [k for k in range(len(agents)) if k != i]
        # an agent holding w objects has 2^w * 3^(m - w) reports; none is built,
        # and the mechanism does not run, before the first agent's opponent
        # space passes the limit
        total = math.prod(2 ** instance.sizes[k] * 3 ** (m - instance.sizes[k]) for k in others)
        if total > limit:
            raise EnumerationLimitError(
                f"opponent space has {total} profiles, limit is {limit}"
            )
        if not reports:
            cache = _OutcomeCache(instance, prefs)
            reports = [_report_masks(instance, k, range(1 << m)) for k in range(len(agents))]
        opponents = list(itertools.product(*(reports[k] for k in others)))

        true_pref = prefs[agent]
        t = instance.sizes[i]
        prefixes, ranks = all_prefixes[i], true_pref.to_classes(instance.objects).ranks

        def outcomes(report: Report) -> list[tuple[int, tuple[int, ...]]]:
            seen = []
            for opp in opponents:
                bundle = cache.final(opp[:i] + (report,) + opp[i:])[i]
                # (attractive, acceptable) counts: the first two prefix counts
                seen.append((bundle, _counts(bundle, prefixes)[:2]))
            return seen

        truth_outcomes = outcomes(cache.truth[i])
        for mis in reports[i]:
            if mis == cache.truth[i]:
                continue
            mis_outcomes = outcomes(mis)
            for alpha, beta in itertools.product(range(1, 2 * t + 2), repeat=2):

                def value(outcome: tuple[int, tuple[int, ...]]) -> int:
                    return alpha * outcome[1][0] + beta * outcome[1][1]

                for scenario, pick in (("best", max), ("worst", min)):
                    mis_pick = pick(mis_outcomes, key=value)
                    tru_pick = pick(truth_outcomes, key=value)
                    if value(mis_pick) > value(tru_pick):
                        weights = (alpha + beta, beta, 0)  # classes A, B, rest
                        utility = {o: Fraction(weights[ranks[o] - 1]) for o in instance.object_ids}
                        return ObviousManipulationWitness(
                            agent=agent,
                            truthful=true_pref,
                            misreport=_named(instance, agent, mis),
                            scenario=scenario,
                            truthful_bundle=instance.unmask(tru_pick[0]),
                            misreport_bundle=instance.unmask(mis_pick[0]),
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

    Coalitions come by size, then as priority-order combinations; a coalition
    blocks with the first reallocation of its endowments that mask_matchings
    yields in which every member may be strictly better off: some responsive
    extension ranks the member's new bundle strictly above its bundle under
    `mu`, read from the popcounts of both against the member's prefix_masks.
    Each agent's verdict on a bundle mask is kept for the whole call, and only
    the returned witness names objects.

    With strict_acceptability (trichotomous profiles and CIR candidates only),
    extensions rank any bundle containing an unacceptable object below the
    endowment, so a member may be strictly better off only with a bundle
    within A ∪ B; for a CIR `mu` that is a strict attractive-count gain.  A
    candidate that is not CIR is then a ValidationError.
    """
    agents = instance.agents
    mu_masks = matching_masks(instance, mu)
    prefixes = prefix_masks(instance, prefs)
    if strict_acceptability:
        require_trichotomous(prefs, "strict-acceptability core audit")
        if _cir_violation(instance, mu_masks, prefixes):
            raise ValidationError(
                "strict-acceptability core audit requires a CIR candidate matching"
            )
    _check_enumeration_bound(instance, bound)
    mu_counts = [_counts(m, ps) for m, ps in zip(mu_masks, prefixes)]
    verdicts: list[dict[int, bool]] = [{} for _ in agents]

    def better(i: int, mask: int) -> bool:
        v = verdicts[i].get(mask)
        if v is None:
            if strict_acceptability and mask & ~prefixes[i][1]:
                v = False  # leaves A ∪ B, the second prefix of [A, B, rest]
            else:
                counts = _counts(mask, prefixes[i])
                v = compare_prefix_counts(counts, mu_counts[i]).admits_strict_preference
            verdicts[i][mask] = v
        return v

    for size in range(1, len(agents) + 1):
        for members in itertools.combinations(range(len(agents)), size):
            pool = sum(instance.endowment_masks[i] for i in members)
            sizes = [instance.sizes[i] for i in members]
            pick = next(mask_matchings(sizes, pool, lambda k, m: better(members[k], m)), None)
            if pick is None:
                continue
            coalition = tuple(agents[i] for i in members)
            reallocation = {a: instance.unmask(m) for a, m in zip(coalition, pick)}
            margs = marginal_profile(instance, prefs)
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


def find_efficient_core_matching(
    instance: Instance, prefs: Profile, bound: int = 10
) -> Matching | None:
    """Some unambiguously efficient matching that is unambiguously in the weak
    core under strict acceptability; None triggers a flagged report upstream
    (existence is guaranteed on this domain).

    Candidates are the CIR matchings in canonical order whose attractive-count
    vector no other CIR matching Pareto-dominates."""
    require_trichotomous(prefs, "efficient core selection")
    _check_enumeration_bound(instance, bound)
    prefixes = prefix_masks(instance, prefs)
    cir_set = [
        (mu, tuple((m & ps[0]).bit_count() for m, ps in zip(mu, prefixes)))
        for mu in _cir_matchings(instance, prefixes)
    ]
    vectors = {w for _, w in cir_set}
    frontier = {
        w for w in vectors
        if not any(v != w and all(x >= y for x, y in zip(v, w)) for v in vectors)
    }
    for masks, w in cir_set:
        if w not in frontier:
            continue
        mu = _matching_from_masks(instance, masks)
        if unambiguously_in_weak_core(instance, mu, prefs, strict_acceptability=True, bound=bound) is None:
            return mu
    return None

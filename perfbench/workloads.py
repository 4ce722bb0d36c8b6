"""The three workloads: how a parsed market becomes an operation, and how its
output is checked.

Every call into the library goes through a module attribute
(`mechanism.run_ir_priority`, not a name imported from it), so the traced run
sees it once `tracer.install` has rebound that attribute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from balex import audits, cycles, fixtures, mechanism, model, responsive

import oracles


@dataclass(frozen=True)
class Market:
    instance: model.Instance
    prefs: dict[str, model.TrichotomousPreference]

    @property
    def agents(self) -> tuple[str, ...]:
        return self.instance.agents

    @property
    def attractive(self) -> dict[str, frozenset[str]]:
        return {a: p.attractive for a, p in self.prefs.items()}

    @property
    def acceptable(self) -> dict[str, frozenset[str]]:
        return {a: p.acceptable() for a, p in self.prefs.items()}

    def classes(self, agent: str) -> tuple[frozenset[str], ...]:
        p = self.prefs[agent]
        return (p.attractive, p.bearable, self.instance.objects - p.acceptable())

    def strongly_trichotomous(self) -> bool:
        return all(not (p.bearable - self.instance.endowment[a]) for a, p in self.prefs.items())

    def cover_problem(self, bundles: oracles.Bundles) -> str | None:
        i = self.instance
        return oracles.cover_problem(i.agents, i.objects, i.endowment, bundles)

    def is_cir(self, bundles: oracles.Bundles) -> bool:
        i = self.instance
        return oracles.is_cir(i.agents, i.endowment, self.attractive, self.acceptable, bundles)

    def efficiency(self, bundles: oracles.Bundles) -> tuple[bool, int, int]:
        i = self.instance
        return oracles.efficiency(
            i.agents, i.object_ids, i.endowment, self.attractive, self.acceptable, bundles
        )

    def strict_block(self, bundles: oracles.Bundles) -> tuple[str, ...] | None:
        i = self.instance
        return oracles.strict_block(
            i.agents, i.object_ids, i.endowment, self.attractive, self.acceptable, bundles
        )


def load(docs: Sequence[str]) -> list[Market]:
    """Set-up: market JSON texts to validated instances and trichotomous profiles."""
    out = []
    for text in docs:
        instance, prefs = model.market_from_json(json.loads(text))
        out.append(Market(instance, model.trichotomous_profile(instance, prefs)))
    return out


@dataclass(frozen=True)
class Workload:
    """prepare: untimed per-market work; op: one timed operation; check: the
    problems found in one output (empty when correct); once: run-level checks."""

    prepare: Callable[[Market], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    once: Callable[[], list[str]] = lambda: []


# -- scale -------------------------------------------------------------------


def _scale_op(market: Market) -> dict[str, frozenset[str]]:
    final, _trace = mechanism.run_ir_priority(market.instance, market.prefs)
    return dict(final.assignment)


def _scale_check(market: Market, bundles: dict[str, frozenset[str]]) -> list[str]:
    problem = market.cover_problem(bundles)
    if problem:
        return [problem]
    if not market.is_cir(bundles):
        return ["mechanism output is not component-wise IR"]
    efficient, current, best = market.efficiency(bundles)
    if not efficient:
        return [f"mechanism output not efficient: total {current}, LP optimum {best}"]
    return []


SCALE = Workload(prepare=lambda m: m, op=_scale_op, check=_scale_check)


# -- audit -------------------------------------------------------------------

_STRONG = model.DomainSpec.strongly_trichotomous()


def _audit_op(market: Market) -> tuple[Any, Any]:
    sp = audits.check_strategy_proofness(market.instance, market.prefs, _STRONG)
    truncation = audits.check_truncation_proofness(market.instance, market.prefs)
    return sp, truncation


def _audit_check(market: Market, verdicts: tuple[Any, Any]) -> list[str]:
    problems = []
    if not market.strongly_trichotomous():
        problems.append("audit market is not strongly trichotomous")
    if verdicts[0] is not None:
        problems.append("manipulation found on the strongly trichotomous domain")
    if verdicts[1] is not None:
        problems.append("profitable truncation found")
    return problems


def _manipulation_problems(market: Market, w: audits.ManipulationWitness) -> list[str]:
    truth, _ = mechanism.run_ir_priority(market.instance, market.prefs)
    lie, _ = mechanism.run_ir_priority(market.instance, {**market.prefs, w.agent: w.misreport})
    problems = []
    if truth.assignment[w.agent] != w.truthful_bundle:
        problems.append("truthful bundle does not match a rerun of the mechanism")
    if lie.assignment[w.agent] != w.misreport_bundle:
        problems.append("misreport bundle does not match a rerun of the mechanism")
    problem = oracles.certificate_problem(
        w.certificate.utility, market.classes(w.agent), w.misreport_bundle, w.truthful_bundle
    )
    if problem:
        problems.append(problem)
    return problems


def _thm4_family() -> list[str]:
    """The trichotomous 4-agent family of Theorem 4 must expose a manipulation."""
    problems, witnesses = [], 0
    for name in fixtures.FIXTURE_NAMES:
        if not name.startswith("thm4-"):
            continue
        fx = fixtures.load_fixture(name)
        market = Market(fx.instance, dict(fx.prefs))
        w = audits.check_strategy_proofness(fx.instance, fx.prefs)
        if w is not None:
            witnesses += 1
            problems += [f"{name}: {p}" for p in _manipulation_problems(market, w)]
    if not witnesses:
        problems.append("no thm4-* fixture yields a manipulation witness")
    return problems


AUDIT = Workload(prepare=lambda m: m, op=_audit_op, check=_audit_check, once=_thm4_family)


# -- verify ------------------------------------------------------------------


@dataclass(frozen=True)
class Audited:
    market: Market
    margs: dict[str, model.MarginalPreference]
    matchings: tuple[model.Matching, model.Matching]  # mechanism output, endowment


def _verify_prepare(market: Market) -> Audited:
    inst = market.instance
    final, _ = mechanism.run_ir_priority(inst, market.prefs)
    margs = {a: market.prefs[a].to_classes(inst.objects) for a in inst.agents}
    return Audited(market, margs, (final, inst.endowment_matching()))


def _verify_op(item: Audited) -> tuple[Any, ...]:
    inst, prefs = item.market.instance, item.market.prefs
    per_matching = []
    for mu in item.matchings:
        per_matching.append(
            (
                responsive.cir_violation(inst, mu, item.margs),
                audits.unambiguously_efficient(inst, mu, prefs, mode="cycle"),
                audits.unambiguously_efficient(inst, mu, prefs, mode="brute"),
                audits.unambiguously_in_weak_core(inst, mu, prefs),
                audits.unambiguously_in_weak_core(inst, mu, prefs, strict_acceptability=True),
            )
        )
    return tuple(per_matching), audits.find_efficient_core_matching(inst, prefs)


def _block_problems(
    market: Market, bundles: oracles.Bundles, w: audits.BlockWitness, strict: bool
) -> list[str]:
    inst = market.instance
    pool = frozenset().union(*(inst.endowment[a] for a in w.coalition))
    got = list(w.reallocation.values())
    if frozenset().union(*got) != pool or sum(len(b) for b in got) != len(pool):
        return ["block witness does not reallocate exactly the coalition's endowments"]
    problems = []
    for a in w.coalition:
        new, old = w.reallocation[a], bundles[a]
        if len(new) != len(inst.endowment[a]):
            problems.append(f"block witness gives {a} an unbalanced bundle")
        elif strict and not (
            new <= market.acceptable[a]
            and len(new & market.attractive[a]) > len(old & market.attractive[a])
        ):
            problems.append(f"strict block witness: {a} is not strictly better off")
        elif not oracles.some_extension_prefers(new, old, market.classes(a)):
            problems.append(f"block witness: no extension makes {a} strictly better off")
        else:
            cert = oracles.certificate_problem(
                w.certificates[a].utility, market.classes(a), new, old
            )
            if cert:
                problems.append(f"block witness certificate of {a}: {cert}")
    return problems


def _verify_check(item: Audited, output: tuple[Any, ...]) -> list[str]:
    market = item.market
    per_matching, selected = output
    problems: list[str] = []
    for which, mu, verdicts in zip(("mechanism", "endowment"), item.matchings, per_matching):
        bundles = dict(mu.assignment)
        cir_pair, eff_cycle, eff_brute, block, strict_block = verdicts
        if (cir_pair is None) != market.is_cir(bundles):
            problems.append(f"{which}: cir_violation disagrees with the CIR arithmetic")
        if not market.is_cir(bundles):
            problems.append(f"{which}: matching is not component-wise IR")
            continue
        if eff_cycle != eff_brute:
            problems.append(f"{which}: cycle and brute efficiency verdicts differ")
        efficient, current, best = market.efficiency(bundles)
        if eff_brute != efficient:
            problems.append(f"{which}: efficiency verdict {eff_brute}, LP total {current} vs {best}")
        if not eff_cycle:
            cycle = cycles.find_cir_pareto_improving_cycle(market.instance, mu, market.prefs)
            after = None if cycle is None else oracles.apply_steps(bundles, cycle.steps)
            if after is None:
                problems.append(f"{which}: no valid improving cycle returned")
            else:
                before = oracles.attractive_counts(market.agents, bundles, market.attractive)
                now = oracles.attractive_counts(market.agents, after, market.attractive)
                pareto = all(x >= y for x, y in zip(now, before)) and now != before
                if not (pareto and market.is_cir(after) and not market.cover_problem(after)):
                    problems.append(f"{which}: improving cycle is not a CIR Pareto improvement")
        if which == "mechanism" and not efficient:
            problems.append("mechanism output is not efficient")
        if which == "mechanism" and market.strongly_trichotomous() and strict_block is not None:
            problems.append("mechanism output blocked under strict acceptability")
        for w, strict in ((block, False), (strict_block, True)):
            if w is not None:
                problems += [f"{which}: {p}" for p in _block_problems(market, bundles, w, strict)]
        if (strict_block is None) != (market.strict_block(bundles) is None):
            problems.append(f"{which}: strict-acceptability core verdict disagrees with search")
    if selected is None:
        problems.append("find_efficient_core_matching returned None")
        return problems
    bundles = dict(selected.assignment)
    problem = market.cover_problem(bundles)
    if problem:
        problems.append(f"core selection: {problem}")
    elif not market.is_cir(bundles) or not market.efficiency(bundles)[0]:
        problems.append("core selection is not a CIR efficient matching")
    elif market.strict_block(bundles) is not None:
        problems.append("core selection is blocked under strict acceptability")
    return problems


VERIFY = Workload(prepare=_verify_prepare, op=_verify_op, check=_verify_check)

WORKLOADS = {"scale": SCALE, "audit": AUDIT, "verify": VERIFY}

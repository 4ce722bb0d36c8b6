"""The mask-level efficiency, weak-core, core-selection and misreport audits
against their frozenset formulation, kept here as the reference: every matching
built from frozensets, bundles compared through prefix_counts or
exists_strict_preference, CIR read per object, coalition reallocations
assembled from per-member candidate lists, every misreport outcome from a fresh
mechanism run."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balex import audits, responsive
from balex.audits import (
    BlockWitness,
    ManipulationWitness,
    check_strategy_proofness,
    check_truncation_proofness,
    efficient_ir_set,
    enumerate_matchings,
    find_efficient_core_matching,
    marginal_profile,
    trichotomous_reports,
    unambiguously_efficient,
    unambiguously_in_weak_core,
    welfare_vector,
)
from balex.cli import main
from balex.fixtures import FIXTURE_NAMES, load_fixture
from balex.mechanism import run_ir_priority
from balex.model import (
    DomainSpec,
    Instance,
    MarginalPreference,
    Matching,
    MechanismInvariantError,
    TrichotomousPreference,
    canon,
    domain_membership,
)
from balex.responsive import (
    BundleComparison,
    cir_trichotomous,
    compare_unambiguous,
    exists_strict_preference,
    is_component_wise_IR,
    prefix_counts,
    strict_witness_extension,
)
from conftest import make_instance, on_masks, random_matching, random_profile, unbeatable


def _ref_matchings(instance: Instance) -> list[Matching]:
    agents, sizes = instance.agents, instance.sizes
    acc: list[frozenset[str]] = []

    def rec(i: int, remaining: tuple[str, ...]):
        if i == len(agents):
            yield Matching(dict(zip(agents, acc)))
            return
        for combo in itertools.combinations(remaining, sizes[i]):
            bundle = frozenset(combo)
            acc.append(bundle)
            yield from rec(i + 1, tuple(o for o in remaining if o not in bundle))
            acc.pop()

    return list(rec(0, instance.object_ids))


def _ref_is_dominated(instance, mu, margs, matchings) -> bool:
    agents = instance.agents
    mu_prefix = [prefix_counts(margs[a], mu.assignment[a]) for a in agents]
    for nu in matchings:
        strict = False
        ok = True
        for i, a in enumerate(agents):
            pv = prefix_counts(margs[a], nu.assignment[a])
            mv = mu_prefix[i]
            if pv == mv:
                continue
            if all(x <= y for x, y in zip(pv, mv)):
                ok = False
                break
            strict = True
        if ok and strict:
            return True
    return False


def _ref_efficient_ir_set(instance, prefs, matchings) -> list[Matching]:
    margs = marginal_profile(instance, prefs)
    return [
        mu
        for mu in matchings
        if is_component_wise_IR(instance, mu, margs)
        and not _ref_is_dominated(instance, mu, margs, matchings)
    ]


def _ref_core_matching(instance, prefs, matchings) -> Matching | None:
    cir = [
        (mu, welfare_vector(instance, mu, prefs))
        for mu in matchings
        if cir_trichotomous(instance, mu, prefs)
    ]
    vectors = [w for _, w in cir]
    for mu, w in cir:
        if any(all(x >= y for x, y in zip(v, w)) and v != w for v in vectors):
            continue
        if unambiguously_in_weak_core(instance, mu, prefs, strict_acceptability=True) is None:
            return mu
    return None


def _ref_weak_core(instance, mu, prefs, strict_acceptability=False) -> BlockWitness | None:
    """The weak-core search as it was before it used mask_matchings: per-member
    candidate lists of frozensets and a disjointness recursion over them."""
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
            pick = _assemble_disjoint(options)
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


def _assemble_disjoint(options: list[list[frozenset[str]]]) -> list[frozenset[str]] | None:
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


def _ref_misreport_search(instance, prefs, reports, run) -> ManipulationWitness | None:
    """The misreport search on object names: each outcome from its own call to
    the mechanism `run`, profitability through exists_strict_preference on
    frozensets."""
    margs = marginal_profile(instance, prefs)
    truth, _ = run(instance, prefs)
    for agent in instance.agents:
        truth_bundle = frozenset(truth.assignment[agent])
        for mis in reports(agent):
            if mis == prefs[agent]:
                continue
            outcome, _ = run(instance, {**prefs, agent: mis})
            mis_bundle = frozenset(outcome.assignment[agent])
            if exists_strict_preference(mis_bundle, truth_bundle, margs[agent]):
                return ManipulationWitness(
                    agent=agent,
                    truthful=prefs[agent],
                    misreport=mis,
                    truthful_bundle=truth_bundle,
                    misreport_bundle=mis_bundle,
                    certificate=strict_witness_extension(mis_bundle, truth_bundle, margs[agent]),
                )
    return None


def _ref_reports(instance, agent, attractive_sets, domain=None):
    """Each attractive set in turn, with the endowment outside A plus every
    bearable extra, named and filtered by domain_membership."""
    endow = instance.endowment[agent]
    others = [o for o in instance.object_ids if o not in endow]
    extras = domain is None or domain.nu_at(2) == 1
    out = []
    for attractive in attractive_sets:
        pool = [o for o in others if o not in attractive] if extras else []
        for x_mask in range(1 << len(pool)):
            extra = frozenset(o for k, o in enumerate(pool) if x_mask >> k & 1)
            pref = TrichotomousPreference(agent, attractive, endow - attractive | extra)
            if domain is None or domain_membership(pref.to_classes(instance.objects), domain, endow):
                out.append(pref)
    return out


def _ref_manipulation_audits(instance, prefs, run=run_ir_priority, domain=None):
    """Strategy-proofness over every (domain-filtered) report;
    truncation-proofness over the reports that keep the agent's truthful
    attractive set, in the same order.  No report is skipped."""

    def every(agent):
        return trichotomous_reports(instance, agent, domain)

    def truncations(agent):
        return [
            r for r in trichotomous_reports(instance, agent)
            if r.attractive == prefs[agent].attractive
        ]

    return (
        _ref_misreport_search(instance, prefs, every, run),
        _ref_misreport_search(instance, prefs, truncations, run),
    )


def _scrambled_run(instance, profile):
    """A stand-in mechanism: a pseudo-random matching fixed by the reported
    profile.  It breaks the kernel's contract that every bundle lies within
    its agent's reported A ∪ B."""
    return _scramble(instance, profile, list(enumerate_matchings(instance))), None


def _contained_scrambled_run(instance, profile):
    """A stand-in mechanism that keeps the kernel's contract: a pseudo-random
    matching fixed by the reported profile among those that give every agent
    a bundle within its reported A ∪ B, of which the endowment is always one.
    Profitable misreports and truncations are common under it."""
    matchings = [
        m
        for m in enumerate_matchings(instance)
        if all(m.assignment[a] <= profile[a].acceptable() for a in instance.agents)
    ]
    return _scramble(instance, profile, matchings), None


def _scramble(instance, profile, matchings):
    key = repr([(canon(profile[a].attractive), canon(profile[a].bearable)) for a in instance.agents])
    return matchings[random.Random(key).randrange(len(matchings))]


def _four_class_profile(instance: Instance, rng: random.Random) -> dict[str, MarginalPreference]:
    """Class-based marginals with 4 classes, one of them left empty."""
    out = {}
    for a in instance.agents:
        empty = rng.randrange(4)
        used = [k for k in range(4) if k != empty]
        classes: list[set[str]] = [set() for _ in range(4)]
        for o in instance.object_ids:
            classes[rng.choice(used)].add(o)
        out[a] = MarginalPreference(a, tuple(frozenset(c) for c in classes))
    return out


def _markets(seed: int, count: int, max_objects: int):
    rng = random.Random(seed)
    while count:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        if sum(sizes) > max_objects:
            continue
        count -= 1
        yield rng, make_instance(sizes)


def test_enumeration_order_is_the_frozenset_order():
    for _, inst in _markets(5, 20, 8):
        assert list(enumerate_matchings(inst)) == _ref_matchings(inst)


def test_brute_efficiency_agrees_with_the_frozenset_scan():
    checked = dominated = 0
    for rng, inst in _markets(11, 40, 8):
        matchings = _ref_matchings(inst)
        for prefs in (random_profile(inst, rng), _four_class_profile(inst, rng)):
            margs = marginal_profile(inst, prefs)
            for mu in [inst.endowment_matching()] + [random_matching(inst, rng) for _ in range(4)]:
                want = not _ref_is_dominated(inst, mu, margs, matchings)
                assert unambiguously_efficient(inst, mu, prefs, mode="brute") == want
                checked += 1
                dominated += not want
    assert checked == 400 and 0 < dominated < checked


def test_efficient_ir_set_agrees_with_the_frozenset_filter():
    nonempty = 0
    for rng, inst in _markets(13, 30, 8):
        matchings = _ref_matchings(inst)
        for prefs in (random_profile(inst, rng), _four_class_profile(inst, rng)):
            got = efficient_ir_set(inst, prefs)
            assert got == _ref_efficient_ir_set(inst, prefs, matchings)
            nonempty += bool(got)
    assert nonempty > 30


def test_core_selection_agrees_with_the_frozenset_loop():
    for rng, inst in _markets(17, 40, 8):
        prefs = random_profile(inst, rng)
        want = _ref_core_matching(inst, prefs, _ref_matchings(inst))
        assert want is not None
        assert find_efficient_core_matching(inst, prefs) == want


def _same_witness(got: BlockWitness | None, want: BlockWitness | None) -> bool:
    if got is None or want is None:
        return got is want
    return (
        got.coalition == want.coalition
        and got.reallocation == want.reallocation
        and {a: dict(c.utility) for a, c in got.certificates.items()}
        == {a: dict(c.utility) for a, c in want.certificates.items()}
    )


def test_weak_core_agrees_with_the_candidate_list_search():
    """Non-strict mode on trichotomous and 4-class marginals, strict mode on
    the endowment, the mechanism output and every CIR matching (an unacceptable
    object decides the strict verdict only in a few of them)."""
    checked = 0
    blocked = {False: 0, True: 0}  # by strict_acceptability
    for rng, inst in _markets(19, 40, 8):
        for prefs in (random_profile(inst, rng), _four_class_profile(inst, rng)):
            for mu in [inst.endowment_matching()] + [random_matching(inst, rng) for _ in range(3)]:
                want = _ref_weak_core(inst, mu, prefs)
                assert _same_witness(unambiguously_in_weak_core(inst, mu, prefs), want)
                checked += 1
                blocked[False] += want is not None
        prefs = random_profile(inst, rng)
        cir = [mu for mu in enumerate_matchings(inst) if cir_trichotomous(inst, mu, prefs)]
        candidates = [inst.endowment_matching(), run_ir_priority(inst, prefs)[0]]
        for mu in candidates + cir:
            want = _ref_weak_core(inst, mu, prefs, strict_acceptability=True)
            got = unambiguously_in_weak_core(inst, mu, prefs, strict_acceptability=True)
            assert _same_witness(got, want)
            checked += 1
            blocked[True] += want is not None
    assert checked == 857 and blocked[False] > 0 and blocked[True] > 0


def test_weak_core_agrees_with_the_candidate_list_search_on_fixtures():
    """Class-based fixture profiles too: the non-strict audit reads marginals only."""
    for name, label, coalition in [
        ("thm1-nu0", None, ("1", "3")),
        ("thm1-nu1", None, ("1", "2")),
        ("example1", None, ("1", "2")),
        ("example1", "famous_matching", ("2",)),
    ]:
        fx = load_fixture(name)
        mu = fx.expected[label] if label else fx.instance.endowment_matching()
        want = _ref_weak_core(fx.instance, mu, fx.prefs)
        got = unambiguously_in_weak_core(fx.instance, mu, fx.prefs, bound=12)
        assert _same_witness(got, want) and got.coalition == coalition


def test_object_names_only_for_core_candidates(monkeypatch):
    """Brute efficiency names no objects; core selection names them once per
    agent of each candidate it checks against the weak core, and the weak-core
    audit, strict or not, names only its witness, one bundle per coalition
    member.  No audit compares bundles of object names."""
    fx = load_fixture("thm4-p3")
    named = []
    checked = []
    compared = []
    unmask = Instance.unmask
    in_core = audits.unambiguously_in_weak_core
    compare = responsive.compare_unambiguous

    def counting_unmask(self, mask):
        named.append(mask)
        return unmask(self, mask)

    def counting_core(*args, **kwargs):
        before = len(named)
        witness = in_core(*args, **kwargs)
        checked.append((witness, len(named) - before))
        return witness

    def counting_compare(*args):
        compared.append(args)
        return compare(*args)

    monkeypatch.setattr(Instance, "unmask", counting_unmask)
    monkeypatch.setattr(audits, "unambiguously_in_weak_core", counting_core)
    monkeypatch.setattr(responsive, "compare_unambiguous", counting_compare)
    output, endowment = fx.expected["mechanism_output"], fx.instance.endowment_matching()
    for mu in (output, endowment):
        unambiguously_efficient(fx.instance, mu, fx.prefs, mode="brute")
    assert named == []
    find_efficient_core_matching(fx.instance, fx.prefs)
    (blocked, in_blocked), (unblocked, in_unblocked) = checked
    assert blocked.coalition == ("2", "3") and in_blocked == len(blocked.coalition)
    assert unblocked is None and in_unblocked == 0
    assert len(named) - in_blocked == 2 * len(fx.instance.agents) == 8
    checked.clear()
    for mu in (output, endowment):
        audits.unambiguously_in_weak_core(fx.instance, mu, fx.prefs)
    (unblocked, in_unblocked), (blocked, in_blocked) = checked
    assert unblocked is None and in_unblocked == 0
    assert blocked.coalition == ("2", "3") and in_blocked == len(blocked.coalition) == 2
    efficient_ir_set(fx.instance, fx.prefs)
    check_strategy_proofness(fx.instance, fx.prefs)
    check_truncation_proofness(fx.instance, fx.prefs)
    assert compared == []


def test_misreport_search_agrees_with_the_name_level_search():
    """Equal witnesses, certificates included, from the mechanism on the
    Theorem 4 fixtures (thm4-p2 is manipulable) and on random markets."""
    cases = [
        (fx.instance, fx.prefs)
        for fx in (load_fixture(name) for name in FIXTURE_NAMES if name.startswith("thm4-"))
    ]
    cases += [(inst, random_profile(inst, rng)) for rng, inst in _markets(29, 15, 5)]
    found = 0
    for inst, prefs in cases:
        want = _ref_manipulation_audits(inst, prefs)
        assert (check_strategy_proofness(inst, prefs), check_truncation_proofness(inst, prefs)) == want
        found += want[0] is not None
    assert found == 1  # thm4-p2


def test_misreport_search_agrees_with_the_name_level_search_where_witnesses_abound(monkeypatch):
    """The same under a scrambled mechanism that keeps the kernel's contract,
    so that both searches stop at witnesses often, truncations included, some
    of them only ambiguously better (more attractive objects, fewer
    acceptable ones).  The reference runs every report."""
    rng = random.Random(37)
    found = [0, 0]
    ambiguous = markets = 0
    while markets < 40:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        if sum(sizes) > 5 or max(sizes) < 2:
            continue
        markets += 1
        inst = make_instance(sizes)
        monkeypatch.setattr(audits, "_final_masks", on_masks(inst, _contained_scrambled_run))
        prefs = random_profile(inst, rng)
        margs = marginal_profile(inst, prefs)
        want = _ref_manipulation_audits(inst, prefs, _contained_scrambled_run)
        assert (check_strategy_proofness(inst, prefs), check_truncation_proofness(inst, prefs)) == want
        for k, w in enumerate(want):
            if w is not None:
                found[k] += 1
                verdict = compare_unambiguous(w.misreport_bundle, w.truthful_bundle, margs[w.agent])
                ambiguous += verdict is BundleComparison.AMBIGUOUS
    assert found == [19, 13] and ambiguous == 2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 2), min_size=2, max_size=3).filter(lambda s: sum(s) <= 5),
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from([None, "strong"]),
    st.sampled_from([run_ir_priority, _contained_scrambled_run]),
)
def test_skipped_reports_leave_the_witnesses_unchanged(sizes, seed, strongly, domain, run):
    """The strategy-proofness search, on no domain or the strong one, and the
    truncation search give the witnesses of the reference that runs every
    report, under the mechanism and under a scrambled stand-in that keeps the
    kernel's contract, on trichotomous and strongly trichotomous profiles."""
    inst = make_instance(sizes)
    prefs = random_profile(inst, random.Random(seed), strongly=strongly)
    spec = DomainSpec.strongly_trichotomous() if domain else None
    want = _ref_manipulation_audits(inst, prefs, run, spec)
    with pytest.MonkeyPatch.context() as mp:
        if run is _contained_scrambled_run:
            mp.setattr(audits, "_final_masks", on_masks(inst, run))
        got = check_strategy_proofness(inst, prefs, spec), check_truncation_proofness(inst, prefs)
    assert got == want


def test_a_bundle_outside_the_reported_a_and_b_is_an_invariant_error(monkeypatch):
    """Under the scrambled stand-in, which gives agents bundles outside their
    reported A ∪ B, both misreport searches raise MechanismInvariantError
    rather than return a verdict that rests on the broken contract, wherever
    the first agent's truthful bundle, the first bundle they read, is outside."""
    rng = random.Random(61)
    outside = 0
    for _, inst in _markets(61, 12, 6):
        prefs = random_profile(inst, rng, strongly=True)
        first = inst.agents[0]
        if _scrambled_run(inst, prefs)[0].assignment[first] <= prefs[first].acceptable():
            continue
        outside += 1
        monkeypatch.setattr(audits, "_final_masks", on_masks(inst, _scrambled_run))
        for search in (check_strategy_proofness, check_truncation_proofness):
            with pytest.raises(MechanismInvariantError, match="outside the reported A ∪ B$"):
                search(inst, prefs)
    assert outside == 9


def test_balex_audit_exits_3_when_a_bundle_leaves_the_reported_a_and_b(
    tmp_path, monkeypatch, capsys
):
    """The same contract break under `balex audit --sp` and `--truncation` is
    an internal invariant violation, exit code 3."""
    market = tmp_path / "thm4.json"
    assert main(["fixture", "thm4-p3", "--output", str(market)]) == 0
    fx = load_fixture("thm4-p3")
    truth, _ = _scrambled_run(fx.instance, fx.prefs)
    assert not truth.assignment["1"] <= fx.prefs["1"].acceptable()
    monkeypatch.setattr(audits, "_final_masks", on_masks(fx.instance, _scrambled_run))
    for flag in ("--sp", "--truncation"):
        capsys.readouterr()
        assert main(["audit", "--input", str(market), "--mechanism", flag]) == 3
        err = capsys.readouterr().err
        assert err == (
            "internal invariant violation: agent '1': outcome bundle outside the reported A ∪ B\n"
        )


def test_mask_reports_are_the_named_reports_in_order():
    """_report_masks and its named view trichotomous_reports give the frozenset
    enumeration's reports in its order, for every attractive set and for the
    truthful one alone, under no domain and under three domains."""
    domains = [
        None,
        DomainSpec.strongly_trichotomous(),
        DomainSpec.trichotomous(),
        DomainSpec.dichotomous(),
    ]
    lengths = set()
    for rng, inst in _markets(41, 12, 6):
        prefs = random_profile(inst, rng)
        objects = inst.object_ids
        every = [
            frozenset(o for k, o in enumerate(objects) if a >> k & 1)
            for a in range(1 << len(objects))
        ]
        for i, agent in enumerate(inst.agents):
            truthful = prefs[agent].attractive
            for domain in domains:
                want = _ref_reports(inst, agent, every, domain)
                assert trichotomous_reports(inst, agent, domain) == want
                got = audits._report_masks(inst, i, range(1 << len(objects)), domain)
                assert got == [(inst.mask(p.attractive), inst.mask(p.bearable)) for p in want]
                lengths.add(len(want))
                want = _ref_reports(inst, agent, [truthful], domain)
                got = audits._report_masks(inst, i, [inst.mask(truthful)], domain)
                assert got == [(inst.mask(p.attractive), inst.mask(p.bearable)) for p in want]
    assert len(lengths) > 10


def test_a_witness_free_audit_names_no_objects(monkeypatch):
    """Reports, outcome lookups and verdicts stay masks, and so does the
    truthful run, which runs on the audit's one network: a strategy-proofness
    audit that finds nothing unmasks no bundle and builds no
    TrichotomousPreference."""
    inst = make_instance([2, 2, 1])
    prefs = random_profile(inst, random.Random(8), strongly=True)
    unmasked, built = [], []
    unmask, post_init = Instance.unmask, TrichotomousPreference.__post_init__

    def counting_unmask(self, mask):
        unmasked.append(mask)
        return unmask(self, mask)

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Instance, "unmask", counting_unmask)
    monkeypatch.setattr(TrichotomousPreference, "__post_init__", counting_post_init)
    assert check_strategy_proofness(inst, prefs, DomainSpec.strongly_trichotomous()) is None
    assert unmasked == [] and built == []
    assert check_strategy_proofness(inst, prefs) is None
    assert unmasked == [] and built == []


def _record_lookups(monkeypatch) -> list:
    """The profiles that outcome tables are asked for from now on, in order."""
    lookups = []
    final = audits._OutcomeCache.final

    def counting_final(self, profile):
        lookups.append(profile)
        return final(self, profile)

    monkeypatch.setattr(audits._OutcomeCache, "final", counting_final)
    return lookups


def _deviators(inst, truth, lookups):
    """The agents whose report differs from the truthful one in each looked-up
    profile, one per lookup (None for the truthful profile itself)."""
    out = []
    for profile in lookups:
        diff = [a for a, r, t in zip(inst.agents, profile, truth) if r != t]
        out.append(diff[0] if diff else None)
    return out


def _out_of_reach(instance, prefs, agent, truth_bundle, report) -> bool:
    """Whether the report's A ∪ B holds no more objects of any class prefix P
    than `truth_bundle` does, wherever a bundle of the agent's size could
    hold more: then no bundle within it beats the truthful one at any
    prefix."""
    size, prefix = len(instance.endowment[agent]), set()
    for cls in prefs[agent].to_classes(instance.objects).classes:
        prefix |= cls
        held = len(truth_bundle & prefix)
        if held < min(size, len(prefix)) and len(report.acceptable() & prefix) > held:
            return False
    return True


def test_skipped_agents_have_no_profitable_report(monkeypatch):
    """An agent whose truthful bundle holds min(size, |P|) objects of every
    class prefix P has none of its reports run by the misreport searches;
    another agent's reports are run, in order, unless their A ∪ B holds no
    more of any such prefix than the truthful bundle.  Under the mechanism
    and under the scrambled stand-in that keeps the kernel's contract, every
    report that the searches skip, of a skipped agent or not, is run without
    pruning, and no outcome is one that some responsive extension of the
    true marginal strictly prefers."""
    lookups = _record_lookups(monkeypatch)
    rng = random.Random(53)
    skipped = {}
    for run, count in ((run_ir_priority, 50), (_contained_scrambled_run, 20)):
        skipped[run.__name__] = [0, 0]
        markets = 0
        while markets < count:
            sizes = [rng.randint(1, 2) for _ in range(rng.randint(2, 4))]
            if sum(sizes) > 6:
                continue
            markets += 1
            inst = make_instance(sizes)
            if run is _contained_scrambled_run:
                monkeypatch.setattr(audits, "_final_masks", on_masks(inst, run))
            prefs = random_profile(inst, rng, strongly=markets % 2 == 0)
            margs = marginal_profile(inst, prefs)
            truth = run(inst, prefs)[0]
            full = unbeatable(inst, prefs, truth)
            cache = audits._OutcomeCache(inst, prefs)
            every = {a: trichotomous_reports(inst, a) for a in inst.agents}
            beyond = {
                a: [
                    r for r in every[a]
                    if r != prefs[a] and _out_of_reach(inst, prefs, a, truth.assignment[a], r)
                ]
                for a in inst.agents
            }
            lookups.clear()
            # the search over every report runs, in order, the reports of every
            # agent the rule keeps that are within reach, up to the first witness
            w = check_strategy_proofness(inst, prefs)
            assert lookups[0] == cache.truth
            for i, a in enumerate(inst.agents):
                ran = [audits._named(inst, a, p[i]) for p in lookups[1:] if p[i] != cache.truth[i]]
                want = [] if full[i] else [
                    r for r in every[a] if r != prefs[a] and r not in beyond[a]
                ]
                if w is not None and w.agent == a:
                    assert ran == want[:len(ran)] and ran[-1] == w.misreport
                    break
                assert ran == want
            check_truncation_proofness(inst, prefs)
            check_strategy_proofness(inst, prefs, DomainSpec.strongly_trichotomous())
            deviators = set(_deviators(inst, cache.truth, lookups))
            looked_up = set(lookups)
            for i, agent in enumerate(inst.agents):
                if full[i]:
                    skipped[run.__name__][0] += 1
                    assert agent not in deviators
                    reports = [r for r in every[agent] if r != prefs[agent]]
                else:
                    skipped[run.__name__][1] += len(beyond[agent])
                    reports = beyond[agent]
                for mis in reports:
                    report = (inst.mask(mis.attractive), inst.mask(mis.bearable))
                    profile = cache.truth[:i] + (report,) + cache.truth[i + 1:]
                    assert profile not in looked_up
                    bundle = inst.unmask(cache.final(profile)[i])
                    assert not exists_strict_preference(bundle, truth.assignment[agent], margs[agent])
    # per stand-in: the agents skipped, and the reports skipped of the others
    assert skipped == {"run_ir_priority": [117, 690], "_contained_scrambled_run": [29, 730]}


def test_a_misreport_search_runs_only_the_rationed_agents_reports(monkeypatch):
    """On thm4-base the truthful bundles of agents 1, 3 and 4 hold every class
    prefix in full, so the strategy-proofness audit looks up agent 2's
    reports and no others.  Agent 2 (A = {q1}) holds r, so it looks up only
    the reports that hold q1 in A ∪ B."""
    fx = load_fixture("thm4-base")
    inst, prefs = fx.instance, fx.prefs
    truth, _ = run_ir_priority(inst, prefs)
    assert unbeatable(inst, prefs, truth) == [True, False, True, True]
    assert truth.assignment["2"] == {"r"}
    lookups = _record_lookups(monkeypatch)
    assert check_strategy_proofness(inst, prefs) is None
    reports = trichotomous_reports(inst, "2")
    within = [r for r in reports if "q1" in r.acceptable()]
    assert (len(reports), len(within)) == (162, 108)
    truthful = tuple(
        (inst.mask(prefs[a].attractive), inst.mask(prefs[a].bearable)) for a in inst.agents
    )
    assert _deviators(inst, truthful, lookups) == [None] + ["2"] * (len(within) - 1)

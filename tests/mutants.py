"""The register of mutants that the tests must kill.

Each mutant is one edit of one file under `src/balex`: an exact old text,
which must occur exactly once in the current source, the new text, and the
tests expected to fail under it.  `tests/test_mutants.py` checks in tier-1
that every old text still occurs exactly once, so a change that rewrites a
mutated line must update or retire its mutant.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME ...]  # these mutants
    python tests/mutants.py --list          # names and what each breaks

The runner first runs every chosen mutant's tests on an unmutated copy of
`src/` and stops (exit code 2) unless they pass.  Then, for each mutant, it
copies `src/` into a temporary directory, applies the edit there and runs
the mutant's tests against that copy in one pytest process, stopping at the
first failure.  A mutant is killed when a test fails, survives when all
pass, and counts as killed by timeout when the run exceeds `--timeout`
seconds (a corrupt flow can make a search loop); timeouts are listed apart.
The exit code is 1 when a mutant survives.  A survivor is a finding: mend
the tests, never the mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/balex
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    breaks: str


_FLOWNET = "tests/test_flownet.py::"
_KEPT_COPY = _FLOWNET + "test_a_restart_from_the_kept_matching_reinstalls_only_the_changed_agents"
_USED_NETWORK = _FLOWNET + "test_restart_installs_what_a_new_network_starts_from"
_STRONG_COUNTS = _FLOWNET + "test_a_strong_misreport_search_installs_once_and_patches_one_agent"
_QUEUE_PATHS = _FLOWNET + "test_searches_return_the_queues_own_paths"
_DIGEST = "tests/test_output_digest.py::test_outputs_match_the_recorded_digests"
_ENDOWMENT = (
    "tests/test_audits.py::"
    "test_an_endowment_outside_the_reported_a_and_b_is_refused_before_any_network"
)
_BOUNDARY = (
    "tests/test_validation_boundary.py::"
    "test_every_entry_point_refuses_a_mutated_matching_or_profile"
)
_AUDIT_COUNTS = (
    "tests/test_audits.py::test_audits_run_the_mechanism_once_per_distinct_profile",
    "tests/test_audits.py::test_strong_profiles_run_one_pass_and_others_the_kernel",
    _FLOWNET + "test_a_misreport_search_builds_one_network",
    _STRONG_COUNTS,
)

MUTANTS = (
    # -- the installer, `ExchangeFlow.install` ------------------------------
    Mutant(
        "install-keeps-freezes-and-pins",
        "flownet.py",
        "        self.frozen = bytearray(2 * n)\n        self.pinned = self.queries = 0\n",
        '        if not hasattr(self, "frozen"):\n'
        "            self.frozen = bytearray(2 * n)\n"
        "            self.pinned = self.queries = 0\n",
        (_USED_NETWORK, _KEPT_COPY),
        "an install keeps the freezes, pins and query count an earlier run left",
    ),
    Mutant(
        "install-ignores-explicit-lo",
        "flownet.py",
        "        low = count if lo is None else lo\n",
        "        low = count\n",
        (_FLOWNET + "test_an_install_rejects_a_matching_that_breaks_the_constraints",),
        "an install from a matching takes its lower bounds from the matching "
        "even when `lo` is given",
    ),
    Mutant(
        "install-without-matching-ignores-lo",
        "flownet.py",
        "            self.cap[4 * i : 4 * i + 4] = top, -lo, size, 0\n",
        "            self.cap[4 * i : 4 * i + 4] = top, 0, size, 0\n",
        (_FLOWNET + "test_solve_feasible_finds_a_point_iff_enumeration_does",),
        "an install without a matching drops its lower bounds",
    ),
    Mutant(
        "patch-leaves-holder",
        "flownet.py",
        "                bundle = bundles[i]\n"
        "                if not self._install_agent(i, attractive[i], allowed[i], None, sizes[i], bundle):\n"
        "                    return False\n",
        "                bundle, holder = bundles[i], self.holder.copy()\n"
        "                if not self._install_agent(i, attractive[i], allowed[i], None, sizes[i], bundle):\n"
        "                    return False\n"
        "                self.holder = holder\n",
        (_KEPT_COPY, _DIGEST),
        "a patch over the kept copy leaves each object's holder as the kept "
        "system had it, though the agent's tiers changed",
    ),
    Mutant(
        "patch-leaves-contested",
        "flownet.py",
        "            if changed:\n                self._contest()\n",
        "",
        (_KEPT_COPY, _STRONG_COUNTS),
        "a patch over the kept copy keeps the kept system's contested objects",
    ),
    Mutant(
        "copy-for-another-matching",
        "flownet.py",
        "        if own_bounds and kept is not None and bundles == kept[0]:\n",
        "        if own_bounds and kept is not None:\n",
        (_KEPT_COPY,),
        "an install from any matching patches the kept copy",
    ),
    Mutant(
        "copy-taken-with-explicit-bounds",
        "flownet.py",
        "        if own_bounds and kept is None:\n",
        "        if bundles is not None and kept is None:\n",
        (_FLOWNET + "test_an_install_with_explicit_bounds_neither_takes_nor_uses_the_kept_copy",),
        "an install with explicit bounds keeps the copy that later installs "
        "from its matching patch",
    ),
    Mutant(
        "copy-used-with-explicit-bounds",
        "flownet.py",
        "        if own_bounds and kept is not None and bundles == kept[0]:\n",
        "        if bundles is not None and kept is not None and bundles == kept[0]:\n",
        (_FLOWNET + "test_an_install_with_explicit_bounds_neither_takes_nor_uses_the_kept_copy",),
        "an install with explicit bounds from the kept matching patches the "
        "kept copy and loses its bounds",
    ),
    # -- the validation boundary, `model.matching_masks` and `check_profile` --
    Mutant(
        "endowment-check-dropped",
        "model.py",
        "    elif instance.endowment[a] - pref.attractive - pref.bearable:\n",
        "    elif False:\n",
        (_ENDOWMENT, _BOUNDARY),
        "a profile whose A \u222a B leaves out an object its agent owns is accepted",
    ),
    Mutant(
        "masked-profile-unfitted",
        "model.py",
        "        _check_fit(instance, a, prefs[a])\n",
        "",
        (_ENDOWMENT,),
        "run_ir_priority and the manipulation audits build a network for an "
        "endowment outside its agent's A \u222a B",
    ),
    Mutant(
        "profile-unknown-object-unchecked",
        "model.py",
        "    if not known:\n",
        "    if False:\n",
        (_BOUNDARY,),
        "a preference naming an object outside the instance is a bare KeyError",
    ),
    Mutant(
        "profile-missing-agent-unchecked",
        "model.py",
        "        if a not in prefs:\n            raise ValidationError(",
        "        if False:\n            raise ValidationError(",
        (_BOUNDARY,),
        "a profile without an agent's preference is a bare KeyError",
    ),
    Mutant(
        "matching-unknown-object-unnamed",
        "model.py",
        "        except KeyError:\n            stray = canon(set(bundle) - instance.objects)\n",
        "        except KeyError:\n            raise\n            stray = None\n",
        (_BOUNDARY,),
        "a matching naming an object outside the instance is a bare KeyError",
    ),
    Mutant(
        "matching-missing-agent-unchecked",
        "model.py",
        "        if a not in assignment:\n",
        "        if False:\n",
        (_BOUNDARY,),
        "a matching without an agent's bundle is a bare KeyError",
    ),
    Mutant(
        "matching-held-twice-unchecked",
        "model.py",
        "        if m & seen:\n",
        "        if False:\n",
        (_BOUNDARY,),
        "a matching that gives one object to two agents gets a verdict",
    ),
    # -- the improvement searches' mask cut ---------------------------------
    Mutant(
        "cut-counts-pinned-objects",
        "flownet.py",
        "        return bool(self.held[self.tier_b0 + i] & self.contested & ~self.pinned)\n",
        "        return bool(self.held[self.tier_b0 + i] & self.contested)\n",
        (_FLOWNET + "test_improvement_searches_stop_only_where_no_cycle_exists",),
        "the cut lets a search run where only pinned objects could enter",
    ),
    Mutant(
        "cut-tests-the-attractive-tier",
        "flownet.py",
        "        return bool(self.held[self.tier_b0 + i] & self.contested & ~self.pinned)\n",
        "        return bool(self.held[self.tier_a0 + i] & self.contested & ~self.pinned)\n",
        (_FLOWNET + "test_improvement_searches_stop_only_where_no_cycle_exists", _DIGEST),
        "the cut looks at the attractive tier, which no improving cycle enters",
    ),
    # -- extraction's full-tier rule ----------------------------------------
    Mutant(
        "full-tier-rule-without-freeze",
        "flownet.py",
        "                    if frozen and not self.held[t_node] & ~self.pinned:\n",
        "                    if not self.held[t_node] & ~self.pinned:\n",
        (_FLOWNET + "test_full_tiers_are_dropped_only_where_no_search_enters_them",),
        "extraction drops the candidates of an unfrozen agent's full tier",
    ),
    # -- the residual searches' one- and two-move shortcuts ------------------
    Mutant(
        "chain-takes-highest-object",
        "flownet.py",
        "                return [((hit & -hit).bit_length() - 1, y), (j, s)]\n",
        "                return [(hit.bit_length() - 1, y), (j, s)]\n",
        (_QUEUE_PATHS,),
        "a two-move path enters its target through the highest object the "
        "first level-1 holder allows, not the lowest",
    ),
    Mutant(
        "chain-takes-last-holder",
        "flownet.py",
        "        while rem:\n"
        "            j = (rem & -rem).bit_length() - 1\n"
        "            y = holder[j]\n"
        "            hit = allow[y] & goal\n"
        "            if hit:\n"
        "                return [((hit & -hit).bit_length() - 1, y), (j, s)]\n"
        "            rem &= ~held[y]\n"
        "        return None\n",
        "        last = None\n"
        "        while rem:\n"
        "            j = (rem & -rem).bit_length() - 1\n"
        "            y = holder[j]\n"
        "            hit = allow[y] & goal\n"
        "            if hit:\n"
        "                last = [((hit & -hit).bit_length() - 1, y), (j, s)]\n"
        "            rem &= ~held[y]\n"
        "        return last\n",
        (_QUEUE_PATHS,),
        "a two-move path goes through the last level-1 holder that allows an "
        "object of its target, not the first",
    ),
    Mutant(
        "chain-moves-pinned-objects",
        "flownet.py",
        "        goal = held[target] & ~pinned\n",
        "        goal = held[target]\n",
        (_QUEUE_PATHS,),
        "a one- or two-move path enters its target through a pinned object",
    ),
    Mutant(
        "chain-with-unfrozen-agents",
        "flownet.py",
        "        all_frozen = all(self.frozen[::2])\n",
        "        all_frozen = True\n",
        (_QUEUE_PATHS,),
        "extraction takes one- and two-move paths while an agent node can "
        "still lead to a shorter path or an earlier one",
    ),
    Mutant(
        "cycle-chain-over-closed-edge",
        "flownet.py",
        "            if self.cap[4 * i + 3] > 0:\n",
        "            if True:\n",
        (_QUEUE_PATHS,),
        "a cycle search ends at the agent over its bearable tier's edge "
        "though the edge has no residual",
    ),
    # -- strongly trichotomous runs in one pass -----------------------------
    Mutant(
        "every-profile-in-one-pass",
        "mechanism.py",
        "        if b != e & ~a:\n",
        "        if False:\n",
        ("tests/test_audits.py::test_strong_profiles_run_one_pass_and_others_the_kernel",
         _DIGEST),
        "a profile with bearable extras skips the elicitation loop",
    ),
    # -- the misreport search's report rule ---------------------------------
    Mutant(
        "report-bound-counts-equal-as-more",
        "audits.py",
        "all((reach & p).bit_count() <= c for p, c in open_prefixes)",
        "all((reach & p).bit_count() < c for p, c in open_prefixes)",
        _AUDIT_COUNTS,
        "a report that cannot reach more of an open prefix is run",
    ),
    Mutant(
        "report-bound-on-attractive-set-alone",
        "audits.py",
        "            reach = mis[0] | mis[1]\n",
        "            reach = mis[0]\n",
        ("tests/test_audit_masks.py::test_skipped_reports_leave_the_witnesses_unchanged",
         "tests/test_audits.py::test_strategy_proofness_witness_on_thm4_family"),
        "a report whose bearable set reaches the open prefix is skipped",
    ),
    Mutant(
        "closed-prefixes-counted-as-open",
        "audits.py",
        "if c < min(size, p.bit_count())",
        "if c <= min(size, p.bit_count())",
        _AUDIT_COUNTS,
        "an agent whose bundle no bundle of its size beats runs reports",
    ),
    Mutant(
        "truthful-bundle-unchecked",
        "audits.py",
        "        _require_within(agent, truth_final[i], truth[i])\n",
        "",
        ("tests/test_audit_masks.py::"
         "test_a_bundle_outside_the_reported_a_and_b_is_an_invariant_error",),
        "a truthful bundle outside the reported A ∪ B gives a verdict",
    ),
    # -- PR 16's agent skip and PR 24's verdict sharing ------------------------
    Mutant(
        "agent-without-open-prefix-searched",
        "audits.py",
        "        if not open_prefixes:\n            continue\n",
        "",
        ("tests/test_audit_masks.py::test_a_misreport_search_builds_only_the_rationed_agents_reports",),
        "the misreport search builds the reports of an agent whose truthful "
        "bundle no bundle of its size beats",
    ),
    Mutant(
        "dominance-verdict-per-matching",
        "audits.py",
        "        if counts not in dominated:\n",
        "        if True:\n",
        ("tests/test_audits.py::test_matchings_with_equal_prefix_counts_share_one_dominance_verdict",),
        "efficient_ir_set asks for a dominance verdict once per CIR matching, "
        "not once per prefix-count tuple",
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Apply `mutant` to the copy of the sources under `src`."""
    path = src / "balex" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant | None, tests: tuple[str, ...], timeout: float) -> str:
    """'killed', 'timeout' or 'survived', from `tests` on a copy of the
    sources with `mutant` applied, or on an unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="balex-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(
                [*command, *tests],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.breaks}")
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names or known]
    # a kill counts only if the tests pass on the unmutated sources
    tests = tuple(dict.fromkeys(test for m in chosen for test in m.tests))
    if run(None, tests, args.timeout * len(chosen)) != "survived":
        print("the mutants' tests do not pass on the unmutated sources")
        return 2
    verdicts: dict[str, list[str]] = {"killed": [], "timeout": [], "survived": []}
    for mutant in chosen:
        start = time.perf_counter()
        verdict = run(mutant, mutant.tests, args.timeout)
        name = mutant.name
        verdicts[verdict].append(name)
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    for verdict in ("timeout", "survived"):
        if verdicts[verdict]:
            print(f"{verdict}: {', '.join(verdicts[verdict])}")
    print(
        f"{len(verdicts['killed'])} killed, {len(verdicts['timeout'])} killed by timeout, "
        f"{len(verdicts['survived'])} survived"
    )
    return 1 if verdicts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())

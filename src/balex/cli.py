"""Command-line front end: run the mechanism, audit matchings, generate markets,
benchmark, and reproduce named fixtures.

Exit codes: 0 success, 1 invalid input, 2 audit failure, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Any

from . import audits, fixtures, generate, mechanism, model
from .model import ValidationError
from .optimize import EnumerationLimitError, InfeasibleError, _check_enumeration_bound
from .responsive import cir_violation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_AUDIT_FAILURE = 2
EXIT_INVARIANT = 3


def _read_json(path: str) -> Any:
    """The JSON document in file `path`; a file that cannot be read as UTF-8
    text (a directory, no permission, other bytes) is invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> tuple[model.Instance, dict]:
    return model.market_from_json(_read_json(path))


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _matching_text(instance: model.Instance, matching: model.Matching) -> str:
    return "\n".join(
        f"{a}: {' '.join(sorted(matching.assignment[a]))}" for a in instance.agents
    )


def cmd_run(args: argparse.Namespace) -> int:
    instance, raw_prefs = _load(args.input)
    if args.priority:
        instance = instance.with_priority(args.priority.split(","))
    prefs = model.trichotomous_profile(instance, raw_prefs)
    final, trace = mechanism.run_ir_priority(instance, prefs)
    if args.format == "json":
        doc: dict[str, object] = {
            "matching": model.matching_to_json(instance, final)["assignment"],
        }
        if args.trace:
            doc["trace"] = mechanism.trace_to_json(instance, trace)
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.output)
    else:
        lines = [_matching_text(instance, final)]
        if args.trace:
            lines.append(f"rounds: {len(trace.rounds)}")
            for r in trace.rounds:
                lines.append(
                    f"  round {r.round}: promises={list(r.promises)} "
                    f"non_improvable={sorted(r.non_improvable)}"
                )
            lines.append(f"flow queries: {trace.flow_queries}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    instance, raw_prefs = _load(args.input)
    if args.priority:
        instance = instance.with_priority(args.priority.split(","))
    trichotomous = True
    try:
        prefs = model.trichotomous_profile(instance, raw_prefs)  # checks the profile
    except model.NotTrichotomousError:
        trichotomous = False
        prefs = None
    if args.sp or args.truncation:
        # both audits refuse the same bound; checked here before any other work
        _check_enumeration_bound(instance, args.bound)

    if args.matching:
        matching = model.matching_from_json(instance, _read_json(args.matching))
    elif args.mechanism:
        if not trichotomous:
            raise ValidationError("--mechanism needs a trichotomous profile")
        matching, _ = mechanism.run_ir_priority(instance, prefs)
    else:
        raise ValidationError("audit needs --matching FILE or --mechanism")

    report: dict[str, object] = {
        "matching": model.matching_to_json(instance, matching)["assignment"],
        "checks": {},
    }
    checks: dict[str, object] = report["checks"]  # type: ignore[assignment]
    failed = False

    violation = cir_violation(instance, matching, raw_prefs)
    checks["cir"] = {
        "verdict": violation is None,
        "witness": None if violation is None else {"agent": violation[0], "pivot": violation[1]},
    }
    failed |= violation is not None

    if violation is None and trichotomous:
        efficient = audits.unambiguously_efficient(
            instance, matching, prefs, mode="cycle"
        )
    else:
        efficient = audits.unambiguously_efficient(
            instance, matching, raw_prefs, mode="brute", bound=args.bound
        )
    checks["efficiency"] = {"verdict": efficient}
    failed |= not efficient

    if args.core:
        if not trichotomous:
            raise ValidationError("core audit needs a trichotomous profile")
        if args.strict_acceptability and violation is not None:
            raise ValidationError("strict-acceptability core audit needs a CIR matching")
        witness = audits.unambiguously_in_weak_core(
            instance,
            matching,
            prefs,
            strict_acceptability=args.strict_acceptability,
            bound=args.bound,
        )
        checks["weak_core"] = {
            "verdict": witness is None,
            "witness": None
            if witness is None
            else {
                "coalition": list(witness.coalition),
                "reallocation": {
                    a: sorted(witness.reallocation[a]) for a in witness.coalition
                },
            },
        }
        failed |= witness is not None

    if args.sp:
        if not trichotomous:
            raise ValidationError("strategy-proofness audit needs a trichotomous profile")
        domain = None
        if args.domain == "strongly-trichotomous":
            domain = model.DomainSpec.strongly_trichotomous()
        elif args.domain == "dichotomous":
            domain = model.DomainSpec.dichotomous()
        witness = audits.check_strategy_proofness(instance, prefs, domain, bound=args.bound)
        checks["strategy_proofness"] = {
            "verdict": witness is None,
            "witness": None
            if witness is None
            else {
                "agent": witness.agent,
                "misreport": {
                    "attractive": sorted(witness.misreport.attractive),
                    "bearable": sorted(witness.misreport.bearable),
                },
                "truthful_bundle": sorted(witness.truthful_bundle),
                "misreport_bundle": sorted(witness.misreport_bundle),
                "certificate": witness.certificate.to_json(),
            },
        }
        failed |= witness is not None

    if args.truncation:
        if not trichotomous:
            raise ValidationError("truncation audit needs a trichotomous profile")
        witness = audits.check_truncation_proofness(instance, prefs, bound=args.bound)
        checks["truncation_proofness"] = {"verdict": witness is None}
        failed |= witness is not None

    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.output)
    else:
        lines = []
        cir_check = checks["cir"]
        if cir_check["verdict"]:
            lines.append("CIR: ok")
        else:
            w = cir_check["witness"]
            lines.append(f"not CIR; witness agent {w['agent']}, pivot {w['pivot']}")
        lines.append(f"unambiguously efficient: {'yes' if efficient else 'no'}")
        for name in ("weak_core", "strategy_proofness", "truncation_proofness"):
            if name in checks:
                verdict = checks[name]["verdict"]
                label = name.replace("_", " ")
                if name == "strategy_proofness" and verdict:
                    lines.append("no manipulation found")
                else:
                    lines.append(f"{label}: {'ok' if verdict else 'VIOLATED'}")
        _emit("\n".join(lines), args.output)
    return EXIT_AUDIT_FAILURE if failed else EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    instance, prefs = generate.random_market(
        seed=args.seed,
        n_agents=args.agents,
        max_endowment=args.max_endowment,
        strongly_trichotomous=args.strongly_trichotomous,
    )
    doc = model.market_to_json(instance, prefs)
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    grid = []
    for part in args.sizes.split(","):
        try:
            n, e = (int(x) for x in part.split(":"))
        except ValueError:
            n = e = 0
        if n < 1 or e < 1:
            raise ValidationError(
                f"--sizes entry {part!r} is not AGENTS:OBJECTS_PER_AGENT (positive integers)"
            )
        grid.append((n, e))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "agents", "objects", "rounds", "flow_queries", "seconds"])
    for n, per in grid:
        instance, prefs = generate.random_market(
            seed=args.seed, n_agents=n, max_endowment=per, exact_endowment=per
        )
        start = time.perf_counter()
        _, trace = mechanism.run_ir_priority(instance, prefs)
        elapsed = time.perf_counter() - start
        writer.writerow(
            [
                args.seed,
                n,
                len(instance.objects),
                trace.round_count,
                trace.flow_queries,
                f"{elapsed:.4f}",
            ]
        )
    _emit(buf.getvalue().rstrip("\n"), args.output)
    return EXIT_OK


def cmd_fixture(args: argparse.Namespace) -> int:
    fx = fixtures.load_fixture(args.name)
    doc = model.market_to_json(fx.instance, fx.prefs)
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balex",
        description="Balanced exchange: priority mechanism and property audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the priority mechanism on a market file")
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--priority", help="comma-separated agent order override")
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.add_argument("--output")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="audit a matching (or the mechanism output)")
    p_audit.add_argument("--input", required=True)
    p_audit.add_argument("--matching", help="matching JSON file to audit")
    p_audit.add_argument("--mechanism", action="store_true", help="audit the mechanism output")
    p_audit.add_argument("--priority", help="comma-separated agent order override")
    p_audit.add_argument("--core", action="store_true")
    p_audit.add_argument("--strict-acceptability", action="store_true")
    p_audit.add_argument("--sp", action="store_true")
    p_audit.add_argument(
        "--domain",
        choices=["trichotomous", "strongly-trichotomous", "dichotomous"],
        default="trichotomous",
    )
    p_audit.add_argument("--truncation", action="store_true")
    p_audit.add_argument("--bound", type=int, default=10, help="enumeration bound")
    p_audit.add_argument("--format", choices=["text", "json"], default="text")
    p_audit.add_argument("--output")
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("generate", help="generate a seeded random market file")
    p_gen.add_argument("--agents", type=int, required=True)
    p_gen.add_argument("--max-endowment", type=int, default=2)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--strongly-trichotomous", action="store_true")
    p_gen.add_argument("--output")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="wall-clock benchmark over a size grid")
    p_bench.add_argument("--sizes", default="5:2,10:3,20:4,50:4")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output")
    p_bench.set_defaults(func=cmd_bench)

    p_fx = sub.add_parser("fixture", help="emit a named fixture as a market file")
    p_fx.add_argument("name", choices=list(fixtures.FIXTURE_NAMES))
    p_fx.add_argument("--output")
    p_fx.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValidationError,
        EnumerationLimitError,
        InfeasibleError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except mechanism.MechanismInvariantError as exc:
        # the mechanism's errors carry the finished rounds as a second argument
        print(f"internal invariant violation: {exc.args[0]}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

"""Broken internal invariants surface as MechanismInvariantError, never as assert."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import balex
from balex import mechanism
from balex.flownet import ExchangeFlow
from balex.model import MechanismInvariantError

SRC = Path(balex.__file__).resolve().parent


def test_mechanism_reexports_the_model_error():
    assert mechanism.MechanismInvariantError is MechanismInvariantError


def test_extract_canonical_on_unsolved_infeasible_network_raises_typed_error():
    # two unit-demand agents both limited to object 0; object 1 has no taker
    flow = ExchangeFlow([1, 1], n_objects=2)
    assert flow.install([0, 0], [0b01, 0b01], [0, 0])
    with pytest.raises(MechanismInvariantError):
        flow.extract_canonical([0, 1])


def test_retarget_refuses_a_matching_outside_the_new_bearable_sets():
    # each agent holds the other's attractive object in its bearable tier
    flow = ExchangeFlow([1, 1], n_objects=2)
    assert flow.install([0b01, 0b10], [0b11, 0b11], [0, 0], None, [0b10, 0b01])
    flow.retarget([0b10, 0b01])
    with pytest.raises(MechanismInvariantError):
        flow.retarget([0b00, 0b01])


def test_package_has_no_assert_or_assertion_error():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert offenders == []


def test_package_counts_bits_with_bit_count():
    """One popcount idiom: `int.bit_count()`, never `bin(x).count("1")`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "bin"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_audits_judge_bundles_only_through_compare_prefix_counts():
    """One prefix-count rule: audits reach prefix-count dominance through
    `responsive.compare_prefix_counts` on bundle masks, never through the
    name-level comparisons."""
    named_level = {"exists_strict_preference", "compare_unambiguous", "prefix_counts"}
    offenders = []
    for node in ast.walk(ast.parse((SRC / "audits.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in named_level:
            offenders.append(f"audits.py:{getattr(node, 'lineno', '?')} {name}")
    assert offenders == []

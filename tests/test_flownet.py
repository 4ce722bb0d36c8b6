"""Flow network: starting from a known matching versus path augmentation."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from balex.fixtures import load_fixture
from balex.flownet import ExchangeFlow
from balex.mechanism import run_ir_priority


def _popcount(x: int) -> int:
    return bin(x).count("1")


@st.composite
def systems_with_a_matching(draw):
    """A constraint system, a balanced matching satisfying it and a priority order."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    m = sum(sizes)
    full = (1 << m) - 1
    objects = draw(st.permutations(range(m)))
    bundles, k = [], 0
    for s in sizes:
        bundles.append(sum(1 << j for j in objects[k : k + s]))
        k += s
    attractive = [draw(st.integers(0, full)) for _ in sizes]
    allowed = [b | draw(st.integers(0, full)) for b in bundles]
    counts = [_popcount(b & a) for b, a in zip(bundles, attractive)]
    lo = [draw(st.integers(0, c)) for c in counts]
    hi = [c + draw(st.integers(0, 2)) for c in counts] if draw(st.booleans()) else None
    order = draw(st.permutations(range(len(sizes))))
    return (sizes, attractive, allowed, lo, hi, m), bundles, list(order)


def _dictatorship(flow: ExchangeFlow, order: list[int]) -> tuple[list[int], list[int]]:
    promises = []
    for i in order:
        promises.append(flow.maximize(i))
        flow.freeze(i)
    return promises, flow.extract_canonical(order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_matching())
def test_start_from_matching_agrees_with_path_augmentation(case):
    (sizes, attractive, allowed, lo, hi, m), bundles, order = case
    started = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    solved = ExchangeFlow(sizes, attractive, allowed, lo, hi, n_objects=m)
    assert started.start_from(bundles)
    assert solved.solve_feasible()
    assert _dictatorship(started, order) == _dictatorship(solved, order)


def test_start_from_rejects_a_matching_that_breaks_the_constraints():
    # agent 0 owns object 0 (attractive to it), agent 1 owns object 1
    def network(lo, allowed=(0b01, 0b11)):
        return ExchangeFlow([1, 1], [0b01, 0b01], list(allowed), lo, n_objects=2)

    assert network([1, 0]).start_from([0b01, 0b10])
    assert not network([1, 0]).start_from([0b10, 0b01])  # outside agent 0's allowed set
    assert not network([0, 1]).start_from([0b01, 0b10])  # below agent 1's lower bound
    assert not network([0, 0]).start_from([0b11, 0b00])  # not one object per agent
    assert not network([0, 0], allowed=(0b01, 0b01)).start_from([0b01, 0b01])


def test_mechanism_networks_start_from_the_incumbent(monkeypatch):
    fx = load_fixture("thm4-base")
    builds, solves = [], []
    build, solve = ExchangeFlow.__init__, ExchangeFlow.solve_feasible

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    def counting_solve(self):
        solves.append(1)
        return solve(self)

    monkeypatch.setattr(ExchangeFlow, "__init__", counting_build)
    monkeypatch.setattr(ExchangeFlow, "solve_feasible", counting_solve)
    _, trace = run_ir_priority(fx.instance, fx.prefs)
    # a refinement and an improvability network per outer round, then the final pass
    assert len(builds) == 2 * (len(trace.rounds) - 1) + 1
    assert solves == []

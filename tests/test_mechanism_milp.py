"""The whole mechanism against a second implementation on integer programs.

`oracle_mechanism` in conftest enumerates matchings and so stops at about 8
objects.  Here the paper's mechanism is written once more over
`scipy.optimize.milp`, which reaches 20-100 objects, where edge order and
reroutes in the flow network matter:

- each step of the serial dictatorship is one integer program that maximizes
  the agent's attractive count with the earlier promises fixed;
- the canonical matching is taken agent by agent in priority order, each
  agent's allowed objects in index order, with one feasibility program per
  candidate that keeps the candidate and every earlier pin;
- under the outer (maximal) bearable sets, a program maximizing the total
  attractive count of the agents not yet shown a gain either shows some of
  them one or proves that none of them is improvable.

A program is not solved when its answer is already in hand: a feasible point
that holds the candidate or reaches the agent's cap, or an agent whose pins
already fill its attractive count (or its remaining count) so that its own
rows refuse one more such object.  scipy is a test-only dependency.
"""

from __future__ import annotations

import pytest

from balex.generate import random_market
from balex.mechanism import run_ir_priority
from balex.model import Instance, Matching, TrichotomousPreference

np = pytest.importorskip("numpy")
opt = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


class _Program:
    """The matchings that give each agent objects of A ∪ B only and at least
    the attractive count it has in `base`, as one 0/1 variable per allowed
    (agent, object) pair."""

    def __init__(
        self,
        instance: Instance,
        attractive: dict[str, frozenset[str]],
        bearable: dict[str, frozenset[str]],
        base: Matching,
    ) -> None:
        agents, objects = instance.agents, instance.object_ids
        n, m = len(agents), len(objects)
        self.instance = instance
        self.pairs = [
            (i, j)
            for i, a in enumerate(agents)
            for j, o in enumerate(objects)
            if o in attractive[a] | bearable[a]
        ]
        self.index = {pair: k for k, pair in enumerate(self.pairs)}
        self.owner = np.array([i for i, _ in self.pairs])
        self.good = np.array([objects[j] in attractive[agents[i]] for i, j in self.pairs])
        # rows: each object once, each agent its endowment size, each agent's
        # attractive count between its base count and its size
        rows, cols = [], []
        for k, (i, j) in enumerate(self.pairs):
            rows += [j, m + i]
            cols += [k, k]
            if self.good[k]:
                rows.append(m + n + i)
                cols.append(k)
        self.matrix = sparse.csr_array(
            (np.ones(len(rows)), (rows, cols)), shape=(m + 2 * n, len(self.pairs))
        )
        sizes = list(instance.sizes)
        self.base = [len(base.assignment[a] & attractive[a]) for a in agents]
        self.lower = np.array([1] * m + sizes + self.base, dtype=float)
        self.upper = np.array([1] * m + sizes + sizes, dtype=float)
        self.fixed = np.zeros(len(self.pairs))  # 1 for a pinned pair
        self.caps = [
            min(sizes[i], int(self.good[self.owner == i].sum())) for i in range(n)
        ]
        self.witness = self.vector(base)

    def vector(self, mu: Matching) -> np.ndarray:
        x = np.zeros(len(self.pairs), dtype=int)
        for i, a in enumerate(self.instance.agents):
            for o in mu.assignment[a]:
                x[self.index[(i, self.instance.object_index[o])]] = 1
        return x

    def count(self, x: np.ndarray, i: int) -> int:
        return int(x[(self.owner == i) & self.good].sum())

    def solve(self, agents: frozenset[int] = frozenset()) -> np.ndarray | None:
        """A solution maximizing the total attractive count of `agents` (any
        solution when there are none), or None when the program is infeasible."""
        goal = np.where(np.isin(self.owner, list(agents)) & self.good, -1.0, 0.0)
        res = opt.milp(
            goal,
            constraints=opt.LinearConstraint(self.matrix, self.lower, self.upper),
            integrality=np.ones(len(self.pairs)),
            bounds=opt.Bounds(self.fixed, np.ones(len(self.pairs))),
        )
        assert res.status in (0, 2), res.message  # optimal or infeasible
        return None if res.status == 2 else np.round(res.x).astype(int)

    def maximize(self, i: int) -> int:
        if self.count(self.witness, i) < self.caps[i]:
            self.witness = self.solve(frozenset([i]))
        return self.count(self.witness, i)

    def fix_count(self, i: int, k: int) -> None:
        n_objects = len(self.instance.object_ids)
        row = n_objects + len(self.instance.agents) + i
        self.lower[row] = self.upper[row] = k

    def pin(self, i: int, j: int) -> bool:
        """Keep object j with agent i for good when some solution allows it."""
        k = self.index[(i, j)]
        mine = (self.fixed == 1) & (self.owner == i) & (self.good == self.good[k])
        row = len(self.instance.object_ids) + len(self.instance.agents) + i
        room = self.upper[row] if self.good[k] else self.instance.sizes[i] - self.lower[row]
        if mine.sum() >= room:  # the agent's rows leave no room for one more
            return False
        self.fixed[k] = 1
        if not self.witness[k]:
            found = self.solve()
            if found is None:
                self.fixed[k] = 0
                return False
            self.witness = found
        return True

    def matching(self) -> Matching:
        agents, objects = self.instance.agents, self.instance.object_ids
        bundles: dict[str, set[str]] = {a: set() for a in agents}
        for k in np.flatnonzero(self.witness):
            i, j = self.pairs[k]
            bundles[agents[i]].add(objects[j])
        return Matching({a: frozenset(b) for a, b in bundles.items()})


def _refine(instance, attractive, bearable, mu):
    """Serial dictatorship over the CIR matchings weakly improving mu, then the
    canonical matching among those that keep every promise."""
    program = _Program(instance, attractive, bearable, mu)
    promises = []
    for i in range(len(instance.agents)):
        promises.append(program.maximize(i))
        program.fix_count(i, promises[-1])
    taken: set[int] = set()
    for i, size in enumerate(instance.sizes):
        got = 0
        for j in range(len(instance.object_ids)):
            if got == size:
                break
            if j not in taken and (i, j) in program.index and program.pin(i, j):
                taken.add(j)
                got += 1
        assert got == size
    return program.matching(), tuple(promises)


def _non_improvable(instance, attractive, bearable_outer, mu):
    """The agents no CIR matching weakly improving mu gives a higher attractive
    count.  A program maximizing the total count of the undecided agents
    either shows some of them a gain, or proves that none can gain."""
    program = _Program(instance, attractive, bearable_outer, mu)
    undecided = frozenset(range(len(instance.agents)))
    while undecided:
        x = program.solve(undecided)
        gained = {i for i in undecided if program.count(x, i) > program.base[i]}
        if not gained:
            break
        undecided -= gained
    return frozenset(instance.agents[i] for i in undecided)


def ip_mechanism(instance: Instance, prefs: dict[str, TrichotomousPreference]):
    """Each round's (matching, promises, non-improvable set), the final pass last.

    Bearable sets start minimal (the endowed non-attractive objects) for the
    refinement and maximal (every non-attractive object) for the
    improvability test; an agent's true bearable set is read once it is
    non-improvable, and the rounds end when every agent is."""
    agents = frozenset(instance.agents)
    attractive = {a: prefs[a].attractive for a in instance.agents}
    true_b = {a: prefs[a].bearable for a in instance.agents}
    floor = {a: instance.endowment[a] - attractive[a] for a in instance.agents}
    ceil = {a: instance.objects - attractive[a] for a in instance.agents}
    elicited: frozenset[str] = frozenset()
    mu = instance.endowment_matching()
    rounds = []
    while elicited != agents:
        bearable = {a: true_b[a] if a in elicited else floor[a] for a in instance.agents}
        outer = {a: true_b[a] if a in elicited else ceil[a] for a in instance.agents}
        mu, promises = _refine(instance, attractive, bearable, mu)
        non_improvable = _non_improvable(instance, attractive, outer, mu)
        assert elicited < non_improvable, "the non-improvable set must grow"
        elicited = non_improvable
        rounds.append((mu, promises, elicited))
    final, promises = _refine(instance, attractive, true_b, mu)
    rounds.append((final, promises, agents))
    return rounds


MARKETS = [
    # the sparse market of the extraction-marks test: 96 objects, 4 rounds
    dict(seed=0, n_agents=24, max_endowment=4, p_attractive_other=0.025,
         p_bearable_other=0.5, exact_endowment=4),
    dict(seed=1, n_agents=12, max_endowment=3),
    dict(seed=2, n_agents=20, max_endowment=2),
    dict(seed=3, n_agents=15, max_endowment=4, p_attractive_other=0.1),
    dict(seed=4, n_agents=25, max_endowment=3, p_attractive_other=0.05,
         p_bearable_other=0.4),
    dict(seed=5, n_agents=30, max_endowment=2, strongly_trichotomous=True),
    dict(seed=6, n_agents=15, max_endowment=4, exact_endowment=4),
    dict(seed=7, n_agents=25, max_endowment=4, exact_endowment=4),
    dict(seed=8, n_agents=30, max_endowment=2, p_attractive_other=0.03,
         p_bearable_other=0.6),
    dict(seed=9, n_agents=18, max_endowment=3, p_attractive_own=0.2,
         p_attractive_other=0.08, p_bearable_other=0.2),
]


@pytest.mark.parametrize("market", MARKETS, ids=lambda kw: f"seed{kw['seed']}")
def test_mechanism_agrees_with_integer_programs(market):
    instance, prefs = random_market(**market)
    assert 20 <= len(instance.objects) <= 100
    _, trace = run_ir_priority(instance, prefs)
    got = [(r.mu, r.promises, r.non_improvable) for r in trace.rounds]
    assert got == ip_mechanism(instance, prefs)

"""Checks of the library's outputs by separate computations.

Nothing here calls the library's verdict code.  Matchings are read as plain
agent -> object-set maps and preferences as (A, B) sets; efficiency is
decided by a linear program (scipy's HiGHS), strict-acceptability blocking by
a memoized search over bitmasks, and certificates by direct arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

Bundles = Mapping[str, frozenset[str]]


def cover_problem(
    agents: Sequence[str],
    objects: frozenset[str],
    endowment: Bundles,
    bundles: Bundles,
) -> str | None:
    """Why `bundles` is not a balanced, disjoint cover of the objects, if it is not."""
    if set(bundles) != set(agents):
        return "bundles do not cover exactly the agents"
    seen: set[str] = set()
    for a in agents:
        b = bundles[a]
        if len(b) != len(endowment[a]):
            return f"agent {a} gets {len(b)} objects, endowed with {len(endowment[a])}"
        if b & seen:
            return f"objects {sorted(b & seen)} assigned twice"
        seen |= b
    if seen != objects:
        return f"objects {sorted(objects - seen)} unassigned"
    return None


def attractive_counts(
    agents: Sequence[str], bundles: Bundles, attractive: Bundles
) -> list[int]:
    return [len(bundles[a] & attractive[a]) for a in agents]


def is_cir(
    agents: Sequence[str],
    endowment: Bundles,
    attractive: Bundles,
    acceptable: Bundles,
    bundles: Bundles,
) -> bool:
    """Component-wise IR on (A, B): bundle within A ∪ B and no attractive loss."""
    return all(
        bundles[a] <= acceptable[a]
        and len(bundles[a] & attractive[a]) >= len(endowment[a] & attractive[a])
        for a in agents
    )


def max_total_attractive(
    agents: Sequence[str],
    objects: Sequence[str],
    endowment: Bundles,
    attractive: Bundles,
    acceptable: Bundles,
    floor: Sequence[int],
) -> int:
    """Largest total attractive count over matchings with acceptable bundles in
    which agent i keeps at least floor[i] attractive objects.

    Solved as a linear program over x[i, o] in [0, 1].  The constraint matrix
    (one row per agent, one per object, one nested attractive row per agent)
    is totally unimodular, so the LP optimum is the integer optimum.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    col = {o: j for j, o in enumerate(objects)}
    var_agent, var_object, cost = [], [], []
    for i, a in enumerate(agents):
        for o in sorted(acceptable[a]):
            var_agent.append(i)
            var_object.append(col[o])
            cost.append(-1.0 if o in attractive[a] else 0.0)
    nv, n, m = len(cost), len(agents), len(objects)
    rows = np.concatenate([np.array(var_agent), n + np.array(var_object)])
    cols = np.concatenate([np.arange(nv), np.arange(nv)])
    a_eq = coo_matrix((np.ones(2 * nv), (rows, cols)), shape=(n + m, nv)).tocsr()
    b_eq = [len(endowment[a]) for a in agents] + [1] * m
    att = [k for k in range(nv) if cost[k] < 0]
    a_ub = coo_matrix(
        (-np.ones(len(att)), ([var_agent[k] for k in att], att)), shape=(n, nv)
    ).tocsr()
    res = linprog(
        cost, A_ub=a_ub, b_ub=[-f for f in floor], A_eq=a_eq, b_eq=b_eq,
        bounds=(0, 1), method="highs",
    )
    if res.status != 0:
        raise ValueError(f"efficiency LP failed: {res.message}")
    best = -res.fun
    if abs(best - round(best)) > 1e-6:
        raise ValueError(f"efficiency LP optimum {best} is not integral")
    return int(round(best))


def efficiency(
    agents: Sequence[str],
    objects: Sequence[str],
    endowment: Bundles,
    attractive: Bundles,
    acceptable: Bundles,
    bundles: Bundles,
) -> tuple[bool, int, int]:
    """(efficient, current total, best total) for a CIR matching: it is
    unambiguously efficient iff no CIR matching raises the total attractive
    count while every agent keeps her count."""
    current = attractive_counts(agents, bundles, attractive)
    best = max_total_attractive(agents, objects, endowment, attractive, acceptable, current)
    return best == sum(current), sum(current), best


def apply_steps(bundles: Bundles, steps: Sequence[tuple[str, str]]) -> dict[str, frozenset[str]] | None:
    """Execute a cycle ((i_1, o_1), ...): i_l receives o_l and gives o_{l-1}.
    None if some agent does not hold what she gives or already holds what she gets."""
    out = {a: set(b) for a, b in bundles.items()}
    for k, (agent, received) in enumerate(steps):
        gives = steps[k - 1][1]
        if gives not in bundles[agent] or received in bundles[agent]:
            return None
        out[agent].discard(gives)
        out[agent].add(received)
    return {a: frozenset(b) for a, b in out.items()}


def prefix_counts(bundle: frozenset[str], classes: Sequence[frozenset[str]]) -> list[int]:
    counts, total = [], 0
    for cls in classes:
        total += len(bundle & cls)
        counts.append(total)
    return counts


def some_extension_prefers(
    new: frozenset[str], old: frozenset[str], classes: Sequence[frozenset[str]]
) -> bool:
    """Whether some responsive extension ranks `new` strictly above `old`:
    exactly when `old` does not hold at least as many objects as `new` in
    every prefix of the classes."""
    pn, po = prefix_counts(new, classes), prefix_counts(old, classes)
    return any(x > y for x, y in zip(pn, po))


def certificate_problem(
    utility: Mapping[str, Fraction],
    classes: Sequence[frozenset[str]],
    better: frozenset[str],
    worse: frozenset[str],
) -> str | None:
    """Why `utility` is not an additive extension of `classes` (constant on each
    class, strictly decreasing across non-empty classes) scoring `better`
    strictly above `worse`, if it is not."""
    levels = []
    for cls in classes:
        if not cls:
            continue
        values = {utility.get(o) for o in cls}
        if None in values or len(values) != 1:
            return "utility is not constant on an indifference class"
        levels.append(values.pop())
    if any(x <= y for x, y in zip(levels, levels[1:])):
        return "utility does not decrease strictly across classes"
    if sum(utility[o] for o in better) <= sum(utility[o] for o in worse):
        return "certificate does not score the better bundle strictly higher"
    return None


def strict_block(
    agents: Sequence[str],
    objects: Sequence[str],
    endowment: Bundles,
    attractive: Bundles,
    acceptable: Bundles,
    bundles: Bundles,
) -> tuple[str, ...] | None:
    """A coalition that can reallocate its own endowments so that each member
    gets an acceptable bundle with strictly more attractive objects than in
    `bundles`, or None."""
    bit = {o: 1 << j for j, o in enumerate(objects)}

    def mask(objs: frozenset[str]) -> int:
        return sum(bit[o] for o in objs)

    n = len(agents)
    size = [len(endowment[a]) for a in agents]
    own = [mask(endowment[a]) for a in agents]
    att = [mask(attractive[a]) for a in agents]
    acc = [mask(acceptable[a]) for a in agents]
    need = [len(bundles[a] & attractive[a]) + 1 for a in agents]

    def subsets(pool: int, k: int):
        if k == 0:
            yield 0
            return
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            for tail in subsets(rest, k - 1):
                yield low | tail

    for coalition in range(1, 1 << n):
        members = [i for i in range(n) if coalition >> i & 1]
        pool = 0
        for i in members:
            pool |= own[i]

        @lru_cache(maxsize=None)
        def fill(k: int, left: int) -> bool:
            if k == len(members):
                return left == 0
            i = members[k]
            for b in subsets(left & acc[i], size[i]):
                if bin(b & att[i]).count("1") >= need[i] and fill(k + 1, left & ~b):
                    return True
            return False

        if fill(0, pool):
            return tuple(agents[i] for i in members)
    return None

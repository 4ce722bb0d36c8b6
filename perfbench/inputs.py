"""Seeded market documents for the three workloads (standard library only).

The documents use the library's market JSON format, so set-up pays the same
parse-and-validate cost as `balex run --input` or `balex audit --input`.
Markets are generated here rather than by `balex.generate`, so that a change
to the library cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
import random

# Markets per run.  A run goes through its pool in order and starts over
# only if time remains; the pools are larger than the number of operations a
# 30-second run completes, so no operation meets a market the library has
# already cached.
POOL = {"scale": 320, "audit": 512, "verify": 1008}


def market_doc(
    rng: random.Random,
    sizes: list[int],
    p_attractive_own: float,
    p_attractive_other: float,
    p_bearable_other: float,
    strongly: bool,
) -> dict[str, object]:
    """One market: agents a1..an in priority order, objects o1..om endowed in turn.

    Each endowed object is attractive to its owner with probability
    `p_attractive_own` and bearable otherwise.  A non-endowed object is
    attractive with probability `p_attractive_other`, bearable with
    probability `p_bearable_other` (never when `strongly`), else unacceptable.
    """
    agents = [f"a{i + 1}" for i in range(len(sizes))]
    endowments: dict[str, list[str]] = {}
    objects: list[str] = []
    for a, size in zip(agents, sizes):
        own = [f"o{len(objects) + k + 1}" for k in range(size)]
        endowments[a] = own
        objects.extend(own)
    preferences: dict[str, dict[str, list[str]]] = {}
    for a in agents:
        own = set(endowments[a])
        attractive: list[str] = []
        bearable: list[str] = []
        for o in objects:
            if o in own:
                (attractive if rng.random() < p_attractive_own else bearable).append(o)
                continue
            roll = rng.random()
            if roll < p_attractive_other:
                attractive.append(o)
            elif not strongly and roll < p_attractive_other + p_bearable_other:
                bearable.append(o)
        preferences[a] = {"attractive": attractive, "bearable": bearable}
    return {
        "agents": agents,
        "objects": objects,
        "endowments": endowments,
        "preferences": preferences,
    }


def scale_doc(rng: random.Random, agents: int = 24) -> dict[str, object]:
    """Sparse attractive sets, so the outer loop runs several rounds (mostly 3)."""
    return market_doc(rng, [4] * agents, 0.4, 0.025, 0.5, strongly=False)


def audit_doc(rng: random.Random, agents: int = 3) -> dict[str, object]:
    """Strongly trichotomous, the domain of the SP theorem: two objects per
    agent except one seeded agent who holds one."""
    sizes = [2] * agents
    sizes[rng.randrange(agents)] = 1
    return market_doc(rng, sizes, 0.4, 0.3, 0.0, strongly=True)


def verify_shapes(max_objects: int = 8) -> list[list[int]]:
    """Every endowment-size vector of 4 or 5 agents with 1-2 objects each and
    at most `max_objects` objects (42 shapes at the default)."""
    return [
        sizes
        for n in (4, 5)
        for code in range(1 << n)
        if sum(sizes := [1 + (code >> k & 1) for k in range(n)]) <= max_objects
    ]


def verify_docs(rng: random.Random, count: int, max_objects: int = 8) -> list[dict[str, object]]:
    """Each pass over the shapes, in a fresh seeded order, gives every shape
    once; every second market is strongly trichotomous."""
    shapes = verify_shapes(max_objects)
    docs: list[dict[str, object]] = []
    while len(docs) < count:
        order = list(shapes)
        rng.shuffle(order)
        for sizes in order:
            strongly = len(docs) % 2 == 0
            docs.append(market_doc(rng, sizes, 0.4, 0.3, 0.3, strongly=strongly))
    return docs[:count]


def make_docs(workload: str, seed: int, count: int | None = None, **shape: int) -> list[str]:
    """The workload's market documents as JSON texts; the same seed gives the same texts."""
    rng = random.Random(f"balex-{workload}-{seed}")
    n = POOL[workload] if count is None else count
    if workload == "verify":
        docs = verify_docs(rng, n, **shape)
    else:
        make = scale_doc if workload == "scale" else audit_doc
        docs = [make(rng, **shape) for _ in range(n)]
    return [json.dumps(doc) for doc in docs]

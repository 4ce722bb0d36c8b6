"""Seeded random instances and trichotomous profiles for tests and benchmarks."""

from __future__ import annotations

import random

from .model import Instance, TrichotomousPreference, ValidationError, validate_instance


def random_market(
    seed: int,
    n_agents: int,
    max_endowment: int = 2,
    p_attractive_own: float = 0.4,
    p_attractive_other: float = 0.3,
    p_bearable_other: float = 0.3,
    strongly_trichotomous: bool = False,
    exact_endowment: int | None = None,
) -> tuple[Instance, dict[str, TrichotomousPreference]]:
    """A valid instance plus trichotomous profile, fully determined by the seed.

    Endowment sizes are uniform on 1..max_endowment (or fixed via
    exact_endowment); every endowed object is attractive or bearable to its
    owner, non-endowed objects are attractive, bearable or unacceptable per the
    given probabilities (never bearable when strongly_trichotomous is set).
    """
    for name, value in (("max_endowment", max_endowment), ("exact_endowment", exact_endowment)):
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be positive, got {value}")
    rng = random.Random(seed)
    agents = [f"a{i + 1}" for i in range(n_agents)]
    endowments: dict[str, list[str]] = {}
    objects: list[str] = []
    counter = 1
    for a in agents:
        size = exact_endowment if exact_endowment is not None else rng.randint(1, max_endowment)
        own = [f"o{counter + k}" for k in range(size)]
        counter += size
        endowments[a] = own
        objects.extend(own)
    instance = validate_instance(
        {"agents": agents, "objects": objects, "endowments": endowments}
    )
    prefs: dict[str, TrichotomousPreference] = {}
    for a in agents:
        attractive: set[str] = set()
        bearable: set[str] = set()
        for o in objects:
            if o in instance.endowment[a]:
                if rng.random() < p_attractive_own:
                    attractive.add(o)
                else:
                    bearable.add(o)
            else:
                roll = rng.random()
                if roll < p_attractive_other:
                    attractive.add(o)
                elif not strongly_trichotomous and roll < p_attractive_other + p_bearable_other:
                    bearable.add(o)
        prefs[a] = TrichotomousPreference(a, frozenset(attractive), frozenset(bearable))
    return instance, prefs

"""Random market generator: determinism and validity."""

from __future__ import annotations

import json

import pytest

from balex.generate import random_market
from balex.model import ValidationError, market_to_json, validate_instance, validate_matching


def test_same_seed_is_byte_identical():
    a = random_market(seed=7, n_agents=4, max_endowment=3)
    b = random_market(seed=7, n_agents=4, max_endowment=3)
    assert json.dumps(market_to_json(*a), sort_keys=True) == json.dumps(
        market_to_json(*b), sort_keys=True
    )
    c = random_market(seed=8, n_agents=4, max_endowment=3)
    assert json.dumps(market_to_json(*a), sort_keys=True) != json.dumps(
        market_to_json(*c), sort_keys=True
    )


def test_generated_markets_always_validate():
    for seed in range(40):
        instance, prefs = random_market(seed=seed, n_agents=1 + seed % 5)
        check = validate_instance(
            {
                "agents": list(instance.agents),
                "objects": list(instance.object_ids),
                "endowments": {a: sorted(instance.endowment[a]) for a in instance.agents},
            }
        )
        assert check == instance
        # the endowment map itself is always a valid matching
        endow = validate_matching(
            instance, {a: sorted(instance.endowment[a]) for a in instance.agents}
        )
        assert endow == instance.endowment_matching()
        for a in instance.agents:
            p = prefs[a]
            assert not (p.attractive & p.bearable)
            assert instance.endowment[a] <= p.attractive | p.bearable


def test_strongly_trichotomous_flag():
    for seed in range(20):
        instance, prefs = random_market(seed=seed, n_agents=3, strongly_trichotomous=True)
        for a in instance.agents:
            assert prefs[a].bearable <= instance.endowment[a]


def test_exact_endowment_sizes():
    instance, _ = random_market(seed=1, n_agents=5, exact_endowment=4)
    assert instance.sizes == (4, 4, 4, 4, 4)
    assert len(instance.objects) == 20


def test_non_positive_endowment_sizes_are_invalid():
    for kwargs in ({"exact_endowment": 0}, {"max_endowment": 0}, {"max_endowment": -1}):
        with pytest.raises(ValidationError, match="must be positive"):
            random_market(seed=0, n_agents=3, **kwargs)

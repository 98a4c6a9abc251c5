from __future__ import annotations

import pytest

from smcycle import matching


@pytest.fixture
def gadget_calls(monkeypatch):
    """Sizes of the blossom searches run while the test runs.  Within
    ``max_simple_2matching`` a search runs only on Tutte's gadget."""
    calls = []

    def counting(adj, mate):
        calls.append(len(adj))
        original(adj, mate)

    original = matching._augment_matching
    monkeypatch.setattr(matching, "_augment_matching", counting)
    return calls


@pytest.fixture
def matching_weight():
    """Total weight of a matching, given as pairs, under weighted edges
    (u, v, w) listed in either orientation."""
    def weigh(edges, matching):
        lookup = {}
        for u, v, w in edges:
            lookup[u, v] = lookup[v, u] = w
        return sum(lookup[e] for e in matching)
    return weigh

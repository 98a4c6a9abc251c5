from __future__ import annotations

from random import Random

import pytest

from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          validate_instance)
from smcycle.errors import BudgetExceededError, ValidationError
from smcycle.oracle import brute_force_2factor, gadget_2factor
from smcycle.twofactor import (brute_force_triangle_free_2matching,
                               min_weight_2factor, min_weight_directed_2factor,
                               min_weight_triangle_free_2factor)


def one_two_instance(n, bits, groups):
    """Build a {1,2} instance from a bit list over the upper triangle."""
    w = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = 1 if bits[k] else 2
            k += 1
    return validate_instance(n, w, True, WeightClass.ONE_TWO, groups)


def check_two_factor_shape(inst, cover, triangle_free=False):
    seen = set()
    for cyc, flag in zip(cover.cycles, cover.pair_flags):
        assert not seen.intersection(cyc)
        seen.update(cyc)
        if flag:
            assert len(cyc) == 2
        else:
            assert len(cyc) >= 3
            if triangle_free:
                assert len(cyc) >= 4
    assert seen == set(range(inst.n))


def test_unit_triangle():
    w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = validate_instance(3, w, True, WeightClass.ONE_TWO, [[0, 1, 2]])
    cover = min_weight_2factor(inst)
    assert cover.cycles == ((0, 1, 2),) or cover.cycles == ((0, 2, 1),)
    assert cover_cost(inst, cover) == 3


# the far weight between two pairs, its weight class and the route taking it
ROUTES = ((2, WeightClass.ONE_TWO, min_weight_2factor),
          (9, WeightClass.GENERAL_METRIC, gadget_2factor))


def test_pair_2cycle_when_cheapest():
    # two far-apart pairs: doubling each pair edge beats any 4-cycle, on
    # {1,2} weights and, through the gadget, on general metric ones
    for big, klass, route in ROUTES:
        w = [[0, 1, big, big], [1, 0, big, big],
             [big, big, 0, 1], [big, big, 1, 0]]
        inst = validate_instance(4, w, True, klass, [[0, 1], [2, 3]])
        cover = route(inst)
        assert cover_cost(inst, cover) == 4
        assert sorted(cover.cycles) == [(0, 1), (2, 3)]
        assert all(cover.pair_flags)


def test_pair_2cycles_disallowed_forces_big_cycle():
    # the same weights with no size-2 group: no pair 2-cycle is legal
    for big, klass, route in ROUTES:
        w = [[0, 1, big, big], [1, 0, big, big],
             [big, big, 0, 1], [big, big, 1, 0]]
        inst = validate_instance(4, w, True, klass, [[0, 1, 2, 3]])
        cover = route(inst)
        assert len(cover.cycles) == 1
        assert cover_cost(inst, cover) == 2 + 2 * big


def test_undirected_matches_oracle():
    # each instance with a size-2 group, and its matrix with one group
    rng = Random(5)
    for trial in range(60):
        n = rng.choice((4, 5, 6, 7, 8))
        sizes = [2, n - 2] if n > 4 or rng.random() < 0.5 else [2, 2]
        paired = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        single = validate_instance(n, paired.weights, True, WeightClass.ONE_TWO,
                                   [list(range(n))])
        for inst in (single, paired):
            cover = min_weight_2factor(inst)
            check_two_factor_shape(inst, cover)
            if inst is single:
                assert not any(cover.pair_flags)
            assert cover_cost(inst, cover) == brute_force_2factor(inst)


def test_undirected_matches_oracle_metric():
    # the degree-gadget reference against the enumeration, general weights
    rng = Random(6)
    for trial in range(20):
        n = rng.choice((5, 6, 7))
        sizes = [n] if trial % 2 else [2, n - 2]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        cover = gadget_2factor(inst)
        check_two_factor_shape(inst, cover)
        assert cover_cost(inst, cover) == brute_force_2factor(inst)


def random_one_two(rng, n, density):
    """{1,2} weights with weight-1 edges at the given density, random group
    sizes 2-6 (a remainder of 1 widens the last group)."""
    bits = [rng.random() < density for _ in range(n * (n - 1) // 2)]
    order = list(range(n))
    rng.shuffle(order)
    groups = []
    while order:
        take = min(len(order), rng.randint(2, 6))
        if len(order) - take == 1:
            take += 1
        groups.append(order[:take])
        order = order[take:]
    return bits, groups


def test_one_two_pairs_of_weight_1_become_pair_2cycles():
    # the doubled pair edge is the only weight-1 edge at each pair vertex
    ones = {(0, 1), (2, 3), (4, 5), (5, 6), (4, 6)}
    bits = [1 if (i, j) in ones else 0 for i in range(7) for j in range(i + 1, 7)]
    inst = one_two_instance(7, bits, [[0, 1], [2, 3], [4, 5, 6]])
    cover = min_weight_2factor(inst)
    assert sorted(zip(cover.cycles, cover.pair_flags)) == [
        ((0, 1), True), ((2, 3), True), ((4, 5, 6), False)]
    assert cover_cost(inst, cover) == 7


def test_one_two_route_matches_oracle():
    # n = 9 is one case in 50: the oracle takes ~36 ms there, 6 ms at n = 8.
    # Each matrix is solved with its groups when they include a size-2 one,
    # and (n >= 3) with one group, where no pair 2-cycle is legal.
    rng = Random(2024)
    cases = 0
    for trial in range(2000):
        n = 9 if trial % 50 == 0 else 2 + trial % 7
        bits, groups = random_one_two(rng, n, rng.random())
        paired = one_two_instance(n, bits, groups)
        insts = [paired] if paired.pair_groups() else []
        if n >= 3:
            insts.append(one_two_instance(n, bits, [list(range(n))]))
        for inst in insts:
            cover = min_weight_2factor(inst)
            check_two_factor_shape(inst, cover)
            if inst is not paired:
                assert not any(cover.pair_flags)
            assert cover_cost(inst, cover) == brute_force_2factor(inst)
            cases += 1
    assert cases >= 2500


def test_one_two_route_matches_gadget_route(gadget_calls):
    # the degree gadget is the exact reference above the enumeration caps;
    # with pairs False the matrix gets one group, so no pair 2-cycle is
    # legal, and the dense cases (density 0.5) with pairs split the vertices
    # into size-2 groups.  The sparse cases leave short vertices that only
    # the blossom search on Tutte's gadget closes; on the dense ones short
    # augmenting paths reach degree 2 everywhere and no search runs
    rng = Random(77)
    for n, density, pairs in ((10, 0.1, True), (14, 0.3, False),
                              (18, 0.05, True), (22, 0.6, False),
                              (27, 0.15, True), (33, 0.02, False),
                              (40, 0.08, False), (30, 0.5, True),
                              (38, 0.5, False), (44, 0.5, True)):
        bits, groups = random_one_two(rng, n, density)
        if density == 0.5 and pairs:
            order = [v for g in groups for v in g]
            groups = [order[i:i + 2] for i in range(0, n, 2)]
        inst = one_two_instance(n, bits, groups if pairs else [list(range(n))])
        before = len(gadget_calls)
        cover = min_weight_2factor(inst)
        check_two_factor_shape(inst, cover)
        assert cover_cost(inst, cover) == cover_cost(inst, gadget_2factor(inst))
        if density == 0.5:
            assert len(gadget_calls) == before and cover_cost(inst, cover) == n
        elif density != 0.6:
            assert len(gadget_calls) > before


def test_directed_two_vertices():
    w = [[0, 3], [4, 0]]
    inst = validate_instance(2, w, False, WeightClass.ASYMMETRIC_METRIC, [[0, 1]])
    cover = min_weight_directed_2factor(inst)
    assert cover.cycles == ((0, 1),)
    assert cover_cost(inst, cover) == 7


def test_directed_matches_oracle():
    rng = Random(17)
    for trial in range(40):
        n = rng.choice((3, 4, 5, 6, 7))
        sizes = [n] if n != 4 else [2, 2]
        inst = generate_instance("asymmetric", n, sizes, seed=rng.randrange(10 ** 6))
        cover = min_weight_directed_2factor(inst)
        assert cover.directed
        seen = set()
        for cyc in cover.cycles:
            assert len(cyc) >= 2
            assert not seen.intersection(cyc)
            seen.update(cyc)
        assert seen == set(range(n))
        assert cover_cost(inst, cover) == brute_force_2factor(inst)


def test_triangle_free_c4_in_k4():
    # a 4-cycle of 1-edges, chords weigh 2
    bits_by_pair = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1,
                    (0, 2): 0, (1, 3): 0}
    bits = [bits_by_pair[(i, j)] for i in range(4) for j in range(i + 1, 4)]
    inst = one_two_instance(4, bits, [[0, 1, 2, 3]])
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    assert cover_cost(inst, cover) == 4


def test_triangle_free_all_ones():
    bits = [1] * 15
    inst = one_two_instance(6, bits, [[0, 1, 2, 3, 4, 5]])
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    assert cover_cost(inst, cover) == 6


def test_triangle_free_infeasible_on_three_vertices():
    bits = [1, 1, 1]
    inst = one_two_instance(3, bits, [[0, 1, 2]])
    with pytest.raises(ValidationError):
        min_weight_triangle_free_2factor(inst)


def test_triangle_free_matches_oracle():
    rng = Random(23)
    for trial in range(120):
        n = rng.choice((4, 5, 6, 7, 8, 9))
        sizes = [n]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        cover = min_weight_triangle_free_2factor(inst)
        check_two_factor_shape(inst, cover, triangle_free=True)
        assert cover_cost(inst, cover) == brute_force_2factor(inst, triangle_free=True)


def test_triangle_free_with_pairs_matches_oracle():
    rng = Random(29)
    for trial in range(60):
        n = rng.choice((6, 7, 8))
        sizes = [2, n - 2]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        cover = min_weight_triangle_free_2factor(inst)
        check_two_factor_shape(inst, cover, triangle_free=True)
        assert cover_cost(inst, cover) == brute_force_2factor(inst, triangle_free=True)


def test_adapter_returns_unchanged_2factor():
    # weight-1 edges already form two disjoint 4-cycles
    ones = {(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)}
    bits = [1 if (i, j) in ones else 0 for i in range(8) for j in range(i + 1, 8)]
    inst = one_two_instance(8, bits, [[0, 1, 2, 3], [4, 5, 6, 7]])
    cover = min_weight_triangle_free_2factor(inst)
    assert cover_cost(inst, cover) == 8
    assert sorted(len(c) for c in cover.cycles) == [4, 4]


def test_adapter_joins_paths_with_2_edges():
    # two disjoint 1-edge paths of length 2 on n=6; everything else weighs 2
    ones = {(0, 1), (1, 2), (3, 4), (4, 5)}
    bits = [1 if (i, j) in ones else 0 for i in range(6) for j in range(i + 1, 6)]
    inst = one_two_instance(6, bits, [[0, 1, 2], [3, 4, 5]])
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    # four 1-edges survive, two junction edges weigh 2: cost 6 + 2 = 8
    assert cover_cost(inst, cover) == 8
    assert cover_cost(inst, cover) == brute_force_2factor(inst, triangle_free=True)


def test_brute_2matching_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_triangle_free_2matching(list(range(13)), set())


def test_brute_2matching_respects_constraints():
    rng = Random(41)
    for trial in range(40):
        n = rng.choice((5, 6, 7, 8))
        edges = {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5}
        out = brute_force_triangle_free_2matching(list(range(n)), edges)
        deg = {v: 0 for v in range(n)}
        adj = {v: set() for v in range(n)}
        for e in out:
            a, b = tuple(e)
            assert e in edges
            deg[a] += 1
            deg[b] += 1
            adj[a].add(b)
            adj[b].add(a)
        assert all(d <= 2 for d in deg.values())
        for e in out:
            a, b = tuple(e)
            assert not (adj[a] & adj[b]), "triangle in 2-matching"

from __future__ import annotations

import itertools
from collections import Counter
from random import Random

import pytest

from smcycle.core import (WeightClass, cover_cost, format_instance,
                          generate_instance, make_cover, parse_instance,
                          parse_solution, validate_instance, validate_solution)
from smcycle.errors import BudgetExceededError, SmcError, ValidationError
from smcycle import twofactor
from smcycle.cli import EXIT_BUDGET, EXIT_OK, main
from smcycle.twofactor import (_max_triangle_free_2matching,
                               enumerate_optimal_2factors, min_weight_2factor,
                               min_weight_directed_2factor,
                               min_weight_triangle_free_2factor)

from reference import (brute_force_2factor, gadget_2factor,
                       optimal_2factors_by_permutation)


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


def partition_triangle_free_2factor(inst):
    """Minimum weight of a 2-factor with no 3-cycle and a pair 2-cycle
    allowed on each size-2 group (n <= 8): the cheapest cycle through each
    vertex set of 4 or more, by trying every order of it, and the doubled
    edge of each pair group, then the cheapest partition of the vertices
    into such sets."""
    n, w = inst.n, inst.weights
    cycle = {(1 << a) | (1 << b): 2 * w[a][b] for a, b in inst.pair_groups()}
    for k in range(4, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            cycle[(1 << first) + sum(1 << v for v in rest)] = min(
                sum(w[a][b] for a, b in zip((first,) + order, order + (first,)))
                for order in itertools.permutations(rest))
    best = [0] + [None] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        low = mask & -mask
        best[mask] = min((best[mask ^ s] + c for s, c in cycle.items()
                          if s & low and s & mask == s
                          and best[mask ^ s] is not None), default=None)
    return best[-1]


def check_triangle_free_pairs(inst):
    """The route refuses size-2 groups; the oracle's triangle-free optimum
    with pair 2-cycles is checked against an independent reference."""
    with pytest.raises(ValidationError, match="no size-2 groups"):
        min_weight_triangle_free_2factor(inst)
    assert (brute_force_2factor(inst, triangle_free=True)
            == partition_triangle_free_2factor(inst))


def test_triangle_free_with_pairs_matches_oracle():
    rng = Random(29)
    for trial in range(60):
        n = rng.choice((6, 7, 8))
        sizes = [2, n - 2]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        check_triangle_free_pairs(inst)


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


def ones_instance(n, ones, groups=None):
    """{1,2} instance whose weight-1 edges are the pairs in ``ones``."""
    bits = [(i, j) in ones for i in range(n) for j in range(i + 1, n)]
    return one_two_instance(n, bits, groups or [list(range(n))])


@pytest.mark.parametrize("n, ones, optimum", [
    # the chain's middle vertex is its only escape: in the first, the path
    # 3-6 and the lone 5 chain as 3, 6, 5, and only 6 has 1-edges into the
    # cycle (to 0 and 1)
    (7, "01 04 06 12 14 16 24 36", 9),
    (8, "07 12 14 25 26 45 56 57", 10),
])
def test_triangle_free_splice_escapes_from_the_chain_middle(n, ones, optimum):
    inst = ones_instance(n, {(int(e[0]), int(e[1])) for e in ones.split()})
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    assert cover_cost(inst, cover) == optimum
    assert brute_force_2factor(inst, triangle_free=True) == optimum


def test_triangle_free_sparse_matches_oracle():
    # sparse weight-1 graphs leave short chains that must be spliced into
    # a cycle.  Odd trials plant one: a 1-edge ring through all but three
    # vertices x, y, z, of which only x has 1-edges into the ring, so that
    # the chain's middle is often its only escape.  Even trials are plain
    # sparse graphs, every second one with a size-2 group, which the route
    # refuses.
    rng = Random(31)
    for trial in range(520):
        order = list(range(4 + trial % 5 if trial % 40 else 9))
        rng.shuffle(order)
        n = len(order)
        groups = [order]
        if trial % 2 and n >= 7:
            x, y, z, *ring = order
            pairs = list(zip(ring, ring[1:] + ring[:1]))
            pairs += [(u, v) for u in ring for v in ring
                      if u < v and rng.random() < 0.1]
            pairs += [(x, v) for v in ring if rng.random() < 0.5]
            pairs += [e for e in ((x, y), (x, z), (y, z)) if rng.random() < 0.5]
        else:
            density = rng.uniform(0.15, 0.5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < density]
            if trial % 4 == 2 and n >= 6:
                groups = [order[:2], order[2:]]
        inst = ones_instance(n, {(min(e), max(e)) for e in pairs}, groups)
        if len(groups) > 1:
            check_triangle_free_pairs(inst)
            continue
        cover = min_weight_triangle_free_2factor(inst)
        check_two_factor_shape(inst, cover, triangle_free=True)
        assert cover_cost(inst, cover) == brute_force_2factor(inst, triangle_free=True)


def exhaustive_triangle_free_2matching(n, edges):
    """Size of a largest triangle-free simple 2-matching, by trying every
    edge subset that keeps each degree at most 2."""
    best = 0
    deg = [0] * n
    adj = [set() for _ in range(n)]

    def extend(k, size):
        nonlocal best
        if size + len(edges) - k <= best:
            return
        if k == len(edges):
            best = size
            return
        u, v = edges[k]
        if deg[u] < 2 and deg[v] < 2 and not adj[u] & adj[v]:
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
            extend(k + 1, size + 1)
            deg[u] -= 1
            deg[v] -= 1
            adj[u].remove(v)
            adj[v].remove(u)
        extend(k + 1, size)

    extend(0, 0)
    return best


def test_triangle_free_2matching_is_maximum():
    # odd trials plant disjoint triangles under sparse extra edges, so that
    # maximum 2-matchings take triangles and the search must branch
    rng = Random(41)
    for trial in range(300):
        if trial % 2:
            n = rng.choice((6, 7, 8, 9))
            order = list(range(n))
            rng.shuffle(order)
            planted = {tuple(sorted(p)) for i in range(0, n - 2, 3)
                       for p in itertools.combinations(order[i:i + 3], 2)}
            density = rng.uniform(0.1, 0.3)
        else:
            n = rng.choice((4, 5, 6, 7, 8))
            planted = set()
            density = rng.uniform(0.2, 0.9)
        edges = sorted(planted | {(i, j) for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < density})
        masks = [0] * n
        for a, b in edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        out = _max_triangle_free_2matching(masks, (1 << n) - 1)
        assert out == sorted(out)
        assert len(set(out)) == len(out) and set(out) <= set(edges)
        adj = {v: set() for v in range(n)}
        for a, b in out:
            adj[a].add(b)
            adj[b].add(a)
        assert all(len(nbrs) <= 2 for nbrs in adj.values())
        assert not any(adj[a] & adj[b] for a, b in out), "triangle in 2-matching"
        assert len(out) == exhaustive_triangle_free_2matching(n, edges)


@pytest.fixture
def tree_nodes(monkeypatch):
    """Sizes of the maximum simple 2-matchings the triangle-free search
    solves, one per search node: the number of vertices with an edge."""
    calls = []

    def counting(masks, extra=()):
        calls.append(sum(map(bool, masks)))
        return original(masks, extra)

    original = twofactor.max_simple_2matching
    monkeypatch.setattr(twofactor, "max_simple_2matching", counting)
    return calls


def test_triangle_free_searches_each_component(tree_nodes):
    # k disjoint weight-1 triangles: each keeps two of its edges, so the
    # optimum is n + k.  Searched as one graph they would take 3^k nodes;
    # one component at a time, each takes 4 (itself and 3 children)
    k = 7
    ones = {(3 * t + a, 3 * t + b) for t in range(k)
            for a, b in ((0, 1), (0, 2), (1, 2))}
    inst = ones_instance(3 * k, ones)
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    assert cover_cost(inst, cover) == 4 * k
    assert len(tree_nodes) == 4 * k and set(tree_nodes) == {3}
    # a triangle, a 4-cycle and a single edge, against the oracle
    ones = {(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8)}
    inst = ones_instance(9, ones)
    cover = min_weight_triangle_free_2factor(inst)
    check_two_factor_shape(inst, cover, triangle_free=True)
    assert cover_cost(inst, cover) == brute_force_2factor(inst, triangle_free=True)


def hub_with_triangles(t):
    """Weight-1 triangles, each joined by one edge to a hub vertex 0: one
    component whose search needs 22 nodes at t = 3."""
    return {e for i in range(t)
            for e in ((3 * i + 1, 3 * i + 2), (3 * i + 1, 3 * i + 3),
                      (3 * i + 2, 3 * i + 3), (0, 3 * i + 1))}


def test_triangle_free_node_budget(monkeypatch, tmp_path, capsys):
    inst = ones_instance(10, hub_with_triangles(3),
                         [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    assert cover_cost(inst, min_weight_triangle_free_2factor(inst)) == 12
    path = tmp_path / "hub.smc"
    path.write_text(format_instance(inst))
    monkeypatch.setattr(twofactor, "TRIANGLE_FREE_NODE_BUDGET", 5)
    with pytest.raises(BudgetExceededError, match="exceeded 5 nodes"):
        min_weight_triangle_free_2factor(inst)
    assert main(["solve", "--algo", "onetwo76", "--in", str(path)]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_onetwo76_solves_above_12_vertices(tmp_path):
    inst_path = tmp_path / "big.smc"
    sol_path = tmp_path / "big.sol"
    assert main(["gen", "onetwo", "40", ",".join(["4"] * 10), "1",
                 "--out", str(inst_path)]) == EXIT_OK
    assert main(["solve", "--algo", "onetwo76", "--in", str(inst_path),
                 "--out", str(sol_path)]) == EXIT_OK
    inst = parse_instance(inst_path.read_text())
    cover = parse_solution(sol_path.read_text())
    assert validate_solution(inst, cover).feasible


def test_optimal_2factor_enumeration_matches_permutation_lister():
    # every optimal 2-factor, each once, against a lister that reads every
    # cycle set off the permutations of the vertices; half the cases take
    # pair groups, the other half are triangle-free
    rng = Random(27)
    seen = Counter()
    for trial in range(320):
        n = rng.choice((4, 5, 6, 7, 8))
        triangle_free = trial % 2 == 1
        if triangle_free:
            shapes = [[n]] + [[3, n - 3]] * (n >= 6) + [[4, 4]] * (n == 8)
        else:
            shapes = ([[2, n - 2], [n]] + [[2, 2, n - 4]] * (n >= 6)
                      + [[2, 2, 2, 2]] * (n == 8))
        inst = generate_instance("one-two", n, rng.choice(shapes),
                                 seed=rng.randrange(1 << 30))
        listed = [c.cycles for c in enumerate_optimal_2factors(inst, triangle_free)]
        assert len(set(listed)) == len(listed)
        assert set(listed) == set(optimal_2factors_by_permutation(inst, triangle_free))
        seen["triangle-free" if triangle_free else "pair groups"] += 1
        seen["several optima"] += len(listed) >= 2
        seen["pair 2-cycle"] += any(len(c) == 2 for cs in listed for c in cs)
        seen["n = 8"] += n == 8
    assert min(seen.values()) >= 30, seen


def test_optimal_2factor_enumeration_refuses_a_dearer_route(monkeypatch):
    # the enumeration takes its bound from the route's cover, so a route
    # that missed the minimum is caught, not copied
    inst = generate_instance("one-two", 8, [2, 6], seed=3)
    optimum = cover_cost(inst, min_weight_2factor(inst))
    hamiltonian = make_cover([list(range(8))])
    assert cover_cost(inst, hamiltonian) > optimum
    monkeypatch.setattr(twofactor, "min_weight_2factor", lambda inst: hamiltonian)
    with pytest.raises(SmcError, match="undercuts the route's minimum"):
        enumerate_optimal_2factors(inst)

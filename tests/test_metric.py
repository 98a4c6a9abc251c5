from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          validate_instance, validate_solution)
from smcycle.matching import min_weight_perfect_matching
from smcycle.metric import (TJoin, approx_metric, double_and_shortcut,
                            doubled_subgraph_baseline, min_t_join,
                            odd_degree_set)
from smcycle.oracle import brute_force_smc
from smcycle.snd import EdgeSubgraph


def unit_metric(n, groups):
    w = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return validate_instance(n, w, True, WeightClass.GENERAL_METRIC, groups)


def brute_min_t_join(g: EdgeSubgraph, inst, targets):
    """Minimum T-join weight over all subsets of the distinct edges."""
    edges = sorted({(u, v) for u, v, _c in g.edges})
    assert len(edges) <= 18
    best = None
    tset = set(targets)
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            deg = {}
            for u, v in sub:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            odd = {v for v, d in deg.items() if d % 2 == 1}
            if odd == tset:
                w = sum(inst.w(u, v) for u, v in sub)
                if best is None or w < best:
                    best = w
    return best


def test_odd_degree_set_cycle_and_path():
    cyc = EdgeSubgraph(n=4, edges=((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)))
    assert odd_degree_set(cyc) == []
    path = EdgeSubgraph(n=4, edges=((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    assert odd_degree_set(path) == [0, 3]


def test_odd_degree_counts_multiplicity():
    g = EdgeSubgraph(n=2, edges=((0, 1, 0), (0, 1, 1)))
    assert odd_degree_set(g) == []


def test_t_join_empty():
    inst = unit_metric(4, [[0, 1, 2, 3]])
    g = EdgeSubgraph(n=4, edges=((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)))
    j = min_t_join(g, inst, [])
    assert j.edges == frozenset()
    assert j.weight(inst) == 0


def test_t_join_on_unit_4cycle():
    inst = unit_metric(4, [[0, 1, 2, 3]])
    g = EdgeSubgraph(n=4, edges=((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)))
    adjacent = min_t_join(g, inst, [0, 1])
    assert adjacent.weight(inst) == 1
    assert adjacent.edges == frozenset({(0, 1)})
    opposite = min_t_join(g, inst, [0, 2])
    assert opposite.weight(inst) == 2


def test_t_join_infeasible_parity():
    inst = unit_metric(4, [[0, 1], [2, 3]])
    g = EdgeSubgraph(n=4, edges=((0, 1, 0), (2, 3, 0)))
    from smcycle.errors import ValidationError
    with pytest.raises(ValidationError):
        min_t_join(g, inst, [0, 2])


def test_t_join_matches_brute_force():
    rng = Random(4)
    checked = 0
    for trial in range(60):
        n = rng.choice((5, 6))
        inst = generate_instance("euclidean", n, [n], seed=rng.randrange(10 ** 6))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.55:
                    edges.append((u, v, 0))
        if len(edges) > 12:
            continue
        g = EdgeSubgraph(n=n, edges=tuple(edges))
        comps = g.components()
        targets = []
        for comp in comps:
            members = sorted(comp)
            take = [v for v in members if rng.random() < 0.5]
            if len(take) % 2:
                take.pop()
            targets.extend(take)
        expected = brute_min_t_join(g, inst, targets)
        if expected is None:
            continue
        checked += 1
        j = min_t_join(g, inst, targets)
        assert j.weight(inst) == expected
    assert checked >= 30


def test_double_and_shortcut_pair():
    inst = validate_instance(2, [[0, 7], [7, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])
    g = EdgeSubgraph(n=2, edges=((0, 1, 0), (0, 1, 1)))
    cover = double_and_shortcut(g, TJoin(edges=frozenset()), inst)
    assert cover.cycles == ((0, 1),)
    assert cover.pair_flags == (True,)
    assert cover_cost(inst, cover) == 14


def test_double_and_shortcut_triangle_plus_doubled_edge():
    inst = unit_metric(3, [[0, 1, 2]])
    g = EdgeSubgraph(n=3, edges=((0, 1, 0), (0, 2, 0), (1, 2, 0)))
    j = TJoin(edges=frozenset())
    cover = double_and_shortcut(g, j, inst)
    assert cover_cost(inst, cover) == 3
    # now force a doubled edge through the join
    g2 = EdgeSubgraph(n=3, edges=((0, 1, 0), (0, 2, 0), (1, 2, 0)))
    j2 = TJoin(edges=frozenset({(0, 1)}))
    from smcycle.errors import SmcError
    with pytest.raises(SmcError):
        double_and_shortcut(g2, j2, inst)  # odd degrees: contract violation


def test_approx_metric_pair():
    inst = validate_instance(2, [[0, 9], [9, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])
    cover, stages = approx_metric(inst)
    assert cover_cost(inst, cover) == 18
    opt, _ = brute_force_smc(inst)
    assert cover_cost(inst, cover) == opt


def test_approx_metric_single_group_tsp():
    inst = generate_instance("euclidean", 6, [6], seed=2)
    cover, stages = approx_metric(inst)
    assert validate_solution(inst, cover).feasible
    opt, _ = brute_force_smc(inst)
    assert cover_cost(inst, cover) <= 3 * opt


def test_approx_metric_random_ratio_and_bounds():
    rng = Random(8)
    for trial in range(30):
        n = rng.choice((5, 6, 7, 8))
        sizes = {5: [2, 3], 6: rng.choice([[2, 2, 2], [3, 3]]),
                 7: [3, 4], 8: rng.choice([[4, 4], [2, 3, 3], [8]])}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        cover, stages = approx_metric(inst)
        assert validate_solution(inst, cover).feasible
        cost = cover_cost(inst, cover)
        opt, _ = brute_force_smc(inst)
        assert cost <= 3 * opt
        # T-join never heavier than half the pruned subgraph
        pruned_w = stages.pruned.weight(inst)
        assert Fraction(stages.join_weight) <= Fraction(pruned_w, 2)
        # a minimum perfect matching on T in the complete graph is never
        # heavier than the T-join
        odd = stages.odd_vertices
        cand = [(a, b, inst.w(a, b)) for i, a in enumerate(odd)
                for b in odd[i + 1:]]
        mate = min_weight_perfect_matching(cand, vertices=odd)
        assert sum(inst.w(u, v) for u, v in mate) <= stages.join_weight
        assert cover_cost(inst, cover) <= stages.eulerian_weight


# one-two instances whose cut-LP optimum lies strictly below OPT
LP_GAP_CASES = [(6, [3, 3], 180015), (6, [3, 3], 173871),
                (9, [3, 3, 3], 278248), (10, [3, 3, 2, 2], 82255)]


def test_first_round_lp_bounds_the_pipeline():
    # LP*, the value of the first rounding round, is the cut-LP optimum:
    # every multicycle is feasible for it, so LP* <= OPT; Jain's rounding
    # keeps w(G') <= 2 LP* and the T-join keeps the cover within 3 LP*.
    # The rounds fix disjoint sorted edge sets that make up G'
    rng = Random(3)
    cases = [("one-two", n, sizes, seed) for n, sizes, seed in LP_GAP_CASES]
    for trial in range(60):
        n = rng.randint(5, 11)
        sizes = [3] * (n // 3 - 1) + [3 + n % 3]
        kind = "euclidean" if trial % 2 else "one-two"
        cases.append((kind, n, sizes, rng.randrange(10 ** 6)))
    gaps = 0
    for kind, n, sizes, seed in cases:
        inst = generate_instance(kind, n, sizes, seed=seed)
        cover, stages = approx_metric(inst)
        lp_star = stages.rounds[0].value
        opt, _ = brute_force_smc(inst)
        assert lp_star <= opt
        assert stages.snd_subgraph.weight(inst) <= 2 * lp_star
        assert cover_cost(inst, cover) <= 3 * lp_star
        gaps += lp_star < opt
        assert all(list(r.fixed) == sorted(r.fixed) for r in stages.rounds)
        assert sorted(e for r in stages.rounds for e in r.fixed) \
            == list(stages.snd_subgraph.edges)
    assert gaps >= len(LP_GAP_CASES)


def test_doubled_baseline_is_four_approx():
    rng = Random(30)
    for trial in range(15):
        n = rng.choice((5, 6, 7))
        sizes = {5: [2, 3], 6: [2, 2, 2], 7: [3, 4]}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        cover = doubled_subgraph_baseline(inst)
        assert validate_solution(inst, cover).feasible
        opt, _ = brute_force_smc(inst)
        assert cover_cost(inst, cover) <= 4 * opt


def test_one_two_instances_accepted_by_metric_pipeline():
    inst = generate_instance("one-two", 7, [3, 4], seed=77)
    cover, _ = approx_metric(inst)
    assert validate_solution(inst, cover).feasible


def test_asymmetric_instance_rejected():
    inst = generate_instance("asymmetric", 5, [2, 3], seed=1)
    from smcycle.errors import ValidationError
    with pytest.raises(ValidationError):
        approx_metric(inst)


def test_doubled_baseline_rejects_asymmetric_instance():
    # the baseline reads only one direction of each weight
    inst = generate_instance("asymmetric", 6, [3, 3], seed=1)
    from smcycle.errors import ValidationError
    with pytest.raises(ValidationError, match="symmetric instance"):
        doubled_subgraph_baseline(inst)

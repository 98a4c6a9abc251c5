from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from smcycle.core import (WeightClass, cover_cost, format_instance,
                          generate_instance, parse_instance, validate_instance,
                          validate_solution)
from smcycle import oracle
from smcycle.errors import BudgetExceededError, SmcError
from smcycle.onetwo import approx_onetwo
from smcycle.oracle import (SMC_TABLE_MAX_N, approx_steiner_forest,
                            brute_force_smc, brute_force_steiner_forest,
                            matching_vs_opt_probe)

from reference import (brute_force_2factor, brute_force_smc_permutation,
                       brute_force_snd)
from test_onetwo import tightness_instance


def test_smc_pair_instance():
    w = [[0, 3], [3, 0]]
    inst = validate_instance(2, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    cost, cover = brute_force_smc(inst)
    assert cost == 6
    assert cover.cycles == ((0, 1),)
    assert cover.pair_flags == (True,)


def _fraction_scaled(inst, d):
    """The instance with every weight divided by d; a file round trip then
    reads the whole ones back as int, so rows mix int and Fraction."""
    w = [[Fraction(x, d) for x in row] for row in inst.weights]
    scaled = validate_instance(inst.n, w, inst.symmetric, inst.weight_class,
                               inst.groups)
    return parse_instance(format_instance(scaled))


def _clustered(rng, sizes, directed):
    """Groups placed around scattered centres, so that optima often hold
    several cycles; w(u, v) = ceil|uv| + lift[v] + 1 is a metric, and an
    asymmetric one when the lifts differ."""
    n = sum(sizes)
    order = list(range(n))
    rng.shuffle(order)
    point = [None] * n
    groups = []
    for size in sizes:
        cx, cy = rng.randrange(3000), rng.randrange(3000)
        group, order = order[:size], order[size:]
        for v in group:
            point[v] = (cx + rng.randrange(60), cy + rng.randrange(60))
        groups.append(group)
    lift = [rng.randrange(1, 40) if directed else 0 for _ in range(n)]
    w = [[0 if u == v else math.ceil(math.dist(point[u], point[v])) + lift[v] + 1
          for v in range(n)] for u in range(n)]
    cls = WeightClass.ASYMMETRIC_METRIC if directed else WeightClass.GENERAL_METRIC
    return validate_instance(n, w, not directed, cls, groups)


def _cluster_reference(inst):
    """Multicycle optimum as the best clustering of the groups, each
    cluster closed by its cheapest cycle over every vertex order."""
    def cycle(verts):
        first, rest = verts[0], verts[1:]
        return min(sum(inst.w(a, b) for a, b in zip(order, order[1:] + order[:1]))
                   for order in ([first] + list(p) for p in permutations(rest)))

    def best(groups):
        if not groups:
            return 0
        head, rest = groups[0], groups[1:]
        return min(cycle(head + sum(chosen, ())) + best([g for g in rest if g not in chosen])
                   for r in range(len(rest) + 1)
                   for chosen in map(list, combinations(rest, r)))
    return best(list(inst.groups))


def test_smc_oracles_agree():
    rng = Random(3)
    shapes = {4: [[2, 2]], 5: [[2, 3]], 6: [[2, 2, 2], [3, 3], [6], [2, 4]],
              7: [[3, 4], [2, 5], [7], [2, 2, 3]]}
    seen = Counter()
    for trial in range(120):
        n = rng.choice((4, 5, 6, 7))
        sizes = rng.choice(shapes[n])
        kind = rng.choice(("euclidean", "one-two", "asymmetric", "clustered"))
        if kind == "clustered":
            inst = _clustered(rng, sizes, directed=rng.random() < 0.5)
        else:
            inst = generate_instance(kind, n, sizes, seed=rng.randrange(10 ** 6))
        if kind != "one-two" and trial % 3 == 0:
            inst = _fraction_scaled(inst, rng.choice((2, 3, 7)))
            seen["fraction"] += 1
        cost, cover = brute_force_smc(inst)
        assert validate_solution(inst, cover).feasible
        assert cover_cost(inst, cover) == cost
        assert cost == brute_force_smc_permutation(inst)
        seen["directed"] += cover.directed
        seen["pair cycle"] += any(cover.pair_flags)
        # a cycle without the first group's start is read from a later table
        seen["later table"] += len(cover.cycles) >= 2
        seen["three groups, several cycles"] += (len(inst.groups) >= 3
                                                 and len(cover.cycles) >= 2)
    assert min(seen.values()) >= 5, seen


def test_smc_four_groups_match_cluster_reference():
    # n = 8 is past the permutation oracle
    rng = Random(5)
    seen = Counter()
    for trial in range(16):
        sizes = [2, 2, 2, 2] if trial % 2 else [2, 2, 4]
        if trial % 4 < 2:
            inst = _clustered(rng, sizes, directed=trial % 8 < 4)
        else:
            kind = ("euclidean", "one-two", "asymmetric")[trial % 3]
            inst = generate_instance(kind, 8, sizes, seed=rng.randrange(10 ** 6))
        if trial % 3 == 0 and inst.weight_class is not WeightClass.ONE_TWO:
            inst = _fraction_scaled(inst, 3)
        cost, cover = brute_force_smc(inst)
        assert cost == _cluster_reference(inst)
        seen[len(cover.cycles)] += 1
    assert sum(c for k, c in seen.items() if k >= 3) >= 3, seen


def _one_two_shaped(rng, n, shape, density):
    """{1,2} instance on n vertices, each edge of weight 1 with probability
    ``density``; ``shape`` picks pair groups (one triple when n is odd),
    one group, or random sizes of at least 2."""
    if shape == "pairs":
        sizes = [2] * (n // 2 - n % 2) + [3] * (n % 2)
    elif shape == "one":
        sizes = [n]
    else:
        sizes = []
        left = n
        while left:
            size = left if left <= 3 else rng.randint(2, left - 2)
            sizes.append(size)
            left -= size
    order = list(range(n))
    rng.shuffle(order)
    groups = []
    for size in sizes:
        groups.append(order[:size])
        order = order[size:]
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = 1 if rng.random() < density else 2
    return validate_instance(n, w, True, WeightClass.ONE_TWO, groups)


def test_one_two_oracle_matches_general_recurrence():
    # a {1,2} instance's table is built from each mask's least cost and
    # cheapest ends; its general-metric twin takes the min over every end,
    # and both must give the same optimum and the same cover
    rng = Random(29)
    cases = [(_one_two_shaped(rng, 2 + trial % 10 + (trial % 50 == 9),
                              ("pairs", "one", "mixed")[trial % 3],
                              (0.15, 0.5, 0.85)[trial // 3 % 3]), None)
             for trial in range(300)]
    cases += [(tightness_instance(), None),
              (_one_two_shaped(rng, 14, "mixed", 0.5), 14)]
    seen = Counter()
    for inst, max_n in cases:
        twin = validate_instance(inst.n, inst.weights, True,
                                 WeightClass.GENERAL_METRIC, inst.groups)
        cost, cover = brute_force_smc(inst, max_n)
        twin_cost, twin_cover = brute_force_smc(twin, max_n)
        assert cost == twin_cost
        assert cover.cycles == twin_cover.cycles
        assert cover.pair_flags == twin_cover.pair_flags
        seen["pair cycle"] += any(cover.pair_flags)
        seen["several cycles"] += len(cover.cycles) >= 2
        seen["only weight-1 arcs"] += cost == inst.n
        seen["a weight-2 arc"] += cost > inst.n
    assert min(seen.values()) >= 5, seen
    assert {inst.n for inst, _ in cases} == set(range(2, 13)) | {14}


@pytest.mark.parametrize("kind", ["euclidean", "one-two"])
def test_walk_back_refuses_an_entry_without_predecessor(kind, monkeypatch):
    # an entry below every sum of its predecessors is a broken table, and
    # the walk back raises a typed error, not StopIteration
    original = oracle._path_table

    def tampered(inst, verts, bits):
        row = original(inst, verts, bits)
        full = (1 << (len(verts) - 1)) - 1
        return lambda mask: ([c - 1 for c in row(mask)] if mask == full
                             else row(mask))

    monkeypatch.setattr(oracle, "_path_table", tampered)
    inst = generate_instance(kind, 6, [6], seed=1)
    with pytest.raises(SmcError, match="no predecessor"):
        brute_force_smc(inst)


def test_smc_budget():
    inst = generate_instance("one-two", 9, [3, 6], seed=0)
    with pytest.raises(BudgetExceededError):
        brute_force_smc(inst, 8)


def test_smc_table_ceiling_holds_above_any_budget():
    n = SMC_TABLE_MAX_N + 1
    for kind, sizes in (("euclidean", [5, 6, 6]), ("asymmetric", [8, 9])):
        inst = generate_instance(kind, n, sizes, seed=1)
        with pytest.raises(BudgetExceededError,
                           match=f"capped at n={SMC_TABLE_MAX_N}, got {n}"):
            brute_force_smc(inst, 40)


@pytest.mark.parametrize("oracle, kind, cap", [
    (brute_force_smc, "euclidean", 12),
    (brute_force_smc, "asymmetric", 8),
    (lambda inst: brute_force_smc(inst, 14), "one-two", 14),
    (lambda inst: brute_force_smc(inst, 16), "euclidean", 16),
    (lambda inst: brute_force_smc(inst, 16), "asymmetric", 16),
    (brute_force_2factor, "one-two", 12),
    (brute_force_2factor, "asymmetric", 7),
    (lambda inst: approx_onetwo(inst, tie_break="adversarial"), "one-two", 12),
    (brute_force_snd, "euclidean", 7),
    (brute_force_steiner_forest, "euclidean", 8)],
    ids=["smc", "smc-directed", "smc-max-n-14", "smc-max-n-16",
         "smc-directed-max-n-16", "2factor", "2factor-directed",
         "optimal-2factors", "snd", "steiner-forest"])
def test_oracle_refuses_one_vertex_over_its_cap(oracle, kind, cap):
    # each oracle states its cap and names it when it refuses; max_n lifts
    # brute_force_smc's cap up to SMC_TABLE_MAX_N, and
    # test_smc_table_ceiling_holds_above_any_budget tries beyond it; the
    # optimal 2-factor enumeration refuses through the adversarial
    # tie-break, its one caller
    inst = generate_instance(kind, cap + 1, [2, cap - 1], seed=1)
    with pytest.raises(BudgetExceededError, match=f"capped at n={cap}($|,)"):
        oracle(inst)


def test_2factor_trivial_cases():
    w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = validate_instance(3, w, True, WeightClass.ONE_TWO, [[0, 1, 2]])
    assert brute_force_2factor(inst) == 3
    from smcycle.errors import ValidationError
    with pytest.raises(ValidationError):
        brute_force_2factor(inst, triangle_free=True)
    w4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    inst4 = validate_instance(4, w4, True, WeightClass.ONE_TWO, [[0, 1, 2, 3]])
    assert brute_force_2factor(inst4) == 4
    assert brute_force_2factor(inst4, triangle_free=True) == 4


def test_2factor_lower_bounds_smc():
    # the unrestricted 2-factor optimum can only undercut the multicycle one
    rng = Random(11)
    for trial in range(30):
        n = rng.choice((5, 6, 7))
        inst = generate_instance("one-two", n, [2, n - 2], seed=rng.randrange(10 ** 6))
        opt2f = brute_force_2factor(inst)
        opt_smc, _ = brute_force_smc(inst)
        assert opt2f <= opt_smc


def test_snd_pair_group():
    w = [[0, 5], [5, 0]]
    inst = validate_instance(2, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    assert brute_force_snd(inst) == 10


def test_snd_unit_triangle():
    w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = validate_instance(3, w, True, WeightClass.GENERAL_METRIC, [[0, 1, 2]])
    # subsets of the 3 doubled edges: the triangle itself is cheapest
    assert brute_force_snd(inst) == 3


def test_steiner_forest_basics():
    w = [[0, 5], [5, 0]]
    inst = validate_instance(2, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    cost, edges = brute_force_steiner_forest(inst)
    assert cost == 5
    assert edges == {(0, 1)}

    # single group spanning everything reduces to the minimum spanning tree
    inst2 = generate_instance("euclidean", 6, [6], seed=9)
    cost2, edges2 = brute_force_steiner_forest(inst2)
    assert len(edges2) == 5
    from smcycle.oracle import _mst_cost
    assert cost2 == _mst_cost(inst2, tuple(range(6)))[0]


def test_bound_chain_sf_snd_smc():
    rng = Random(19)
    for trial in range(40):
        n = rng.choice((4, 5, 6, 7))
        sizes = {4: [2, 2], 5: [2, 3], 6: [3, 3], 7: [3, 4]}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        opt_sf, _ = brute_force_steiner_forest(inst)
        opt_snd = brute_force_snd(inst)
        opt_smc, _ = brute_force_smc(inst)
        assert opt_sf <= opt_snd <= opt_smc <= 2 * opt_sf


def test_approx_steiner_forest_feasible_and_bounded():
    rng = Random(21)
    for trial in range(30):
        n = rng.choice((4, 5, 6, 7, 8))
        sizes = {4: [2, 2], 5: [2, 3], 6: [2, 2, 2], 7: [3, 4], 8: [4, 4]}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        forest = approx_steiner_forest(inst)
        opt_sf, _ = brute_force_steiner_forest(inst)
        cost = sum(inst.w(u, v) for u, v in forest)
        assert cost <= 2 * opt_sf


def test_probe_empty():
    report = matching_vs_opt_probe(seed=1, trials=0)
    assert report.rows == ()
    assert report.counterexamples == ()


def test_probe_runs_and_is_deterministic():
    from fractions import Fraction
    a = matching_vs_opt_probe(seed=42, trials=5)
    b = matching_vs_opt_probe(seed=42, trials=5)
    assert a == b
    assert len(a.rows) == 5
    for row in a.rows:
        assert row.opt_smc > 0
        assert row.ratio_exact == Fraction(row.w_matching_exact_forest, row.opt_smc)

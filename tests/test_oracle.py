from __future__ import annotations

from random import Random

import pytest

from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          validate_instance, validate_solution)
from smcycle.errors import BudgetExceededError
from smcycle.oracle import (OracleBudget, approx_steiner_forest,
                            brute_force_2factor, brute_force_smc,
                            brute_force_smc_permutation, brute_force_snd,
                            brute_force_steiner_forest, matching_vs_opt_probe)


def test_smc_pair_instance():
    w = [[0, 3], [3, 0]]
    inst = validate_instance(2, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    cost, cover = brute_force_smc(inst)
    assert cost == 6
    assert cover.cycles == ((0, 1),)
    assert cover.pair_flags == (True,)


def test_smc_oracles_agree():
    rng = Random(3)
    for trial in range(50):
        n = rng.choice((4, 5, 6, 7))
        sizes = {4: [2, 2], 5: [2, 3], 6: rng.choice([[2, 2, 2], [3, 3], [6]]),
                 7: rng.choice([[3, 4], [2, 5], [7]])}[n]
        kind = rng.choice(("euclidean", "one-two", "asymmetric"))
        if kind == "asymmetric" and n > 7:
            continue
        inst = generate_instance(kind, n, sizes, seed=rng.randrange(10 ** 6))
        cost, cover = brute_force_smc(inst)
        assert validate_solution(inst, cover).feasible
        assert cover_cost(inst, cover) == cost
        assert cost == brute_force_smc_permutation(inst)


def test_smc_budget():
    inst = generate_instance("one-two", 9, [3, 6], seed=0)
    with pytest.raises(BudgetExceededError):
        brute_force_smc(inst, OracleBudget(smc_max_n=8))


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

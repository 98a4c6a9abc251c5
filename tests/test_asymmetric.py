from __future__ import annotations

from random import Random

import pytest

from smcycle.asymmetric import (StronglyEulerianDigraph,
                                approx_asymmetric, directed_shortcut, eta,
                                iteration_bound, representatives)
from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          make_cover, validate_instance, validate_solution)
from smcycle.errors import SmcError
from smcycle.oracle import brute_force_smc


def test_eta_counts_offending_cycles():
    inst = generate_instance("asymmetric", 6, [3, 3], seed=1)
    g0, g1 = inst.groups
    feasible = make_cover([list(g0), list(g1)], directed=True)
    assert eta(inst, feasible) == 0
    mixed = make_cover([[g0[0], g0[1], g1[0]], [g0[2], g1[1], g1[2]]],
                       directed=True)
    assert eta(inst, mixed) == 2


def test_representatives_two_cycles_sharing_one_group():
    inst = generate_instance("asymmetric", 6, [3, 3], seed=3)
    g0, g1 = inst.groups
    cover = make_cover([[g0[0], g0[1], g1[0]], [g0[2], g1[1], g1[2]]],
                       directed=True)
    reps = representatives(inst, cover)
    assert len(reps.vertices) == 2
    assert len(reps.lonely_cycles) == 2
    for g in inst.groups:
        assert len(reps.vertices.intersection(g)) != 1


def test_representatives_invariants_random():
    rng = Random(7)
    checked = 0
    for trial in range(300):
        n = rng.choice((5, 6, 7, 8))
        k = rng.choice((2, 3)) if n >= 6 else 2
        sizes = []
        left = n
        for i in range(k - 1):
            s = rng.randint(2, left - 2 * (k - 1 - i))
            sizes.append(s)
            left -= s
        sizes.append(left)
        if any(s < 2 for s in sizes):
            continue
        inst = generate_instance("asymmetric", n, sizes, seed=rng.randrange(10 ** 6))
        # random directed 2-factor: a fixed-point-free permutation
        perm = list(range(n))
        while any(perm[i] == i for i in range(n)):
            rng.shuffle(perm)
        seen = set()
        cycles = []
        for s in range(n):
            if s in seen:
                continue
            cyc = [s]
            seen.add(s)
            cur = perm[s]
            while cur != s:
                cyc.append(cur)
                seen.add(cur)
                cur = perm[cur]
            cycles.append(cyc)
        cover = make_cover(cycles, directed=True)
        if eta(inst, cover) == 0:
            continue
        checked += 1
        reps = representatives(inst, cover)  # invariants asserted inside
        assert 2 * len(reps.lonely_cycles) >= eta(inst, cover)
    assert checked >= 150


def test_strongly_eulerian_check_rejects_unbalanced():
    bad = StronglyEulerianDigraph(n=3, arcs=((0, 1), (1, 2)))
    with pytest.raises(SmcError):
        bad.check()


def test_directed_shortcut_identity_on_2factor():
    inst = generate_instance("asymmetric", 5, [2, 3], seed=9)
    arcs = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3))
    d = StronglyEulerianDigraph(n=5, arcs=arcs)
    cover = directed_shortcut(d, inst)
    assert sorted(len(c) for c in cover.cycles) == [2, 3]
    total = sum(inst.w(u, v) for u, v in arcs)
    assert cover_cost(inst, cover) == total


def test_directed_shortcut_two_triangles_sharing_vertex():
    inst = generate_instance("asymmetric", 5, [5], seed=11)
    arcs = ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))
    d = StronglyEulerianDigraph(n=5, arcs=arcs)
    cover = directed_shortcut(d, inst)
    assert len(cover.cycles) == 1
    assert len(cover.cycles[0]) == 5
    assert cover_cost(inst, cover) <= sum(inst.w(u, v) for u, v in arcs)


def test_iteration_bound_values():
    assert iteration_bound(2) == 4  # ceil(log_{4/3} 2) = 3
    assert iteration_bound(8) == 9
    assert iteration_bound(16) == 11


def test_approx_asymmetric_pair():
    w = [[0, 4], [6, 0]]
    inst = validate_instance(2, w, False, WeightClass.ASYMMETRIC_METRIC, [[0, 1]])
    cover, stages = approx_asymmetric(inst)
    assert cover.cycles == ((0, 1),)
    assert cover_cost(inst, cover) == 10
    assert stages.iterations == 0


def test_approx_asymmetric_random():
    rng = Random(13)
    for trial in range(40):
        n = rng.choice((4, 5, 6, 7, 8))
        sizes = {4: [2, 2], 5: [2, 3], 6: rng.choice([[2, 2, 2], [3, 3], [6]]),
                 7: rng.choice([[3, 4], [2, 5]]), 8: rng.choice([[4, 4], [2, 6]])}[n]
        inst = generate_instance("asymmetric", n, sizes, seed=rng.randrange(10 ** 6))
        cover, stages = approx_asymmetric(inst)
        assert validate_solution(inst, cover).feasible
        opt, opt_cover = brute_force_smc(inst)
        # each inner representative 2-factor weighs at most the optimum
        for w_inner in stages.inner_weights:
            assert w_inner <= opt
        assert stages.iterations <= stages.bound
        # eta shrink by at least a quarter per round
        for before, after in zip(stages.etas, stages.etas[1:]):
            assert 4 * after <= 3 * before
        assert cover_cost(inst, cover) <= max(1, stages.iterations + 1) * opt
        # restriction of the optimal cover to each representative set is a
        # valid directed 2-factor of the induced sub-digraph
        for reps in stages.representative_sets:
            sub = make_cover([[v for v in c if v in reps]
                              for c in opt_cover.cycles
                              if any(v in reps for v in c)], directed=True)
            assert all(len(c) >= 2 for c in sub.cycles)
            assert set(v for c in sub.cycles for v in c) == set(reps)
            sub_cost = cover_cost(inst, sub)
            assert sub_cost <= opt


def test_symmetric_weights_fed_as_asymmetric():
    base = generate_instance("euclidean", 6, [3, 3], seed=21)
    inst = validate_instance(6, base.weights, False,
                             WeightClass.ASYMMETRIC_METRIC, base.groups)
    cover, _ = approx_asymmetric(inst)
    assert validate_solution(inst, cover).feasible
    opt_sym, _ = brute_force_smc(base)
    assert cover_cost(inst, cover) >= opt_sym  # undirected optimum is a lower bound

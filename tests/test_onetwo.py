from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from smcycle.core import (WeightClass, count_weight2_edges, cover_cost,
                          generate_instance, make_cover, validate_instance,
                          validate_solution)
from smcycle.errors import SmcError, ValidationError
from smcycle.onetwo import (SpecialTwoFactor, _first_2edge,
                            _property2_violation, _respects, _WCycle,
                            _witness, approx_onetwo, build_B,
                            build_D_and_Dprime, maximum_b_matching,
                            special_2factor)
from smcycle.oracle import brute_force_smc
from smcycle.twofactor import min_weight_2factor

from reference import brute_force_2factor


def one_two_from_ones(n, ones, groups):
    """{1,2} instance whose weight-1 edges are exactly ``ones``."""
    key = {frozenset(e) for e in ones}
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = 1 if frozenset((i, j)) in key else 2
    return validate_instance(n, w, True, WeightClass.ONE_TWO, groups)


def tightness_instance():
    """Nine vertices: a weight-1 Hamiltonian cycle 0..8 plus the chords
    {0,2},{3,5},{6,8}, which close three weight-1 triangles; groups are the
    three middle vertices and the six outer ones."""
    ones = [(i, (i + 1) % 9) for i in range(9)] + [(0, 2), (3, 5), (6, 8)]
    return one_two_from_ones(9, ones, [[1, 4, 7], [0, 2, 3, 5, 6, 8]])


def test_special_2factor_all_ones():
    inst = generate_instance("one-two", 6, [3, 3], seed=0)
    w = [[0 if i == j else 1 for j in range(6)] for i in range(6)]
    inst = validate_instance(6, w, True, WeightClass.ONE_TWO, [[0, 1, 2], [3, 4, 5]])
    f = special_2factor(inst, min_weight_2factor(inst))
    assert all(f.pure)
    assert cover_cost(inst, f.cover) == 6


def test_special_2factor_merges_two_nonpure_triangles():
    # 1-edges: two disjoint paths 0-1-2 and 3-4-5; a minimum 2-factor needs
    # two nonpure triangles (or equivalent), which must merge into one cycle
    ones = [(0, 1), (1, 2), (3, 4), (4, 5)]
    inst = one_two_from_ones(6, ones, [[0, 1, 2], [3, 4, 5]])
    f = special_2factor(inst, min_weight_2factor(inst))
    nonpure = [i for i, p in enumerate(f.pure) if not p]
    assert len(nonpure) <= 1
    assert cover_cost(inst, f.cover) == 8  # 4 ones + 2 twos


def test_special_2factor_weight_is_minimum():
    rng = Random(2)
    for trial in range(60):
        n = rng.choice((5, 6, 7, 8, 9))
        sizes = [n] if n % 2 else [2, n - 2]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        f = special_2factor(inst, min_weight_2factor(inst))
        # properties are asserted inside; re-check purity bookkeeping here
        assert sum(1 for p in f.pure if not p) <= 1
        assert cover_cost(inst, f.cover) == brute_force_2factor(inst)


def test_build_b_definition():
    inst = tightness_instance()
    base = make_cover([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    f = special_2factor(inst, base)
    assert all(f.pure)
    edges = set(build_B(inst, f))
    assert edges == {(3, 0), (8, 0), (2, 1), (6, 1), (5, 2), (0, 2)}
    # re-derive each edge from the definition
    for v, ci in edges:
        cyc = f.cover.cycles[ci]
        assert v not in cyc
        assert any(inst.w(u, v) == 1 for u in cyc)


def test_b_skips_respecting_cycles():
    # single group in one pure cycle: nothing to attach
    w = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    inst = validate_instance(5, w, True, WeightClass.ONE_TWO, [[0, 1, 2, 3, 4]])
    f = special_2factor(inst, min_weight_2factor(inst))
    assert build_B(inst, f) == []


def test_maximum_b_matching_against_subset_enumeration():
    # random bipartite B (vertex, cycle) with at most 12 edges; cycle and
    # vertex labels overlap, as build_B's do
    rng = Random(12)
    for trial in range(300):
        cells = [(v, ci) for v in range(rng.randint(1, 6))
                 for ci in range(rng.randint(1, 5))]
        b_edges = sorted(rng.sample(cells, rng.randint(0, min(12, len(cells)))))
        matching = maximum_b_matching(b_edges)
        assert matching == sorted(matching)
        assert {(v, ci) for ci, v in matching} <= set(b_edges)
        assert len({ci for ci, _ in matching}) == len(matching)
        assert len({v for _, v in matching}) == len(matching)
        best = max(k for k in range(len(b_edges) + 1)
                   for sub in combinations(b_edges, k)
                   if len({v for v, _ in sub}) == len({ci for _, ci in sub}) == k)
        assert len(matching) == best


def test_digraph_shapes_on_tightness_instance():
    inst = tightness_instance()
    base = make_cover([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    f = special_2factor(inst, base)
    matching = maximum_b_matching(build_B(inst, f))
    assert len(matching) == 3
    dig = build_D_and_Dprime(inst, f, matching)
    # all three cycles matched: D is a functional digraph over 3 nodes
    assert len(dig.arcs) == 3
    comps = dig.dprime_components()
    assert sorted(len(c) for c in comps) == [3]


def test_approx_onetwo_single_triangle_group():
    w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = validate_instance(3, w, True, WeightClass.ONE_TWO, [[0, 1, 2]])
    cover, stages = approx_onetwo(inst)
    assert cover_cost(inst, cover) == 3


def test_tightness_oracle_is_nine():
    inst = tightness_instance()
    opt, _ = brute_force_smc(inst)
    assert opt == 9
    # the all-ones Hamiltonian cycle is itself an optimal feasible cover
    ham = make_cover([list(range(9))])
    assert validate_solution(inst, ham).feasible
    assert cover_cost(inst, ham) == 9
    # and so are the three weight-1 triangles, as a plain 2-factor
    tri = make_cover([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert cover_cost(inst, tri) == 9


def test_tightness_adversarial_reaches_eleven():
    inst = tightness_instance()
    cover, stages = approx_onetwo(inst, tie_break="adversarial")
    assert validate_solution(inst, cover).feasible
    assert cover_cost(inst, cover) == 11
    opt, _ = brute_force_smc(inst)
    assert Fraction(cover_cost(inst, cover), opt) == Fraction(11, 9)
    # the worst run still respects the audited budgets
    assert stages.phase1_delta <= 2
    assert stages.phase2_delta <= stages.c_p


def test_tightness_default_stays_within_ratio():
    inst = tightness_instance()
    cover, _ = approx_onetwo(inst)
    assert validate_solution(inst, cover).feasible
    assert Fraction(cover_cost(inst, cover), 9) <= Fraction(11, 9)


def test_random_onetwo_within_ratio():
    rng = Random(31)
    for trial in range(60):
        n = rng.choice((5, 6, 7, 8, 9, 10))
        sizes = {5: [2, 3], 6: rng.choice([[2, 2, 2], [3, 3], [6]]),
                 7: rng.choice([[3, 4], [2, 5]]), 8: rng.choice([[4, 4], [2, 6]]),
                 9: rng.choice([[3, 6], [9], [2, 3, 4]]),
                 10: rng.choice([[4, 6], [2, 2, 6]])}[n]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        cover, stages = approx_onetwo(inst)
        assert validate_solution(inst, cover).feasible
        if n <= 10:
            opt, _ = brute_force_smc(inst)
            assert 9 * cover_cost(inst, cover) <= 11 * opt
            # the isolated pure unmatched cycles are bounded by the number
            # of weight-2 edges in any optimum (which is opt - n here)
            assert stages.c_p <= opt - inst.n
        # inequality chain from the audit record
        cost = cover_cost(inst, cover)
        assert cost <= (stages.factor.weight + stages.phase1_delta
                        + stages.phase2_delta)
        assert stages.phase2_delta <= stages.c_p


def test_seven_six_variant_requires_big_groups():
    inst = generate_instance("one-two", 8, [2, 6], seed=5)
    with pytest.raises(ValidationError):
        approx_onetwo(inst, variant="ratio-7-6")


def test_seven_six_adversarial_still_within_ratio():
    rng = Random(47)
    for trial in range(8):
        inst = generate_instance("one-two", 8, [4, 4], seed=rng.randrange(10 ** 6))
        cover, _ = approx_onetwo(inst, variant="ratio-7-6",
                                 tie_break="adversarial")
        assert validate_solution(inst, cover).feasible
        opt, _ = brute_force_smc(inst)
        assert 6 * cover_cost(inst, cover) <= 7 * opt


def test_seven_six_variant_within_ratio():
    rng = Random(41)
    for trial in range(25):
        n, sizes = rng.choice(((8, [4, 4]), (8, [8]), (9, [4, 5]), (9, [9])))
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        cover, stages = approx_onetwo(inst, variant="ratio-7-6")
        assert validate_solution(inst, cover).feasible
        # factor must be triangle-free apart from flagged pairs
        for cyc, flag in zip(stages.factor.cover.cycles, stages.factor.cover.pair_flags):
            assert flag or len(cyc) >= 4
        opt, _ = brute_force_smc(inst)
        assert 6 * cover_cost(inst, cover) <= 7 * opt


def test_e2_decomposition_matches_core_helper():
    inst = tightness_instance()
    base = make_cover([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    f = special_2factor(inst, base)
    assert count_weight2_edges(inst, f.cover) == 0
    assert cover_cost(inst, f.cover) == 9


def test_approx_onetwo_at_n80():
    # a sparse weight-1 graph leaves the 2-matching with many paths, and the
    # pair groups allow pair 2-cycles
    rng = Random(80)
    n = 80
    ones = [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.04]
    order = list(range(n))
    rng.shuffle(order)
    sizes = [2, 3, 4, 5, 6] * 4
    groups = []
    for size in sizes:
        groups.append(order[:size])
        order = order[size:]
    inst = one_two_from_ones(n, ones, groups)
    cover, stages = approx_onetwo(inst)
    assert validate_solution(inst, cover).feasible
    base = stages.factor.cover
    assert stages.factor.weight == cover_cost(inst, base) == n + count_weight2_edges(
        inst, base)
    assert stages.factor.weight <= cover_cost(inst, cover)


# Pairwise-weight versions of the helpers that read Instance.one_masks: the
# reference the mask versions must equal.

def pairwise_is_pure(inst, c):
    return all(inst.w(a, b) == 1 for a, b in c.positional_edges())


def pairwise_has_2edge(inst, c):
    if c.virtual2:
        return True
    return any(inst.w(a, b) == 2 for a, b in c.positional_edges())


def pairwise_first_2edge(inst, c):
    for a, b in c.positional_edges():
        if inst.w(a, b) == 2:
            return a, b
    raise SmcError("nonpure cycle without a 2-edge")


def pairwise_property2_violation(inst, nonpure, pure_cycles):
    members = {}
    for ci, c in enumerate(pure_cycles):
        for v in c.verts:
            members[v] = ci
    for a, b in nonpure.positional_edges():
        if inst.w(a, b) != 2:
            continue
        for x, y in ((a, b), (b, a)):
            for z in sorted(members):
                if inst.w(y, z) == 1:
                    return x, y, z, members[z]
    return None


def pairwise_build_B(inst, factor):
    edges = []
    for ci, cyc in enumerate(factor.cover.cycles):
        if not factor.pure[ci] or _respects(inst, cyc):
            continue
        inside = set(cyc)
        for v in range(inst.n):
            if v in inside:
                continue
            if any(inst.w(u, v) == 1 for u in cyc):
                edges.append((v, ci))
    return edges


def pairwise_witness(inst, verts, v):
    cands = [u for u in verts if inst.w(u, v) == 1]
    if not cands:
        raise SmcError("matched pair lost its 1-edge witness")
    return min(cands)


def outcome(f, *args):
    try:
        return f(*args)
    except SmcError as exc:
        return str(exc)


def test_mask_helpers_match_pairwise_weights():
    # on minimum 2-factors, their special forms and random cycle covers of
    # {1,2} instances, pair groups included, every helper that reads the
    # weight-1 masks answers as its pairwise-weight version
    rng = Random(19)
    checked = hits = 0
    for trial in range(150):
        n = rng.randint(4, 16)
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.choice((2, 2, 3, 4, 5)), n - sum(sizes)))
        if sizes[-1] == 1:
            sizes[-2:] = [sizes[-2] + 1]
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(10 ** 6))
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(2, n - 1), rng.randint(0, (n - 4) // 2))
                      if n >= 6 else [])
        random_cover = [order[a:b] for a, b in
                        zip([0, *cuts], [*cuts, n]) if b - a >= 2]
        base = min_weight_2factor(inst)
        factor = special_2factor(inst, base)
        covers = [base.cycles, factor.cover.cycles, random_cover]
        for cycles in covers:
            work = [_WCycle(c) for c in cycles]
            for i, c in enumerate(work):
                others = work[:i] + work[i + 1:]
                assert c.is_pure(inst) == pairwise_is_pure(inst, c)
                assert c.has_2edge(inst) == pairwise_has_2edge(inst, c)
                assert (outcome(_first_2edge, inst, c)
                        == outcome(pairwise_first_2edge, inst, c))
                hit = pairwise_property2_violation(inst, c, others)
                assert _property2_violation(inst, c, others) == hit
                hits += hit is not None
                for v in range(n):
                    assert (outcome(_witness, inst, c.verts, v)
                            == outcome(pairwise_witness, inst, c.verts, v))
                checked += 1
            cover = make_cover(cycles)
            pure = tuple(pairwise_is_pure(inst, c) for c in work)
            factor_like = SpecialTwoFactor(cover=cover, pure=pure, weight=0)
            assert build_B(inst, factor_like) == pairwise_build_B(inst,
                                                                  factor_like)
        assert factor.weight == cover_cost(inst, factor.cover)
        assert factor.weight == cover_cost(inst, base)
    assert checked > 600 and hits > 100, (checked, hits)

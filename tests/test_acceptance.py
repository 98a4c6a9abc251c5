"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).  Everything is exact arithmetic:
ratio checks compare Fractions, never floats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from smcycle.asymmetric import approx_asymmetric, eta, representatives
from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          make_cover, validate_instance, validate_solution)
from smcycle.matching import min_weight_perfect_matching
from smcycle.metric import approx_metric, doubled_subgraph_baseline, min_t_join
from smcycle.onetwo import approx_onetwo, special_2factor
from smcycle.oracle import (brute_force_smc, brute_force_steiner_forest,
                            approx_steiner_forest, matching_vs_opt_probe)
from smcycle.snd import EdgeSubgraph, jain_round, prune_bridges
from smcycle.twofactor import (min_weight_2factor, min_weight_directed_2factor,
                               min_weight_triangle_free_2factor)

from reference import brute_force_2factor, brute_force_snd


def _random_sizes(rng: Random, n: int) -> list[int]:
    sizes = []
    left = n
    while left:
        if left in (2, 3):
            take = left
        elif left == 4:
            take = rng.choice((2, 4))
        else:
            take = rng.randint(2, min(6, left))
            if left - take == 1:
                take += 1
        sizes.append(take)
        left -= take
    return sizes


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def tightness_instance():
    ones = {(i, (i + 1) % 9) for i in range(9)} | {(0, 2), (3, 5), (6, 8)}
    key = {frozenset(e) for e in ones}
    w = [[0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(i + 1, 9):
            w[i][j] = w[j][i] = 1 if frozenset((i, j)) in key else 2
    return validate_instance(9, w, True, WeightClass.ONE_TWO,
                             [[1, 4, 7], [0, 2, 3, 5, 6, 8]])


def test_criterion_1_feasibility_suite():
    """1000 instances per class; every algorithm output is feasible."""
    rng = Random(10_001)
    for trial in range(1000):
        n = rng.randint(4, 12)
        inst = generate_instance("euclidean", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        cover, stages = approx_metric(inst)
        assert validate_solution(inst, cover).feasible
        baseline = doubled_subgraph_baseline(inst, pruned=stages.pruned)
        assert validate_solution(inst, baseline).feasible

    rng = Random(10_002)
    for trial in range(1000):
        n = rng.randint(4, 12)
        sizes = _random_sizes(rng, n)
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(1 << 30))
        cover, _ = approx_onetwo(inst)
        assert validate_solution(inst, cover).feasible
        if all(s >= 4 for s in sizes):
            cover76, _ = approx_onetwo(inst, variant="ratio-7-6")
            assert validate_solution(inst, cover76).feasible

    rng = Random(10_003)
    for trial in range(1000):
        n = rng.randint(4, 8)
        inst = generate_instance("asymmetric", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        cover, _ = approx_asymmetric(inst)
        assert validate_solution(inst, cover).feasible
    _report("1 feasibility-suite")


def test_criterion_2_metric_ratio(matching_weight):
    """300 euclidean instances with oracle: ratio <= 3, exact comparisons."""
    rng = Random(20_001)
    for trial in range(300):
        n = rng.randint(4, 8)
        inst = generate_instance("euclidean", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        cover, stages = approx_metric(inst)
        opt, _ = brute_force_smc(inst)
        cost = cover_cost(inst, cover)
        assert cost <= 3 * opt
        # half bound on the pruned subgraph, exact
        assert 2 * Fraction(stages.join_weight) <= Fraction(stages.pruned.weight(inst))
        # matching on T in the complete graph never beats the T-join
        odd = stages.odd_vertices
        if odd:
            edges = [(a, b, inst.w(a, b)) for a, b in
                     itertools.combinations(odd, 2)]
            mate = min_weight_perfect_matching(edges, vertices=odd)
            assert matching_weight(edges, mate) <= stages.join_weight
    _report("2 metric-ratio")


def test_criterion_3_onetwo_ratio():
    """300 one-two instances, ratio <= 11/9; 300 big-group ones <= 7/6."""
    rng = Random(30_001)
    for trial in range(300):
        n = rng.randint(4, 10)
        inst = generate_instance("one-two", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        cover, _ = approx_onetwo(inst)
        opt, _ = brute_force_smc(inst)
        assert 9 * cover_cost(inst, cover) <= 11 * opt

    rng = Random(30_002)
    for trial in range(300):
        n, sizes = rng.choice(((8, [8]), (8, [4, 4]), (12, [4, 4, 4]),
                               (12, [4, 8]), (12, [6, 6]), (12, [12]),
                               (12, [5, 7])))
        inst = generate_instance("one-two", n, sizes, seed=rng.randrange(1 << 30))
        cover, _ = approx_onetwo(inst, variant="ratio-7-6")
        opt, _ = brute_force_smc(inst)
        assert 6 * cover_cost(inst, cover) <= 7 * opt
    _report("3 onetwo-ratio")


def test_criterion_4_tightness_fixture():
    """The nine-vertex tight example: oracle 9, adversarial run exactly 11."""
    inst = tightness_instance()
    opt, _ = brute_force_smc(inst)
    assert opt == 9
    cover, _ = approx_onetwo(inst, tie_break="adversarial")
    assert validate_solution(inst, cover).feasible
    cost = cover_cost(inst, cover)
    assert cost == 11
    assert Fraction(cost, opt) == Fraction(11, 9)
    _report("4 tightness-fixture")


def test_criterion_5_asymmetric():
    """200 asymmetric instances with oracle: inner weights, eta shrink,
    iteration bound, and the iteration-count cost bound."""
    rng = Random(50_001)
    for trial in range(200):
        n = rng.randint(4, 8)
        inst = generate_instance("asymmetric", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        cover, stages = approx_asymmetric(inst)
        opt, _ = brute_force_smc(inst)
        for w_inner in stages.inner_weights:
            assert w_inner <= opt
        for before, after in zip(stages.etas, stages.etas[1:]):
            assert 4 * after <= 3 * before
        assert stages.iterations <= stages.bound
        # one 2-factor per loop iteration plus the initial one
        assert cover_cost(inst, cover) <= (stages.iterations + 1) * opt
    _report("5 asymmetric")


def test_criterion_6_subroutine_oracles(matching_weight):
    """Matching, 2-factor variants, T-join, SND and Steiner forest each
    agree with brute force on >= 200 instances; the bound chain holds."""
    # minimum-weight perfect matching vs pairing enumeration
    rng = Random(60_001)
    for trial in range(200):
        n = rng.choice((6, 8))
        edges = [(u, v, rng.randrange(1, 40))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.75]
        expected = _brute_matching(range(n), edges)
        if expected is None:
            continue
        mate = min_weight_perfect_matching(edges, vertices=range(n))
        assert matching_weight(edges, mate) == expected

    # 2-factors: undirected, pair-aware, triangle-free, directed
    rng = Random(60_002)
    for trial in range(200):
        n = rng.choice((5, 6, 7, 8))
        sizes = [2, n - 2] if n >= 5 else [n]
        paired = generate_instance("one-two", n, sizes, seed=rng.randrange(1 << 30))
        # the same matrix with one group: no pair 2-cycle is legal
        single = validate_instance(n, paired.weights, True, WeightClass.ONE_TWO,
                                   [list(range(n))])
        for inst in (single, paired):
            got = cover_cost(inst, min_weight_2factor(inst))
            assert got == brute_force_2factor(inst)
        if n >= 5:
            got = cover_cost(single, min_weight_triangle_free_2factor(single))
            assert got == brute_force_2factor(single, triangle_free=True)
    rng = Random(60_003)
    for trial in range(200):
        n = rng.choice((4, 5, 6, 7))
        inst = generate_instance("asymmetric", n, [n] if n != 4 else [2, 2],
                                 seed=rng.randrange(1 << 30))
        got = cover_cost(inst, min_weight_directed_2factor(inst))
        assert got == brute_force_2factor(inst)

    # T-joins vs subset enumeration
    rng = Random(60_004)
    checked = 0
    while checked < 200:
        n = rng.choice((5, 6))
        inst = generate_instance("euclidean", n, [n], seed=rng.randrange(1 << 30))
        edges = [(u, v, 0) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        if not 3 <= len(edges) <= 12:
            continue
        g = EdgeSubgraph(n=n, edges=tuple(edges))
        comps = g.components()
        targets = []
        for comp in comps:
            take = [v for v in sorted(comp) if rng.random() < 0.5]
            if len(take) % 2:
                take.pop()
            targets.extend(take)
        expected = _brute_t_join(inst, g, targets)
        if expected is None:
            continue
        got = min_t_join(g, inst, targets).weight(inst)
        assert got == expected
        checked += 1

    # SND + Steiner forest + the bound chain, all on the same instances
    rng = Random(60_005)
    for trial in range(200):
        n = rng.randint(4, 7)
        inst = generate_instance("euclidean", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        opt_sf, _ = brute_force_steiner_forest(inst)
        opt_snd = brute_force_snd(inst)
        opt_smc, _ = brute_force_smc(inst)
        assert opt_sf <= opt_snd <= opt_smc <= 2 * opt_sf
        jained, _rounds = jain_round(inst)
        assert jained.weight(inst) <= 2 * opt_snd
        forest = approx_steiner_forest(inst)
        assert sum(inst.w(u, v) for u, v in forest) <= 2 * opt_sf
    _report("6 subroutine-oracles")


def test_criterion_7_structural_invariants():
    """Structural properties beyond the in-pipeline assertions."""
    # special 2-factor properties re-derived by direct scan
    rng = Random(70_001)
    for trial in range(100):
        n = rng.randint(5, 9)
        inst = generate_instance("one-two", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        f = special_2factor(inst, min_weight_2factor(inst))
        nonpure = [i for i, p in enumerate(f.pure) if not p]
        assert len(nonpure) <= 1
        for ci, cyc in enumerate(f.cover.cycles):
            edges = [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
            assert f.pure[ci] == all(inst.w(a, b) == 1 for a, b in edges)
        if nonpure:
            npc = f.cover.cycles[nonpure[0]]
            L = len(npc)
            ends = {v for k in range(L)
                    for v in (npc[k], npc[(k + 1) % L])
                    if inst.w(npc[k], npc[(k + 1) % L]) == 2}
            pure_vertices = {v for ci, cyc in enumerate(f.cover.cycles)
                             if f.pure[ci] for v in cyc}
            for y in ends:
                for z in pure_vertices:
                    assert inst.w(y, z) != 1

    # representative set invariants on random directed 2-factors
    rng = Random(70_002)
    checked = 0
    while checked < 200:
        n = rng.randint(5, 8)
        inst = generate_instance("asymmetric", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        perm = list(range(n))
        rng.shuffle(perm)
        if any(perm[i] == i for i in range(n)):
            continue
        cycles = _perm_cycles(perm)
        cover = make_cover(cycles, directed=True)
        if eta(inst, cover) == 0:
            continue
        reps = representatives(inst, cover)
        offending = [set(c) for c in cover.cycles
                     if any(0 < len(set(c) & set(g)) < len(g)
                            for g in inst.groups)]
        for cyc in offending:
            assert cyc & reps.vertices
        for g in inst.groups:
            assert len(reps.vertices & set(g)) != 1
        lonely = [cyc for cyc in offending if len(cyc & reps.vertices) == 1]
        assert 2 * len(lonely) >= len(offending)
        checked += 1

    # pruned survivable-network subgraphs contain no bridges
    rng = Random(70_003)
    for trial in range(50):
        n = rng.randint(4, 8)
        inst = generate_instance("euclidean", n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        pruned = prune_bridges(jain_round(inst)[0], inst)
        from smcycle.snd import _bridges
        assert _bridges(pruned) == set()
    _report("7 structural-invariants")


def test_criterion_8_jain_rounding_never_stalls():
    """The 1/2-rounding step never stalls; exercised across a metric set."""
    rng = Random(80_001)
    solved = 0
    for trial in range(150):
        n = rng.randint(4, 10)
        kind = "euclidean" if trial % 2 == 0 else "one-two"
        inst = generate_instance(kind, n, _random_sizes(rng, n),
                                 seed=rng.randrange(1 << 30))
        jain_round(inst)  # raises on a rounding stall
        solved += 1
    assert solved == 150
    _report("8 jain-rounding")


def test_criterion_9_probe():
    """A 1000-trial probe completes; counterexamples would surface loudly."""
    report = matching_vs_opt_probe(seed=90_001, trials=1000)
    assert len(report.rows) == 1000
    for row in report.rows:
        assert row.ratio_exact <= 1
        assert row.ratio_approx <= 1
    assert report.counterexamples == ()
    _report("9 probe")


# helpers ------------------------------------------------------------------


def _brute_matching(vertices, edges):
    wt = {}
    for u, v, w in edges:
        wt[frozenset((u, v))] = w
    vs = sorted(vertices)

    def rec(rem):
        if not rem:
            return 0
        first = rem[0]
        best = None
        for i in range(1, len(rem)):
            key = frozenset((first, rem[i]))
            if key not in wt:
                continue
            rest = rec(rem[1:i] + rem[i + 1:])
            if rest is None:
                continue
            cand = wt[key] + rest
            if best is None or cand < best:
                best = cand
        return best

    return rec(vs)


def _brute_t_join(inst, g: EdgeSubgraph, targets):
    edges = sorted({(u, v) for u, v, _c in g.edges})
    tset = set(targets)
    best = None
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
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


def _perm_cycles(perm):
    seen = set()
    cycles = []
    for s in range(len(perm)):
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
    return cycles

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from smcycle import metric, snd
from smcycle._simplex import GE, LE, ColumnLp, solve_min_lp
from smcycle.core import (WeightClass, cover_cost, generate_instance,
                          validate_instance)
from smcycle.errors import SmcError
from smcycle.metric import approx_metric
from smcycle.snd import (EdgeSubgraph, FractionalEdgeVector, Round,
                         _assert_feasible, _scan_cuts, edge_slots, jain_round,
                         prune_bridges, solve_cut_lp)

from reference import brute_force_snd


def unit_metric(n, groups):
    w = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return validate_instance(n, w, True, WeightClass.GENERAL_METRIC, groups)


def two_far_triangles():
    # vertices 0-2 and 3-5 form unit triangles, 10 apart
    w = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                w[i][j] = 1 if (i < 3) == (j < 3) else 10
    return validate_instance(6, w, True, WeightClass.GENERAL_METRIC,
                             [[0, 1, 2], [3, 4, 5]])


def group_masks(groups):
    """(vertex mask, size) of each group, as ``_scan_cuts`` takes them."""
    return [(sum(1 << v for v in g), len(g)) for g in groups]


def values(x):
    return [Fraction(v, x.scale) for v in x.numerators]


def lp_value(inst, x):
    return sum(inst.w(u, v) * val for (u, v, _c), val in zip(x.slots, values(x)))


def test_pair_group_lp_uses_both_copies():
    inst = validate_instance(2, [[0, 5], [5, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])
    x = solve_cut_lp(inst)
    assert list(zip(x.slots, values(x))) == [((0, 1, 0), 1), ((0, 1, 1), 1)]
    assert lp_value(inst, x) == 10


def test_triangle_lp_is_integral():
    inst = unit_metric(3, [[0, 1, 2]])
    x = solve_cut_lp(inst)
    assert all(v == 1 for v in values(x))


def test_two_far_triangles_lp_value():
    inst = two_far_triangles()
    x = solve_cut_lp(inst)
    assert lp_value(inst, x) == 6
    assert brute_force_snd(inst) == 6


def test_jain_pair_group():
    inst = validate_instance(2, [[0, 5], [5, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])
    g, _rounds = jain_round(inst)
    assert sorted(g.edges) == [(0, 1, 0), (0, 1, 1)]
    assert g.weight(inst) == 10


def test_jain_unit_triangle_is_optimal():
    inst = unit_metric(3, [[0, 1, 2]])
    g, _rounds = jain_round(inst)
    assert g.weight(inst) == 3 == brute_force_snd(inst)


def test_jain_within_twice_oracle():
    rng = Random(77)
    for trial in range(40):
        n = rng.choice((4, 5, 6, 7))
        sizes = {4: [2, 2], 5: [2, 3], 6: rng.choice([[2, 2, 2], [3, 3], [6]]),
                 7: rng.choice([[3, 4], [2, 5]])}[n]
        kind = rng.choice(("euclidean", "one-two"))
        inst = generate_instance(kind, n, sizes, seed=rng.randrange(10 ** 6))
        g, _rounds = jain_round(inst)
        assert g.weight(inst) <= 2 * brute_force_snd(inst)


def test_prune_bridges_removes_connector():
    inst = two_far_triangles()
    edges = ((0, 1, 0), (0, 2, 0), (1, 2, 0), (2, 3, 0),
             (3, 4, 0), (3, 5, 0), (4, 5, 0))
    g = EdgeSubgraph(n=6, edges=edges)
    pruned = prune_bridges(g, inst)
    assert (2, 3, 0) not in pruned.edges
    assert len(pruned.edges) == 6


def test_prune_bridges_keeps_2ec_components():
    inst = two_far_triangles()
    edges = ((0, 1, 0), (0, 2, 0), (1, 2, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0))
    g = EdgeSubgraph(n=6, edges=edges)
    assert prune_bridges(g, inst).edges == edges


def test_prune_bridges_returns_a_bridgeless_input_itself():
    inst = two_far_triangles()
    unsorted = ((4, 5, 0), (0, 2, 0), (1, 2, 0), (3, 4, 0), (0, 1, 0),
                (3, 5, 0))
    g = EdgeSubgraph(n=6, edges=unsorted)
    assert prune_bridges(g, inst) is g
    # a pruned subgraph is built anew, its edges sorted
    joined = EdgeSubgraph(n=6, edges=unsorted + ((2, 3, 0),))
    assert prune_bridges(joined, inst).edges == tuple(sorted(unsorted))


def test_doubled_pair_edge_is_not_a_bridge():
    inst = validate_instance(2, [[0, 5], [5, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])
    g = EdgeSubgraph(n=2, edges=((0, 1, 0), (0, 1, 1)))
    assert prune_bridges(g, inst).edges == g.edges


def test_jain_outputs_prune_clean():
    rng = Random(5)
    for trial in range(25):
        n = rng.choice((5, 6, 7))
        sizes = {5: [2, 3], 6: [3, 3], 7: [3, 4]}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        g, _rounds = jain_round(inst)
        pruned = prune_bridges(g, inst)
        assert pruned.weight(inst) <= g.weight(inst)
        # feasibility is asserted inside prune_bridges; components 2ec means
        # every vertex still has degree >= 2
        assert all(d >= 2 for d in pruned.degrees())


# one-two instances whose rounding takes 2 rounds; round 1 leaves a vertex
# of fixed degree 1.  Found by taking seeds s = 0, 1, 2, ... in order, with
# rng = Random(s), n = rng.randint(10, 12) and sizes random_sizes(rng, n)
TWO_ROUND_ONE_TWO = [(10, [10], 1847), (12, [9, 3], 2241),
                     (12, [7, 2, 3], 3119), (12, [3, 5, 2, 2], 3484),
                     (12, [6, 3, 3], 4399)]


def test_metric_solve_searches_bridges_once(monkeypatch):
    # jain_round checks its subgraph against its bridges, which the
    # subgraph keeps, so prune_bridges starts from them instead of
    # searching again, and checks feasibility against its last pass.  A
    # round that leaves a vertex of degree below 2 gets no search at all
    searches = []
    bridges = snd._bridges

    def spy(g):
        searches.append(g)
        return bridges(g)

    monkeypatch.setattr(snd, "_bridges", spy)
    rng = Random(7)
    instances = []
    for trial in range(20):
        n = rng.choice((5, 6, 7, 8, 9))
        sizes = {5: [2, 3], 6: [3, 3], 7: [3, 4], 8: [2, 3, 3], 9: [3, 3, 3]}[n]
        instances.append(generate_instance("euclidean", n, sizes,
                                           seed=rng.randrange(10 ** 6)))
    instances += [generate_instance("one-two", n, sizes, seed)
                  for n, sizes, seed in TWO_ROUND_ONE_TWO]
    rounds = []
    for inst in instances:
        searches.clear()
        _cover, stages = approx_metric(inst)
        assert stages.pruned == stages.snd_subgraph
        assert searches == [stages.snd_subgraph]
        rounds.append(len(stages.rounds))
    assert rounds[-5:] == [2] * 5


def test_edge_slots_include_pair_duplicates():
    inst = generate_instance("euclidean", 5, [2, 3], seed=3)
    slots = edge_slots(inst)
    pair = inst.pair_groups()[0]
    assert (pair[0], pair[1], 1) in slots
    assert len(slots) == 10 + 1


def test_lp_values_stay_in_unit_box():
    rng = Random(11)
    for trial in range(20):
        n = rng.choice((4, 5, 6))
        sizes = {4: [2, 2], 5: [2, 3], 6: [2, 2, 2]}[n]
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(10 ** 6))
        x = solve_cut_lp(inst)
        assert all(0 <= v <= 1 for v in values(x))
        assert any(v >= Fraction(1, 2) for v in values(x))


def random_multigraph(rng, n):
    """Random edge slots over n vertices, some pairs doubled, and a random
    partition of the vertices into groups."""
    p = rng.uniform(0.15, 0.8)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, 0))
                if rng.random() < 0.25:
                    edges.append((u, v, 1))
    order = list(range(n))
    rng.shuffle(order)
    groups = []
    while order:
        take = rng.randint(1, len(order))
        groups.append(tuple(sorted(order[:take])))
        order = order[take:]
    return EdgeSubgraph(n=n, edges=tuple(edges)), groups


def test_feasibility_check_matches_cut_scan():
    rng = Random(2024)
    outcomes = {True: 0, False: 0}
    for trial in range(2400):
        g, groups = random_multigraph(rng, rng.randint(2, 9))
        caps = [(u, v, 1) for u, v, _c in g.edges]
        scan_ok = not _scan_cuts(g.n, group_masks(groups), caps, 1)
        try:
            _assert_feasible(g, groups)
            check_ok = True
        except SmcError:
            check_ok = False
        assert check_ok == scan_ok, (g, groups)
        outcomes[check_ok] += 1
    assert min(outcomes.values()) >= 400


def gray_scan(n, group_masks, caps, scale):
    """Reference for ``_scan_cuts``: every cut of the same Gray-code order,
    its capacity summed from scratch over the (u, v, c) triples."""
    out = []
    mask = 0
    for i in range(1, 1 << (n - 1)):
        mask ^= i & -i
        cap = sum(c for u, v, c in caps if (mask >> u ^ mask >> v) & 1)
        splits = any(0 < bin(mask & gmask).count("1") < size
                     for gmask, size in group_masks)
        if splits and cap < 2 * scale:
            out.append((2 * scale - cap, mask))
    return out


def test_scan_cuts_matches_direct_enumeration():
    # the scan returns the violated cuts of the Gray-code walk, most
    # violated first and ties in mask order.  As in ``solve_cut_lp``, the
    # capacities are one triple per slot value and one per fixed edge
    # (counting ``scale``), in either orientation, with zero values and
    # parallel triples
    rng = Random(8)
    cases = []

    def triples(n, g, scale, p_fixed, p_value):
        caps = [(v, u, rng.randint(0, scale)) if rng.random() < 0.5
                else (u, v, rng.randint(0, scale))
                for u in range(n) for v in range(u + 1, n)
                if rng.random() < p_value]
        caps += [(u, v, scale) for u, v, _c in g.edges
                 if rng.random() < p_fixed]
        rng.shuffle(caps)
        return caps

    for trial in range(300):
        n = rng.randint(2, 8)
        scale = rng.choice((1, 2, 6))
        g, groups = random_multigraph(rng, n)
        cases.append((n, group_masks(groups), triples(n, g, scale, 0.3, 1),
                      scale))
    # n up to 12, and a scale of 2^70 for fields wider than 8 bytes
    for trial in range(16):
        n = 9 + trial % 4 if trial < 12 else rng.randint(2, 7)
        scale = 2 ** 70 + trial if trial % 3 == 0 else rng.choice((1, 6))
        g, groups = random_multigraph(rng, n)
        cases.append((n, group_masks(groups), triples(n, g, scale, 0.2, 0.4),
                      scale))
    # groups holding vertex n - 1: a pair with vertex 0, and a singleton,
    # which never splits a cut
    for n in (2, 3, 6, 10):
        rest = tuple(range(1, n - 1))
        for groups in (((0, n - 1), rest), ((n - 1,), (0, *rest))):
            caps = [(u, v, rng.randint(0, 2))
                    for u in range(n) for v in range(u + 1, n)]
            cases.append((n, group_masks(g for g in groups if g), caps, 3))
    # all-zero capacities: every splitting cut is violated by 2 * scale
    for n in (2, 7, 12):
        masks = group_masks(random_multigraph(rng, n)[1])
        splitting = [mask for mask in range(1, 1 << (n - 1))
                     if any(0 < bin(mask & g).count("1") < size
                            for g, size in masks)]
        for caps in ([], [(0, n - 1, 0)]):
            assert _scan_cuts(n, masks, caps, 5) == [(10, mask)
                                                     for mask in splitting]
        cases.append((n, masks, [], 5))
    for n, masks, caps, scale in cases:
        expected = sorted(gray_scan(n, masks, caps, scale),
                          key=lambda t: (-t[0], t[1]))
        assert _scan_cuts(n, masks, caps, scale) == expected
    assert any(n == 12 for n, *_ in cases)
    assert any(scale > 2 ** 64 and gray_scan(n, masks, caps, scale)
               for n, masks, caps, scale in cases)


def test_pinned_metric_cost_sum_above_desk_size():
    # Regression pin above the oracle caps, where only the cut scan sees
    # 2^(n-1) cuts: recorded with the Gray-code walk this scan replaced
    specs = [(10, [3, 3, 4]), (11, [3, 4, 4]), (12, [3, 3, 3, 3]),
             (13, [4, 4, 5]), (14, [3, 3, 4, 4]), (15, [3, 4, 4, 4]),
             (16, [3, 3, 3, 3, 4])]
    costs = {(seed, n): cover_cost(inst, approx_metric(inst)[0])
             for seed in (1, 2) for n, sizes in specs
             for inst in [generate_instance("euclidean", n, sizes, seed)]}
    assert costs[(1, 16)] == 3825
    assert sum(costs.values()) == 33100


def scaled(inst, factor, delta):
    """The same instance with every off-diagonal weight w replaced by
    factor * w + delta (still metric)."""
    w = [[0 if i == j else factor * x + delta for j, x in enumerate(row)]
         for i, row in enumerate(inst.weights)]
    return validate_instance(inst.n, w, True, inst.weight_class, inst.groups)


def test_seeded_cut_lp_is_the_full_cut_lp():
    # the pool starts from the degree cuts, yet the answer is the optimum
    # over every group-splitting cut, each as an explicit row of a cold solve
    rng = Random(43)
    sizes = {2: [[2]], 3: [[3]], 4: [[2, 2], [4]], 5: [[2, 3], [5]],
             6: [[2, 2, 2], [3, 3], [2, 4]], 7: [[3, 4], [2, 2, 3], [2, 5]]}
    checked = paired = 0
    for trial in range(36):
        n = 2 + trial % 6
        inst = generate_instance("euclidean", n, rng.choice(sizes[n]),
                                 rng.randrange(10 ** 6))
        if trial % 3 == 1:
            inst = scaled(inst, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(0, 5), rng.randint(1, 7)))
        slots = edge_slots(inst)
        some = rng.randint(1, min(3, len(slots) - 1))
        for fixed in (set(), set(rng.sample(slots, some))):
            pool = []
            x = solve_cut_lp(inst, fixed, cut_pool=pool)
            sides = [{v for v in range(n) if mask >> v & 1}
                     for mask in pool[:n]]
            if n == 2:
                assert pool == [1]
            else:
                assert [min(side, set(range(n)) - side, key=len)
                        for side in sides] == [{v} for v in range(n)]
            free = [s for s in slots if s not in fixed]
            rows = [([int(k == j) for j in range(len(free))], LE, 1)
                    for k in range(len(free))]
            for mask in range(1, 1 << (n - 1)):
                if not any(0 < bin(mask & g).count("1") < size
                           for g, size in group_masks(inst.groups)):
                    continue
                residual = 2 - sum((mask >> u ^ mask >> v) & 1
                                   for u, v, _c in fixed)
                if residual > 0:
                    rows.append(([(mask >> u ^ mask >> v) & 1
                                  for u, v, _c in free], GE, residual))
            cold = solve_min_lp([inst.w(u, v) for u, v, _c in free], rows)
            assert cold.status == "optimal"
            assert cold.objective == lp_value(inst, x)
            checked += 1
            paired += bool(inst.pair_groups())
    assert checked == 72 and paired >= 20


def test_warm_rounds_match_cold_solves(monkeypatch):
    # every separation round of metric3, re-optimised from the previous
    # basis, reaches the optimum a cold two-phase solve finds for the same
    # rows: each column of the dual is one cut of the primal cut LP, and
    # each row's implicit column its bound x_k <= 1
    rounds = []
    optimise = ColumnLp.optimise

    def spy(lp):
        x, den = optimise(lp)
        rounds.append((list(lp.rhs), list(lp.columns), x, den))
        return x, den

    monkeypatch.setattr(ColumnLp, "optimise", spy)
    rng = Random(31)
    for trial in range(220):
        n = 5 + trial % 5
        sizes = rng.choice({5: [[2, 3], [5]], 6: [[3, 3], [2, 2, 2]],
                            7: [[3, 4], [2, 2, 3]], 8: [[4, 4], [2, 3, 3]],
                            9: [[3, 3, 3], [4, 5]]}[n])
        inst = generate_instance("euclidean", n, sizes, rng.randrange(10 ** 6))
        if trial % 2:
            inst = scaled(inst, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(0, 5), rng.randint(1, 7)))
        approx_metric(inst)
    assert len(rounds) > 300
    for cost, columns, x, den in rounds:
        rows = [([int(j == k) for j in range(len(cost))], LE, 1)
                for k in range(len(cost))]
        for ks, column_cost in columns:
            coeffs = [0] * len(cost)
            for k in ks:
                coeffs[k] += 1
            rows.append((coeffs, GE, -column_cost))
        cold = solve_min_lp(cost, rows)
        assert cold.status == "optimal"
        assert cold.objective == Fraction(sum(c * v for c, v in zip(cost, x)), den)


def test_one_optimise_per_separation_round(monkeypatch):
    # every x_e <= 1 is an implicit column from the first solve, so no
    # re-optimisation only adds a bound: each optimum is scanned once
    calls = []
    optimise = ColumnLp.optimise
    scan = snd._scan_cuts
    monkeypatch.setattr(ColumnLp, "optimise",
                        lambda lp: calls.append("optimise") or optimise(lp))
    monkeypatch.setattr(snd, "_scan_cuts",
                        lambda *a: calls.append("scan") or scan(*a))
    rng = Random(37)
    solves = 0
    for trial in range(90):
        n = rng.randint(4, 11)
        kind = ("euclidean", "one-two", "euclidean")[trial % 3]
        inst = generate_instance(kind, n, random_sizes(rng, n),
                                 rng.randrange(10 ** 6))
        if trial % 3 == 2:
            inst = scaled(inst, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(0, 5), rng.randint(1, 7)))
        calls.clear()
        approx_metric(inst)
        assert calls == ["optimise", "scan"] * (len(calls) // 2)
        solves += len(calls) > 2
    assert solves > 30


def confirming_jain_round(inst):
    """Reference rounding that re-solves until the residual cut LP answers
    x = 0, confirming with one more LP that the fixed edges meet every cut,
    and only then checks the subgraph."""
    fixed = set()
    pool = []
    rounds = []
    while True:
        x = solve_cut_lp(inst, fixed, cut_pool=pool)
        if not any(x.numerators):
            break
        take = sorted(s for s, v in zip(x.slots, x.numerators)
                      if 2 * v >= x.scale)
        value = sum(inst.w(u, v) * k
                    for (u, v, _c), k in zip(x.slots, x.numerators))
        rounds.append(Round(Fraction(value, x.scale), tuple(take)))
        fixed.update(take)
    sub = EdgeSubgraph(n=inst.n, edges=tuple(sorted(fixed)))
    _assert_feasible(sub, inst.groups)
    return sub, tuple(rounds)


def random_sizes(rng, n):
    """A random split of n into group sizes >= 2, often with pairs."""
    sizes = []
    rest = n
    while rest >= 4 and rng.random() < 0.75:
        sizes.append(rng.randint(2, rest - 2))
        rest -= sizes[-1]
    return sizes + [rest]


def test_rounding_stops_where_the_confirming_lp_did(monkeypatch):
    # stopping on the 2-edge-connectivity check gives the rounds, subgraph
    # and cover of the loop that stopped on a zero LP answer, with one LP
    # fewer: the fixed edges meet every cut exactly when the residual LP's
    # optimum is x = 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_cut_lp(*args, **kwargs)

    instances = [generate_instance("one-two", n, sizes, seed)
                 for n, sizes, seed in TWO_ROUND_ONE_TWO]
    rng = Random(59)
    for trial in range(1000):
        n = rng.randint(3, 14)
        kind = ("euclidean", "one-two", "euclidean")[trial % 3]
        inst = generate_instance(kind, n, random_sizes(rng, n),
                                 rng.randrange(10 ** 6))
        if trial % 3 == 2:
            inst = scaled(inst, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(0, 5), rng.randint(1, 7)))
        instances.append(inst)
    paired = multi = 0
    for inst in instances:
        with monkeypatch.context() as m:
            m.setattr(metric, "jain_round", confirming_jain_round)
            ref_cover, ref = approx_metric(inst)
        with monkeypatch.context() as m:
            m.setattr(snd, "solve_cut_lp", counting)
            calls.clear()
            cover, stages = approx_metric(inst)
        assert stages.rounds == ref.rounds
        assert stages.snd_subgraph == ref.snd_subgraph
        assert cover == ref_cover
        assert len(calls) == len(stages.rounds)
        paired += bool(inst.pair_groups())
        multi += len(stages.rounds) > 1
    assert paired > 300 and multi >= len(TWO_ROUND_ONE_TWO)


def test_zero_lp_answer_on_a_split_group_is_a_bug(monkeypatch):
    # round 1 of this instance leaves a vertex of fixed degree 1, so an LP
    # answering x = 0 in round 2 contradicts the split group it still has
    n, sizes, seed = TWO_ROUND_ONE_TWO[0]
    inst = generate_instance("one-two", n, sizes, seed)
    answers = []

    def zero_after_first(*args, **kwargs):
        x = solve_cut_lp(*args, **kwargs)
        answers.append(x)
        if len(answers) == 1:
            return x
        return FractionalEdgeVector(x.slots, (0,) * len(x.slots), 1)

    monkeypatch.setattr(snd, "solve_cut_lp", zero_after_first)
    with pytest.raises(SmcError, match="x = 0"):
        jain_round(inst)
    assert len(answers) == 2 and any(answers[1].numerators)


def test_rounding_goes_on_while_degree_two_edges_split_a_group(monkeypatch):
    # a round that fixes two disjoint triangles leaves every degree at 2,
    # yet the one group spans both: rounding must solve again, not stop
    far = two_far_triangles()
    inst = validate_instance(6, far.weights, True, far.weight_class,
                             [list(range(6))])
    triangles = {(0, 1, 0), (0, 2, 0), (1, 2, 0),
                 (3, 4, 0), (3, 5, 0), (4, 5, 0)}
    calls = []

    def triangles_first(*args, **kwargs):
        calls.append(args)
        x = solve_cut_lp(*args, **kwargs)
        if len(calls) > 1:
            return x
        return FractionalEdgeVector(
            x.slots, tuple(int(s in triangles) for s in x.slots), 1)

    monkeypatch.setattr(snd, "solve_cut_lp", triangles_first)
    g, rounds = jain_round(inst)
    assert set(rounds[0].fixed) == triangles and len(calls) == len(rounds) > 1
    assert min(EdgeSubgraph(6, rounds[0].fixed).degrees()) == 2
    _assert_feasible(g, inst.groups)


def test_cut_lp_certificate_rejects_corrupted_prices(monkeypatch):
    solution = ColumnLp._solution

    def corrupt(lp):
        x, xs, w, u, ws = solution(lp)
        return [v + xs for v in x], xs, w, u, ws

    monkeypatch.setattr(ColumnLp, "_solution", corrupt)
    with pytest.raises(SmcError, match="certificate"):
        solve_cut_lp(two_far_triangles())

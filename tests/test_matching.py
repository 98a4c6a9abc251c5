from __future__ import annotations

import importlib
import itertools
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from random import Random

import pytest

from smcycle import twofactor
from smcycle.asymmetric import approx_asymmetric
from smcycle.core import (WeightClass, generate_instance, successor_cycles,
                          validate_instance)
from smcycle.errors import ValidationError
from smcycle.matching import (_augment_matching, max_cardinality_matching,
                              max_simple_2matching,
                              min_cost_bipartite_perfect_matching,
                              min_weight_perfect_matching, minimal_edge_cover)
from smcycle.twofactor import directed_2factor_cycles

from reference import brute_force_2factor


def brute_min_perfect_matching(vertices, edges):
    """Pair up all vertices by recursion; None when impossible."""
    wt = {}
    for u, v, w in edges:
        wt[frozenset((u, v))] = w
    vs = sorted(vertices, key=repr)

    def rec(remaining):
        if not remaining:
            return 0
        first = remaining[0]
        best = None
        for i in range(1, len(remaining)):
            key = frozenset((first, remaining[i]))
            if key not in wt:
                continue
            rest = rec(remaining[1:i] + remaining[i + 1:])
            if rest is None:
                continue
            cand = wt[key] + rest
            if best is None or cand < best:
                best = cand
        return best

    return rec(vs)


def brute_max_matching_size(n, edges):
    """Bitmask DP over vertices 0..n-1."""
    adj = [[] for _ in range(n)]
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    memo = {0: 0}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = rec(mask & ~(1 << v))
        for u in adj[v]:
            if mask >> u & 1:
                best = max(best, 1 + rec(mask & ~(1 << v) & ~(1 << u)))
        memo[mask] = best
        return best

    return rec((1 << n) - 1)


def assert_is_matching(matching):
    used = set()
    for u, v in matching:
        assert u not in used and v not in used
        used.add(u)
        used.add(v)


def test_single_edge_matching(matching_weight):
    m = min_weight_perfect_matching([(0, 1, 5)])
    assert m == {(0, 1)}
    assert matching_weight([(0, 1, 5)], m) == 5


def test_k4_matching_picks_cheap_pair(matching_weight):
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2)]
    m = min_weight_perfect_matching(edges)
    # the three perfect matchings cost 2, 4 and 4
    assert matching_weight(edges, m) == 2
    assert m == {(0, 1), (2, 3)}


def test_odd_vertex_count_rejected():
    with pytest.raises(ValidationError):
        min_weight_perfect_matching([(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def test_no_perfect_matching_detected():
    # star K_{1,3}: 4 vertices, max matching 1
    with pytest.raises(ValidationError):
        min_weight_perfect_matching([(0, 1, 1), (0, 2, 1), (0, 3, 1)])


def test_min_matching_agrees_with_brute_force(matching_weight):
    rng = Random(7)
    for trial in range(60):
        n = rng.choice((4, 6, 8, 10))
        vertices = list(range(n))
        edges = []
        for u, v in itertools.combinations(vertices, 2):
            if rng.random() < 0.7:
                edges.append((u, v, rng.randrange(1, 30)))
        expected = brute_min_perfect_matching(vertices, edges)
        if expected is None:
            with pytest.raises(ValidationError):
                min_weight_perfect_matching(edges, vertices=vertices)
            continue
        m = min_weight_perfect_matching(edges, vertices=vertices)
        assert_is_matching(m)
        assert 2 * len(m) == n
        assert matching_weight(edges, m) == expected


def test_min_matching_deterministic():
    edges = [(u, v, ((u * 7 + v * 13) % 5) + 1)
             for u, v in itertools.combinations(range(8), 2)]
    runs = {frozenset(min_weight_perfect_matching(edges)) for _ in range(5)}
    assert len(runs) == 1


def test_max_matching_empty():
    assert max_cardinality_matching([]) == set()


def test_max_matching_path():
    m = max_cardinality_matching([("a", "b"), ("b", "c")])
    assert len(m) == 1


def labelled_variants(rng, edges):
    """The graph as given, with parallel copies (either orientation, some
    weighted), and under string and tuple vertex names: (label, edges)."""
    copies = list(edges)
    for u, v in rng.sample(edges, min(3, len(edges))):
        copies.append((v, u) if rng.random() < 0.5 else (u, v, 7))
    rng.shuffle(copies)
    for label in (lambda x: x, lambda x: f"v{x}", lambda x: ("t", x % 3, x)):
        for variant in (edges, copies):
            yield label, [(label(e[0]), label(e[1])) + tuple(e[2:])
                          for e in variant]


def assert_canonical_subset(pairs, edges):
    # every pair is an input edge, written in repr order
    known = {frozenset(e[:2]) for e in edges}
    for u, v in pairs:
        assert repr(u) <= repr(v) and frozenset((u, v)) in known


def test_max_matching_agrees_with_brute_force():
    rng = Random(13)
    for trial in range(40):
        n = 10
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.25:
                edges.append((u, v))
        expected = brute_max_matching_size(n, edges)
        for label, variant in labelled_variants(rng, edges):
            m = max_cardinality_matching(variant)
            assert_is_matching(m)
            assert_canonical_subset(m, variant)
            assert len(m) == expected
            if variant:
                u = variant[0][0]
                with pytest.raises(ValidationError):
                    max_cardinality_matching(variant + [(u, u)])


def blossom_matching(n, edges, initial=()):
    """Run the int-indexed blossom from ``initial``; check and return mate."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = [-1] * n
    for u, v in initial:
        mate[u], mate[v] = v, u
    _augment_matching(adj, mate)
    for x in range(n):
        if mate[x] != -1:
            assert mate[mate[x]] == x and mate[x] in adj[x]
    for u, v in initial:  # augmenting never exposes a matched node
        assert mate[u] != -1 and mate[v] != -1
    return mate


def blossom_size(n, edges, initial=()):
    return sum(1 for m in blossom_matching(n, edges, initial) if m != -1) // 2


def test_blossom_odd_cycles():
    # a 5-cycle with a pendant: the path from 5 must go round the blossom
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]
    assert blossom_size(6, edges, initial=[(0, 1), (2, 3)]) == 3
    # triangle with a tail of three, matched so one search contracts it
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]
    assert blossom_size(6, edges, initial=[(1, 2), (3, 4)]) == 3
    # Petersen graph: perfect matching from an empty start
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    assert blossom_size(10, outer + inner + spokes) == 5


def test_blossom_nested_blossoms():
    # root 0 and exposed 9.  The search from 0 contracts the blossom
    # 2-3=4-6=5-2 first, then the outer blossom 0-1=B-7=8-10=11-0 around
    # it; 9 hangs off 3, which turns even only inside the inner blossom, so
    # the augmenting path crosses both
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 5), (5, 2),
             (4, 7), (7, 8), (8, 10), (10, 11), (11, 0), (3, 9)]
    initial = [(1, 2), (3, 4), (5, 6), (7, 8), (10, 11)]
    mate = blossom_matching(12, edges, initial)
    assert -1 not in mate
    assert (mate[9], mate[4], mate[0]) == (3, 7, 11)
    # two triangles joined through a matched edge, then a third around them
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
             (5, 6), (6, 7), (7, 0), (1, 8), (4, 9)]
    for initial in ([], [(1, 2), (3, 4)], [(2, 3), (5, 6), (7, 0)],
                    [(0, 1), (2, 3), (4, 5), (6, 7)]):
        assert blossom_size(10, edges, initial) == brute_max_matching_size(
            10, edges)


def test_blossom_agrees_with_exhaustive():
    rng = Random(53)
    for trial in range(1500):
        n = rng.randint(1, 11)
        density = rng.random()
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < density]
        rng.shuffle(edges)
        initial = []
        used = set()
        for u, v in edges:
            if u not in used and v not in used and rng.random() < 0.5:
                initial.append((u, v))
                used.update((u, v))
        if trial % 2:
            initial = []
        assert blossom_size(n, edges, initial) == brute_max_matching_size(n, edges)


def brute_max_2matching_size(n, edges):
    """Exhaustive over the edges: the set of reachable degree vectors, two
    bits per vertex; every way to a vector takes the same number of edges."""
    reach = {0}
    for u, v in edges:
        step = (1 << 2 * u) + (1 << 2 * v)
        reach |= {s + step for s in reach
                  if (s >> 2 * u & 3) < 2 and (s >> 2 * v & 3) < 2}
    return max(sum(s >> 2 * x & 3 for x in range(n)) for s in reach) // 2


def masks_of(n, pairs):
    """Bitmasks of the simple graph on 0..n-1 with edges ``pairs``."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def checked_2matching(n, pairs, extra=()):
    """Run ``max_simple_2matching`` on the graph ``pairs`` with a second
    copy of each pair of ``extra``, and check that its answer is a simple
    2-matching in the order of the edge list that holds each pair once,
    ascending, then the second copies: every degree at most 2."""
    ordered = sorted({(min(e), max(e)) for e in pairs})
    edges = ordered + [(min(e), max(e)) for e in extra]
    chosen = max_simple_2matching(masks_of(n, pairs), extra)
    at = 0
    for e in chosen:  # a subsequence of the edge list
        at = edges.index(e, at) + 1
    deg = [0] * n
    for u, v in chosen:
        deg[u] += 1
        deg[v] += 1
    assert max(deg, default=0) <= 2
    return chosen


def test_max_simple_2matching_agrees_with_exhaustive(gadget_calls):
    # n <= 8 at edge densities 0.1-0.9, with a second copy of any edge,
    # given in either orientation
    rng = Random(61)
    closed = 0
    for trial in range(500):
        n = rng.randint(2, 8)
        density = rng.uniform(0.1, 0.9)
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < density]
        extra = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in pairs if rng.random() < 0.2]
        searches = len(gadget_calls)
        chosen = checked_2matching(n, pairs, extra)
        assert len(chosen) == brute_max_2matching_size(n, pairs + extra)
        if len(gadget_calls) == searches:
            # every vertex with an edge has degree 2
            assert len(chosen) == len({v for e in pairs for v in e})
            closed += 1
    # both ends of the stage: closed without the gadget, and fallen back
    assert 100 <= closed <= 400


def test_max_simple_2matching_short_path_cases(gadget_calls):
    # after the greedy path 3-0-1-2, length 1 closes the cycle 0-1-2-3 and
    # leaves 4 alone with both neighbours saturated.  Only the length-3
    # path 4-0, 0-1 in M, 1-4 reaches degree 2 everywhere (f = e, as 4 has
    # degree 0)
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]
    assert checked_2matching(5, pairs) == [(0, 3), (0, 4), (1, 2), (1, 4),
                                           (2, 3)]
    # the greedy path 2-1-0-3-6-5-4 ends at e = 2 (degree 1), whose only
    # other neighbour 3 is saturated: the length-3 path 2-3, 3-0 in M, 0-4
    # closes the 7-cycle.  Probed after dropping 3-0, 0's least short
    # neighbour with an unused copy would be 3 itself, and f = x = 3 would
    # give 3 degree 3; the probes come before the drop
    pairs += [(4, 5), (5, 6), (3, 6)]
    assert checked_2matching(7, pairs) == [(0, 1), (0, 4), (1, 2), (2, 3),
                                           (3, 6), (4, 5), (5, 6)]
    # a pair group's second copy closes its 2-cycle, listed after the
    # pairs taken once; a single copy cannot
    pairs = [(0, 1), (2, 3), (3, 4), (2, 4)]
    assert checked_2matching(5, pairs, [(1, 0)]) == [
        (0, 1), (2, 3), (2, 4), (3, 4), (0, 1)]
    # a vertex with no edge is left alone, so the triangle closes every
    # vertex that can meet M
    assert checked_2matching(4, [(0, 1), (1, 2), (0, 2)]) == [
        (0, 1), (0, 2), (1, 2)]
    assert not gadget_calls
    assert checked_2matching(2, [(0, 1)]) == [(0, 1)]
    assert len(gadget_calls) == 1
    # the greedy path 2-0-1-4-3 leaves 2 and 3 short.  From e = 2 (degree
    # 1), 2-1, 1-4 in M, 4-2 would end at e itself and give it degree 3;
    # 3 has no other neighbour, so 4 edges are the maximum
    pairs = [(0, 1), (0, 2), (1, 2), (1, 4), (2, 4), (3, 4)]
    assert len(checked_2matching(5, pairs)) == 4
    # on the gadget, each copy keeps its place in the edge list
    assert checked_2matching(4, [(0, 1), (2, 3)], [(1, 0)]) == [
        (0, 1), (2, 3), (0, 1)]
    assert len(gadget_calls) == 3


def test_assignment_one_by_one():
    cols, total = min_cost_bipartite_perfect_matching([[7]])
    assert cols == [0]
    assert total == 7


def test_assignment_two_by_two():
    cols, total = min_cost_bipartite_perfect_matching([[1, 2], [2, 1]])
    assert cols == [0, 1]
    assert total == 2


def directed_instance(k, seed, kind):
    """An asymmetric metric instance on k vertices with one group: int
    weights, Fractions, or ints with a non-zero diagonal (large negative and
    positive entries) that validate_instance keeps as given."""
    inst = generate_instance("asymmetric", k, [k], seed)
    w = [list(row) for row in inst.weights]
    if kind == "fraction":
        w = [[0 if i == j else x * Fraction(2, 3) + Fraction(1, 5)
              for j, x in enumerate(row)] for i, row in enumerate(w)]
    elif kind == "diagonal":
        for i in range(k):
            w[i][i] = -10 ** 6 if i % 2 else 10 ** 6 + i
    return validate_instance(k, w, False, WeightClass.ASYMMETRIC_METRIC,
                             [list(range(k))])


def test_assignment_respects_forbidden_cells():
    # the directed 2-factor forbids self-arcs through the assignment's
    # diagonal, whatever the instance holds there; up to the oracle's cap,
    # n = 7, its cost is the minimum over all directed 2-factors
    rng = Random(31)
    for kind in ("int", "fraction", "diagonal"):
        for k in range(2, 10):
            inst = directed_instance(k, rng.randrange(10 ** 6), kind)
            cycles = directed_2factor_cycles(inst, range(k))
            assert sorted(v for c in cycles for v in c) == list(range(k))
            assert all(len(c) >= 2 for c in cycles)
            cost = sum(inst.w(c[i - 1], c[i]) for c in cycles
                       for i in range(len(c)))
            if k <= 7:
                assert cost == brute_force_2factor(inst)


def test_assignment_respects_forbidden_cells_on_sub_digraphs():
    # the representative rounds solve induced sub-digraphs: the diagonal of
    # the picked rows, not of the full matrix, is forbidden
    rng = Random(8)
    for _ in range(30):
        n = rng.randint(4, 12)
        inst = directed_instance(n, rng.randrange(10 ** 6), "diagonal")
        order = sorted(rng.sample(range(n), rng.randint(2, min(n, 7))))
        cycles = directed_2factor_cycles(inst, order)
        assert sorted(v for c in cycles for v in c) == order
        assert all(len(c) >= 2 for c in cycles)
        sub = validate_instance(
            len(order), [[inst.w(a, b) for b in order] for a in order], False,
            WeightClass.ASYMMETRIC_METRIC, [list(range(len(order)))])
        assert (sum(inst.w(c[i - 1], c[i]) for c in cycles
                    for i in range(len(c))) == brute_force_2factor(sub))


def picked_2factor_cycles(inst, order):
    """Reference for ``directed_2factor_cycles``: the cost rows picked out
    of the weight rows by ``order`` through ``itemgetter``, whatever it
    spans."""
    pick = itemgetter(*order)
    costs = [list(pick(row)) for row in pick(inst.weights)]
    for i, row in enumerate(costs):
        row[i] = 0
    big = 2 * sum(map(sum, costs)) + 1
    for i, row in enumerate(costs):
        row[i] = big
    succ, _total = min_cost_bipartite_perfect_matching(costs)
    return [tuple(order[v] for v in cyc) for cyc in successor_cycles(succ)]


def perfbench_workloads():
    """The benchmark's instance generators, from perfbench/workloads.py."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


def test_full_order_2factor_matches_picked_rows():
    # with every vertex in the order the cost rows are copies of the weight
    # rows; the cycles are those of the rows picked one by one, on
    # instances with int, Fraction and non-zero diagonal weights and on the
    # clustered instances of the asym-files benchmark
    workloads = perfbench_workloads()
    rng = Random(17)
    instances = [directed_instance(k, rng.randrange(10 ** 6), kind)
                 for kind in ("int", "fraction", "diagonal")
                 for k in range(2, 24)]
    for n in (8, 20, 40):
        inst = workloads.clustered_asymmetric(n, rng)
        w = [list(row) for row in inst.weights]
        for i in range(n):
            w[i][i] = rng.choice((-10 ** 6, 10 ** 6 + i))
        instances += [inst, validate_instance(
            n, w, False, WeightClass.ASYMMETRIC_METRIC, inst.groups)]
    for inst in instances:
        order = range(inst.n)
        assert (directed_2factor_cycles(inst, order)
                == picked_2factor_cycles(inst, order))


def test_assignment_agrees_with_brute_force():
    rng = Random(99)
    for trial in range(40):
        n = 5
        costs = [[rng.randrange(0, 50) for _ in range(n)] for _ in range(n)]
        expected = min(sum(costs[i][perm[i]] for i in range(n))
                       for perm in itertools.permutations(range(n)))
        cols, total = min_cost_bipartite_perfect_matching(costs)
        assert sorted(cols) == list(range(n))
        assert total == expected
        assert sum(costs[i][cols[i]] for i in range(n)) == total


def eager_assignment(costs):
    """The e-maxx Hungarian loop with eager potentials: after every
    Dijkstra step, u and v of the used columns and minv of the others move
    by delta.  The reference for the library's lazy-potential form."""
    n = len(costs)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    way = [0] * (n + 1)
    p = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = costs[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row, sum(costs[i][col_of_row[i]] for i in range(n))


def with_big(costs):
    """``costs`` with each None cell set to 2 * (the sum of the other
    cells' absolute values) + 1, a cost no optimal assignment pays while
    one avoiding those cells exists."""
    big = 2 * sum(abs(c) for row in costs for c in row if c is not None) + 1
    return [[big if c is None else c for c in row] for row in costs]


def _random_costs(rng):
    """Square matrix, n <= 12: few distinct values (heavy ties), None
    cells, small and large negatives, Fractions, sometimes an
    all-None row."""
    n = rng.randint(0, 12)
    kind = rng.choice(("ties", "signed", "fractions", "wide", "negative"))
    p_none = rng.choice((0, 0.1, 0.3, 0.7))

    def cell():
        if rng.random() < p_none:
            return None
        if kind == "ties":
            return rng.randint(0, 2)
        if kind == "signed":
            return rng.randint(-4, 4)
        if kind == "fractions":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if kind == "negative":
            return -rng.randrange(10 ** 15)
        return rng.randrange(10 ** 6)

    costs = [[cell() for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.1:
        costs[rng.randrange(n)] = [None] * n
    return costs


def _free_column_costs(rng):
    """Square matrix, n <= 12, of costs 0..3 under a random permutation of
    cheaper cells, so that many phases find their first least column free
    and others tie it with a taken one."""
    n = rng.randint(1, 12)
    costs = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        costs[i][j] = rng.randint(-1, 0)
    return costs


FIXED_COSTS = (
    # several None cells in every row
    [[None, 3, None, 1, None], [2, None, None, 5, 0], [None, None, 4, 0, None],
     [1, 1, None, None, 2], [None, 0, 0, None, None]],
    # Fractions, rows given as tuples
    [(Fraction(1, 3), Fraction(-2, 7), None), (Fraction(5, 2), None, 0),
     (None, Fraction(1, 3), Fraction(1, 3))],
    # large negative costs next to None cells
    [[-10 ** 18, None, -3], [None, -10 ** 17, -10 ** 18],
     [-5, -10 ** 18, None]],
    # a row of None cells, and a matrix of them
    [[1, 2, 3], [None, None, None], [4, 5, 6]],
    [[None, None], [None, None]],
    # every phase's least column is free
    [[1, 0, 2], [0, 1, 2], [2, 2, 0]],
    # phase 1: a taken column ties with a free one, taken first, free first
    [[0, 3], [0, 0]],
    [[0, 0], [0, 0]],
    [[3, 0, 1], [0, 0, 1], [1, 0, 0]],
    [[5, 1, 1, 5], [1, 1, 5, 5], [1, 5, 1, 1], [5, 5, 1, 1]],
)


def test_assignment_matches_eager_potentials():
    rng = Random(2024)
    for costs in FIXED_COSTS:
        dense = with_big(costs)
        assert (min_cost_bipartite_perfect_matching(dense)
                == eager_assignment(dense))
    assert min_cost_bipartite_perfect_matching(
        [[1, 0, 2], [0, 1, 2], [2, 2, 0]]) == ([1, 0, 2], 0)
    assert min_cost_bipartite_perfect_matching(
        [[0, 3], [0, 0]]) == ([0, 1], 0)
    for _ in range(2000):
        dense = with_big(_random_costs(rng))
        assert (min_cost_bipartite_perfect_matching(dense)
                == eager_assignment(dense))
    for _ in range(500):
        costs = _free_column_costs(rng)
        assert (min_cost_bipartite_perfect_matching(costs)
                == eager_assignment(costs))


def test_assignment_matches_eager_potentials_clustered():
    # a directed 2-factor matrix at n = 160: cheap arcs inside clusters of
    # 5, dear ones across, the self-arc penalty on the diagonal
    rng = Random(7)
    n = 160
    cluster = [v % 32 for v in range(n)]
    rng.shuffle(cluster)
    costs = with_big([[None if i == j else rng.randrange(10, 20)
                       if cluster[i] == cluster[j] else rng.randrange(200, 210)
                       for j in range(n)] for i in range(n)])
    assert (min_cost_bipartite_perfect_matching(costs)
            == eager_assignment(costs))


def asym_log_matrices(inst):
    """Every cost matrix ``approx_asymmetric`` hands the assignment on
    ``inst``: the first directed 2-factor's, then one per representative
    round."""
    seen = []

    def spy(costs):
        seen.append([list(row) for row in costs])
        return min_cost_bipartite_perfect_matching(costs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twofactor, "min_cost_bipartite_perfect_matching", spy)
        approx_asymmetric(inst)
    return seen


def divided_by_7(inst):
    """``inst`` with every weight a Fraction, the int weight over 7."""
    w = [[Fraction(x, 7) for x in row] for row in inst.weights]
    return validate_instance(inst.n, w, False, WeightClass.ASYMMETRIC_METRIC,
                             inst.groups)


def test_assignment_matches_eager_potentials_on_asym_log():
    # the first assignment and each representative round of asym-log, on
    # the benchmark's clustered instances and on generated ones, with int
    # and with Fraction weights
    workloads = perfbench_workloads()
    rng = Random(53)
    clustered = [workloads.clustered_asymmetric(n, rng)
                 for n in (40, 40, 60, 80)]
    generated = [generate_instance("asymmetric", n, [4] * (n // 4),
                                   rng.randrange(10 ** 6))
                 for n in (8, 12, 20, 28, 40)]
    instances = clustered + generated + [divided_by_7(clustered[0]),
                                         divided_by_7(generated[-1])]
    rounds = 0
    for inst in instances:
        matrices = asym_log_matrices(inst)
        rounds += len(matrices) - 1
        for costs in matrices:
            assert (min_cost_bipartite_perfect_matching(costs)
                    == eager_assignment(costs))
    assert rounds >= len(clustered)


def test_assignment_bound_admits_a_column_at_it_exactly():
    # phase 1 settles column 2 (row 0) at distance 0 while the bound is 1,
    # the raw cost of free column 1; row 0 reaches free column 0 at raw
    # cost 1 = bound - off, which ties column 1 at R = 1 and, with the
    # lower index, wins: row 0 moves to column 0 and row 1 takes column 2
    costs = [[1, 5, 0], [3, 1, 0], [9, 9, 9]]
    assert min_cost_bipartite_perfect_matching(costs) == ([0, 2, 1], 10)
    assert eager_assignment(costs) == ([0, 2, 1], 10)


def test_assignment_bound_falls_and_prunes_later_scans():
    # rows 0..n-2 take their diagonal at once.  The last row reaches
    # columns 0..k-1 at distance 0; row 0 reaches the free column n-1 at
    # distance 1, lowering the bound from 1000 to 1, so each of rows
    # 1..k-1 then reads only its one cell of cost <= 1 instead of all n
    n, k = 40, 10
    reads = []

    class Row(list):
        def __getitem__(self, j):
            reads.append(j)
            return list.__getitem__(self, j)

    costs = [[0 if i == j else 100 for j in range(n)] for i in range(n - 1)]
    costs[0][n - 1] = 1
    costs.append([0] * k + [50] * (n - k - 1) + [1000])
    expected = eager_assignment(costs)
    assert expected == ([n - 1, *range(1, n - 1), 0], 1)
    assert min_cost_bipartite_perfect_matching(list(map(Row, costs))) == expected
    # the bound, the root's row, row 0 and the total read n cells or one
    # each; rows 1..k-1 one each
    assert len(reads) <= 3 * n + k


def test_assignment_rejects_a_ragged_matrix():
    with pytest.raises(ValidationError, match="square"):
        min_cost_bipartite_perfect_matching([[1, 2], [3]])


def test_edge_cover_path():
    cover = minimal_edge_cover([("a", "b"), ("b", "c")])
    assert cover == {("a", "b"), ("b", "c")}


def test_edge_cover_k4_is_perfect_matching():
    edges = list(itertools.combinations(range(4), 2))
    cover = minimal_edge_cover(edges)
    assert len(cover) == 2
    assert_is_matching(cover)


def test_edge_cover_isolated_vertex_rejected():
    with pytest.raises(ValidationError):
        minimal_edge_cover([(0, 1)], vertices=[0, 1, 2])


def cover_degrees(vertices, cover):
    deg = {v: 0 for v in vertices}
    for u, v in cover:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_edge_cover_properties_random():
    rng = Random(31)
    checked = 0
    for trial in range(200):
        n = 9
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                edges.append((u, v))
        deg = cover_degrees(range(n), edges)
        if any(d == 0 for d in deg.values()):
            continue
        checked += 1
        expected = n - brute_max_matching_size(n, edges)
        for label, variant in labelled_variants(rng, edges):
            vertices = [label(x) for x in range(n)]
            cover = minimal_edge_cover(variant, vertices=vertices)
            assert_canonical_subset(cover, variant)
            cdeg = cover_degrees(vertices, cover)
            # covers every vertex
            assert all(d >= 1 for d in cdeg.values())
            # size n - max matching
            assert len(cover) == expected
            # inclusion-minimal: each edge has an endpoint of cover-degree 1
            for u, v in cover:
                assert cdeg[u] == 1 or cdeg[v] == 1
            # at least half the vertices are covered exactly once
            once = sum(1 for d in cdeg.values() if d == 1)
            assert 2 * once >= n
            with pytest.raises(ValidationError):
                minimal_edge_cover(variant + [(vertices[0], vertices[0])],
                                   vertices=vertices)
    assert checked >= 100

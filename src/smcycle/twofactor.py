"""Minimum-weight 2-factor computation.

Each route takes only the instance.  A pair 2-cycle, the doubled edge of a
size-2 terminal group, is allowed exactly when the instance has size-2
groups, as in the problem definition.  Three routes live here:

* ``min_weight_2factor``: {1,2} minimum 2-factor from a maximum simple
  2-matching of the weight-1 graph H (plus a second copy of each pair-group
  1-edge), found by ``matching.max_simple_2matching`` (short augmenting
  paths on H, and Tutte's gadget only when they leave a vertex of degree
  < 2), with its paths chained by 2-edges;
* ``min_weight_directed_2factor``: directed minimum-weight 2-factor via an
  exact assignment between out-copies and in-copies with self-arcs
  forbidden, by ``directed_2factor_cycles``, which also serves the
  representative sub-digraphs of the asymmetric loop;
* ``min_weight_triangle_free_2factor``: {1,2} minimum 2-factor with no
  3-cycle, from a maximum triangle-free simple 2-matching of the weight-1
  graph, found by an exact branch-and-bound capped at
  ``TRIANGLE_FREE_BRUTE_MAX_N`` vertices.

Both {1,2} routes close their 2-matching with one component/chain/repair
step, ``_cycles_from_2matching``, whose docstring proves it exact.  The
degree-gadget reduction to weighted perfect matching, their exact reference
above the enumeration caps, is ``oracle.gadget_2factor``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .core import (CycleCover, Instance, Weight, WeightClass, cover_cost,
                   make_cover)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import max_simple_2matching, min_cost_bipartite_perfect_matching

TRIANGLE_FREE_BRUTE_MAX_N = 12


def _walk_degree2(vertices: Sequence[int], edges: Sequence[tuple[int, int]]
                  ) -> tuple[list[list[int]], list[list[int]]]:
    """Split a multigraph of maximum degree 2 into its cycles and paths.

    ``edges`` may repeat an edge; its two copies form a 2-cycle.  Paths are
    walked from their smaller endpoint, an isolated vertex being a
    one-vertex path; cycles start at their smallest vertex and leave it by
    its first listed edge.  Both come out in order of their first vertex.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if any(len(a) > 2 for a in adj.values()):
        raise ValidationError("edges meet a vertex more than twice")
    used = [False] * len(edges)

    def walk(start: int) -> list[int]:
        seq = [start]
        cur = start
        while True:
            step = next(((v, eid) for v, eid in adj[cur] if not used[eid]), None)
            if step is None:
                return seq
            used[step[1]] = True
            if step[0] == start:
                return seq
            cur = step[0]
            seq.append(cur)

    order = sorted(adj)
    paths = [walk(v) for v in order
             if len(adj[v]) < 2 and not any(used[eid] for _, eid in adj[v])]
    cycles = [walk(v) for v in order if adj[v] and not used[adj[v][0][1]]]
    return cycles, paths


def _cycles_from_2matching(inst: Instance, vertices: Sequence[int],
                           edges: Sequence[tuple[int, int]], min_len: int,
                           pairs: frozenset[frozenset[int]] = frozenset()
                           ) -> list[list[int]] | None:
    """Cycles of a minimum {1,2} 2-factor built from a maximum 2-matching.

    ``edges`` is a maximum simple 2-matching of H+ on ``vertices``: H is the
    weight-1 graph and H+ adds a second copy of each weight-1 edge of an
    allowed pair group (``pairs``).  Cycles shorter than ``min_len`` are
    forbidden except those pair 2-cycles; a 2-vertex cycle in the result is
    a pair 2-cycle.  Returns None when the vertices admit no such 2-factor.

    Exactness for ``min_len`` 3 (n vertices, e2 weight-2 edges).  A
    2-factor F has n edges, a pair 2-cycle counting twice, and its 1-edges
    form a simple 2-matching of H+ with n - e2(F) edges, so
    w(F) = n + e2(F) >= 2n - |M| for a maximum 2-matching M.  M splits into
    cycles, which are legal, and p paths (a lone vertex is a path), so
    |M| = n - p.  Chaining the paths by p junction edges into one cycle
    costs at most |M| + 2p = 2n - |M|, which is optimal when the chain has
    >= min_len vertices or is exactly a pair group.  A shorter chain (one
    or two vertices) is spliced into a cycle of M between a vertex x that
    one chain end reaches by a 1-edge (an escape) and x's successor y,
    dropping the 1-edge xy: again at most 2n - |M|.  With no escape, no
    chain vertex has a 1-edge leaving the chain and the chain is not an
    allowed pair group, so counting the 2-edges at the chain vertices gives
    e2 >= p + 1 for every 2-factor, which the splice into the first cycle
    pays.  The same chain and splice serve ``min_len`` 4 on a maximum
    triangle-free 2-matching.
    """
    cycles, paths = _walk_degree2(vertices, edges)
    for cyc in cycles:
        if len(cyc) < min_len and not (len(cyc) == 2 and frozenset(cyc) in pairs):
            raise ValidationError("2-matching has a cycle shorter than allowed")
    if not paths:
        return cycles
    chain = [v for p in sorted(paths) for v in p]
    if len(chain) >= min_len or frozenset(chain) in pairs:
        return cycles + [chain]
    if not cycles:
        return None

    def splice(host_idx: int, pos: int, insert: list[int]) -> list[list[int]]:
        host = cycles[host_idx]
        merged = host[:pos + 1] + insert + host[pos + 1:]
        return [c for i, c in enumerate(cycles) if i != host_idx] + [merged]

    # the chain goes in between host vertex v and its successor, so that
    # the edge v-chain[0] is the escape
    for arr in (chain, chain[::-1]):
        u = arr[0]
        for ci, host in enumerate(cycles):
            for pos, v in enumerate(host):
                if inst.w(u, v) == 1:
                    return splice(ci, pos, arr)
    return splice(0, 0, chain)


def min_weight_2factor(inst: Instance) -> CycleCover:
    """{1,2} minimum 2-factor from a maximum simple 2-matching of H+.

    H is the weight-1 graph and H+ adds a second copy of the 1-edge of each
    size-2 group; taking both copies gives that group's pair 2-cycle.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("{1,2} 2-factors need one-two weights")
    n = inst.n
    w = inst.weights
    pairs = inst.pair_groups()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if w[i][j] == 1]
    edges += [(u, v) for u, v in pairs if w[u][v] == 1]
    chosen = [edges[k] for k in max_simple_2matching(n, edges)]
    cycles = _cycles_from_2matching(inst, range(n), chosen, 3,
                                    frozenset(frozenset(p) for p in pairs))
    if cycles is None:
        raise ValidationError("no 2-factor exists")
    return make_cover(cycles, directed=False,
                      pair_flags=[len(c) == 2 for c in cycles])


def min_weight_directed_2factor(inst: Instance) -> CycleCover:
    """Directed minimum-weight 2-factor via min-cost assignment.

    Every vertex gets in-degree = out-degree = 1; self-arcs are forbidden.
    Directed 2-cycles are allowed.
    """
    if inst.symmetric:
        raise ValidationError("directed 2-factor needs an asymmetric instance")
    return make_cover(directed_2factor_cycles(inst, range(inst.n)),
                      directed=True)


def directed_2factor_cycles(inst: Instance, order: Sequence[int]
                            ) -> list[tuple[int, ...]]:
    """Cycles of a minimum directed 2-factor of the sub-digraph induced by
    ``order``, an ascending list of at least two distinct vertices.

    One assignment between out-copies and in-copies with self-arcs
    forbidden; each cycle starts at its lowest vertex, in order of that
    vertex.
    """
    k = len(order)
    pick = itemgetter(*order)
    costs = [list(pick(row)) for row in pick(inst.weights)]
    for i in range(k):
        costs[i][i] = None
    succ, _total = min_cost_bipartite_perfect_matching(costs)
    seen = [False] * k
    cycles = []
    for start in range(k):
        if seen[start]:
            continue
        cyc = [order[start]]
        seen[start] = True
        cur = succ[start]
        while cur != start:
            cyc.append(order[cur])
            seen[cur] = True
            cur = succ[cur]
        cycles.append(tuple(cyc))
    return cycles


# ---------------------------------------------------------------------------
# triangle-free route


def brute_force_triangle_free_2matching(vertices: Sequence[int],
                                        h_edges: set[frozenset[int]]
                                        ) -> set[frozenset[int]]:
    """Maximum-size simple 2-matching of H with no 3-cycle, by branch and bound.

    Refuses more than TRIANGLE_FREE_BRUTE_MAX_N vertices instead of
    degrading.
    """
    vs = list(vertices)
    if len(vs) > TRIANGLE_FREE_BRUTE_MAX_N:
        raise BudgetExceededError(
            f"triangle-free 2-matching brute force capped at "
            f"{TRIANGLE_FREE_BRUTE_MAX_N} vertices, got {len(vs)}")
    index = {v: i for i, v in enumerate(vs)}
    m = len(vs)
    edges = sorted((min(index[a], index[b]), max(index[a], index[b]))
                   for a, b in (tuple(e) for e in h_edges))

    deg = [0] * m
    chosen_adj: list[set[int]] = [set() for _ in range(m)]
    chosen: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []

    # greedy incumbent, scanning edges in order
    for u, v in edges:
        if deg[u] < 2 and deg[v] < 2 and not (chosen_adj[u] & chosen_adj[v]):
            deg[u] += 1
            deg[v] += 1
            chosen_adj[u].add(v)
            chosen_adj[v].add(u)
            chosen.append((u, v))
    best = list(chosen)
    for u, v in chosen:
        deg[u] -= 1
        deg[v] -= 1
        chosen_adj[u].remove(v)
        chosen_adj[v].remove(u)
    chosen = []

    suffix_inc = [[0] * (len(edges) + 1) for _ in range(m)]
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        for x in range(m):
            suffix_inc[x][i] = suffix_inc[x][i + 1] + (1 if x in (u, v) else 0)

    def upper_bound(idx: int) -> int:
        cap = 0
        for x in range(m):
            cap += min(2 - deg[x], suffix_inc[x][idx])
        return len(chosen) + cap // 2

    def rec(idx: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(edges) or upper_bound(idx) <= len(best):
            return
        u, v = edges[idx]
        if deg[u] < 2 and deg[v] < 2 and not (chosen_adj[u] & chosen_adj[v]):
            deg[u] += 1
            deg[v] += 1
            chosen_adj[u].add(v)
            chosen_adj[v].add(u)
            chosen.append((u, v))
            rec(idx + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            chosen_adj[u].remove(v)
            chosen_adj[v].remove(u)
        rec(idx + 1)

    rec(0)
    return {frozenset((vs[u], vs[v])) for u, v in best}


def min_weight_triangle_free_2factor(inst: Instance) -> CycleCover:
    """Minimum-weight {1,2} 2-factor among those with no length-3 cycle.

    A pair 2-cycle is not a triangle.  Every subset of the size-2 groups is
    tried as the set of pair 2-cycles; on the other vertices a maximum
    triangle-free simple 2-matching of the weight-1 graph is closed by
    ``_cycles_from_2matching`` with cycles of length at least 4.  Each
    branch is exact, so the cheapest one is.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("{1,2} 2-factors need one-two weights")
    pairs = inst.pair_groups()
    best_cost: Weight | None = None
    best_cover: CycleCover | None = None
    for mask in range(1 << len(pairs)):
        committed = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        removed = {v for p in committed for v in p}
        active = [v for v in range(inst.n) if v not in removed]
        h_edges = {frozenset((u, v)) for i, u in enumerate(active)
                   for v in active[i + 1:] if inst.w(u, v) == 1}
        matching = brute_force_triangle_free_2matching(active, h_edges)
        cycles = _cycles_from_2matching(inst, active,
                                        [tuple(e) for e in matching], 4)
        if cycles is None:  # 1 to 3 active vertices
            continue
        all_cycles = [list(p) for p in committed] + cycles
        flags = [True] * len(committed) + [False] * len(cycles)
        cover = make_cover(all_cycles, directed=False, pair_flags=flags)
        cost = cover_cost(inst, cover)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_cover = cover
    if best_cover is None:
        raise ValidationError("no triangle-free 2-factor exists")
    for cyc, flag in zip(best_cover.cycles, best_cover.pair_flags):
        if not flag and len(cyc) < 4:
            raise SmcError("triangle-free route produced a short cycle")
    return best_cover

"""Minimum-weight 2-factor computation.

Each route takes only the instance and returns only cycles: a 2-vertex
cycle of an undirected cover is a pair 2-cycle, the doubled edge of a
size-2 terminal group, as ``core.CycleCover`` derives.  Three routes live
here:

* ``min_weight_2factor``: {1,2} minimum 2-factor from a maximum simple
  2-matching of the weight-1 graph H, the instance's ``one_masks`` (plus a
  second copy of each pair-group 1-edge), found by
  ``matching.max_simple_2matching`` (short augmenting paths on the masks,
  and Tutte's gadget only when they leave a vertex with an edge at degree
  < 2), with its paths chained by 2-edges;
* ``min_weight_directed_2factor``: directed minimum-weight 2-factor via an
  exact assignment between out-copies and in-copies whose diagonal holds
  a self-arc penalty no optimal assignment pays, by
  ``directed_2factor_cycles``, which also serves the representative
  sub-digraphs of the asymmetric loop;
* ``min_weight_triangle_free_2factor``: {1,2} minimum 2-factor with no
  3-cycle, from a maximum triangle-free simple 2-matching of H, found per
  connected component of the masks by a branch and bound whose every
  node is one ``max_simple_2matching`` call, under a node budget; it
  refuses size-2 groups, as its one pipeline (onetwo76) does.

Both {1,2} routes thus share one 2-matching core on the masks, and close
their 2-matching with one component/chain/repair step,
``_cycles_from_2matching``, whose docstring proves it exact.  Beside them,
``enumerate_optimal_2factors`` lists every {1,2} 2-factor of a route's
minimum weight for the adversarial tie-break, taking that weight from the
route's own cover and refusing any 2-factor that undercuts it.
"""

from __future__ import annotations

from functools import reduce
from operator import eq, itemgetter, or_
from typing import Callable, Sequence

from .core import (CycleCover, Instance, Weight, WeightClass, arcs_weight,
                   bits, cycle_cost, make_cover, successor_cycles)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import max_simple_2matching, min_cost_bipartite_perfect_matching

TRIANGLE_FREE_NODE_BUDGET = 10_000


def _walk_degree2(n: int, edges: Sequence[tuple[int, int]]
                  ) -> tuple[list[list[int]], list[list[int]]]:
    """Split a multigraph on vertices 0..n-1 of maximum degree 2 into its
    cycles and paths.

    ``edges`` may repeat an edge; its two copies form a 2-cycle.  Paths are
    walked from their smaller endpoint, an isolated vertex being a
    one-vertex path; cycles start at their smallest vertex and leave it by
    its first listed edge.  Both come out in order of their first vertex.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if any(len(a) > 2 for a in adj):
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

    paths = [walk(v) for v in range(n)
             if len(adj[v]) < 2 and not any(used[eid] for _, eid in adj[v])]
    cycles = [walk(v) for v in range(n) if adj[v] and not used[adj[v][0][1]]]
    return cycles, paths


def _cycles_from_2matching(inst: Instance, edges: Sequence[tuple[int, int]],
                           min_len: int,
                           pairs: frozenset[frozenset[int]] = frozenset()
                           ) -> list[list[int]] | None:
    """Cycles of a minimum {1,2} 2-factor built from a maximum 2-matching.

    ``edges`` is a maximum simple 2-matching of H+ on all vertices: H is the
    weight-1 graph and H+ adds a second copy of each weight-1 edge of an
    allowed pair group (``pairs``).  Cycles shorter than ``min_len`` are
    forbidden except those pair 2-cycles; a 2-vertex cycle in the result is
    a pair 2-cycle.  Returns None when the vertices admit no such 2-factor.

    Exactness (n vertices, e2 weight-2 edges).  A 2-factor F has n edges,
    a pair 2-cycle counting twice, and its 1-edges form a simple 2-matching
    of H+ with n - e2(F) edges, so w(F) = n + e2(F) >= 2n - |M| for a
    maximum 2-matching M.  At ``min_len`` 4, M is a maximum triangle-free
    2-matching and F's 1-edges form one too.  M splits into cycles, which
    are legal, and p paths (a lone vertex is a path), so |M| = n - p.
    Chaining the paths by p junction edges, all 2-edges as M is maximum,
    into one cycle costs at most |M| + 2p = 2n - |M|, which is optimal when
    the chain has >= min_len vertices or is exactly a pair group.  A
    shorter chain is spliced into a cycle of M between a vertex x and x's
    successor y, dropping the 1-edge xy, in an arrangement whose first
    vertex reaches x by a 1-edge (an escape) and whose own edges weigh no
    more than the chain's: again at most 2n - |M|.  The arrangements tried
    are the chain, its reverse and, for a chain a, b, c, the orders b-a-c
    and b-c-a.  When none has an escape, either no chain vertex has a
    1-edge leaving the chain, or the chain is a path a-b-c whose chord ac
    is a 2-edge and only b has one.  In the first case F has two or more
    edges leaving the chain's k vertices, all 2-edges, as the chain is too
    short for a cycle and not an allowed pair group; F's 1-edges inside the
    chain form p paths or more (fewer would enlarge M), so F has at most
    (k - p) + (n - k - 1) 1-edges and e2(F) >= p + 1.  In the second, a
    and c each have b as their only 1-neighbour, so each meets a 2-edge of
    F, and a single one would be ac, closing the triangle abc:
    e2(F) >= 2 = p + 1.  The splice into the first cycle, at most one
    above 2n - |M|, is then optimal.
    """
    cycles, paths = _walk_degree2(inst.n, edges)
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

    def inner(arr: list[int]) -> Weight:
        return arcs_weight(inst, zip(arr, arr[1:]))

    # the arrangement goes in between host vertex v and its successor, so
    # that the edge v-arr[0] is the escape
    arrangements = [chain, chain[::-1]]
    if len(chain) == 3:
        a, b, c = chain
        arrangements += [[b, a, c], [b, c, a]]
    own = inner(chain)
    masks = inst.one_masks
    for arr in arrangements:
        if inner(arr) > own:
            continue
        escapes = masks[arr[0]]
        for ci, host in enumerate(cycles):
            for pos, v in enumerate(host):
                if escapes >> v & 1:
                    return splice(ci, pos, arr)
    return splice(0, 0, chain)


def min_weight_2factor(inst: Instance) -> CycleCover:
    """{1,2} minimum 2-factor from a maximum simple 2-matching of H+.

    H is the weight-1 graph and H+ adds a second copy of the 1-edge of each
    size-2 group; taking both copies gives that group's pair 2-cycle.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("{1,2} 2-factors need one-two weights")
    masks = inst.one_masks
    pairs = inst.pair_groups()
    chosen = max_simple_2matching(
        masks, [(u, v) for u, v in pairs if masks[u] >> v & 1])
    cycles = _cycles_from_2matching(inst, chosen, 3,
                                    frozenset(map(frozenset, pairs)))
    if cycles is None:
        raise ValidationError("no 2-factor exists")
    return make_cover(cycles)


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
    ``order``, an ascending list of at least two distinct vertices, each
    from its lowest vertex, in order of that vertex.

    One assignment between out-copies and in-copies; a self-arc costs
    2*S + 1, S the sum of the non-negative off-diagonal weights, more than
    any assignment without one.  An ``order`` of all n vertices is
    range(n), so its cost rows are copies of the weight rows.
    """
    k = len(order)
    if k == inst.n:
        costs = list(map(list, inst.weights))
    else:
        pick = itemgetter(*order)
        costs = [list(pick(row)) for row in pick(inst.weights)]
    for i, row in enumerate(costs):
        row[i] = 0
    big = 2 * sum(map(sum, costs)) + 1
    for i, row in enumerate(costs):
        row[i] = big
    succ, _total = min_cost_bipartite_perfect_matching(costs)
    if any(map(eq, succ, range(k))):
        raise SmcError("directed 2-factor assigned a self-arc")
    return [tuple(map(order.__getitem__, cyc))
            for cyc in successor_cycles(succ)]


# ---------------------------------------------------------------------------
# triangle-free route


def _max_triangle_free_2matching(masks: Sequence[int], comp: int
                                 ) -> list[tuple[int, int]]:
    """Maximum simple 2-matching with no 3-cycle of the graph that the
    bitmasks ``masks`` induce on the vertex set ``comp``, a bitmask, as
    pairs (u, v) with u < v, ascending.

    Branch and bound over ``max_simple_2matching``: a node bans a set of
    edges and solves a maximum simple 2-matching of the rest.  A node no
    larger than the incumbent is pruned; one with no 3-cycle becomes the
    incumbent; any other gets three children, each banning one edge of its
    first 3-cycle.  Exact: every triangle-free 2-matching of a node misses
    some edge of that triangle, so it survives in one child, and a node's
    size bounds every 2-matching of its subtree.  More than
    ``TRIANGLE_FREE_NODE_BUDGET`` nodes raise BudgetExceededError: the
    problem is polynomial (Hartvigsen 1984), but this search grows as 3^t
    on a component whose maximum 2-matchings must each lose one edge of t
    triangles, such as t triangles hung from one hub vertex.
    """
    masks = [m & comp if comp >> v & 1 else 0 for v, m in enumerate(masks)]
    best: list[tuple[int, int]] = []
    stack: list[tuple[int, frozenset[tuple[int, int]]]] = [
        (sum(map(bool, masks)), frozenset())]
    nodes = 0
    while stack:
        bound, banned = stack.pop()
        if bound <= len(best):
            continue
        nodes += 1
        if nodes > TRIANGLE_FREE_NODE_BUDGET:
            raise BudgetExceededError(
                f"triangle-free 2-matching search exceeded "
                f"{TRIANGLE_FREE_NODE_BUDGET} nodes")
        kept = list(masks)
        for u, v in banned:
            kept[u] &= ~(1 << v)
            kept[v] &= ~(1 << u)
        chosen = max_simple_2matching(kept)
        if len(chosen) <= len(best):
            continue
        # as M has degrees <= 2, its edge ab is on a triangle exactly when a
        # and b share an M-neighbour; the first is on the lowest triangle
        near = [0] * len(masks)
        for u, v in chosen:
            near[u] |= 1 << v
            near[v] |= 1 << u
        triangle = next(((a, b, (near[a] & near[b]).bit_length() - 1)
                         for a, b in chosen if near[a] & near[b]), None)
        if triangle is None:
            best = chosen
            continue
        a, b, c = sorted(triangle)
        stack += [(len(chosen), banned | {e}) for e in ((a, b), (a, c), (b, c))]
    return best


def _mask_components(masks: Sequence[int]) -> list[int]:
    """Connected components, as bitmasks in order of their lowest vertex,
    of the graph of ``masks``: one breadth-first search that reads each
    vertex's mask once."""
    left = (1 << len(masks)) - 1
    comps = []
    while left:
        comp, reach = 0, left & -left
        while reach:
            comp |= reach
            left ^= reach
            reach = reduce(or_, map(masks.__getitem__, bits(reach))) & left
        comps.append(comp)
    return comps


def min_weight_triangle_free_2factor(inst: Instance) -> CycleCover:
    """Minimum-weight {1,2} 2-factor among those with no length-3 cycle.

    Size-2 groups are refused: the one pipeline on this route, onetwo76,
    needs every group to have at least 4 vertices.  A maximum triangle-free simple 2-matching of the weight-1
    graph H, the union of one per connected component of H from
    ``_max_triangle_free_2matching``, is closed by
    ``_cycles_from_2matching`` with cycles of length at least 4.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("{1,2} 2-factors need one-two weights")
    if inst.pair_groups():
        raise ValidationError("the triangle-free 2-factor takes no size-2 groups")
    masks = inst.one_masks
    matching = [e for comp in _mask_components(masks)
                for e in _max_triangle_free_2matching(masks, comp)]
    cycles = _cycles_from_2matching(inst, matching, 4)
    if cycles is None:
        raise ValidationError("no triangle-free 2-factor exists")
    if any(len(c) < 4 for c in cycles):
        raise SmcError("triangle-free route produced a short cycle")
    return make_cover(cycles)


# ---------------------------------------------------------------------------
# every optimal {1,2} 2-factor, for the adversarial tie-break


def _incident_bound(inst: Instance) -> Callable[[int], Weight]:
    """lb(mask): the sum of the least incident weight of each vertex in
    ``mask``, a lower bound on any cycles that cover exactly those
    vertices, since each cycle edge weighs at least that of its tail."""
    least = [min(min(inst.w(v, u), inst.w(u, v))
                 for u in range(inst.n) if u != v) for v in range(inst.n)]

    def lb(mask: int) -> Weight:
        total: Weight = 0
        while mask:
            low = mask & -mask
            total += least[low.bit_length() - 1]
            mask ^= low
        return total

    return lb


def enumerate_optimal_2factors(inst: Instance, triangle_free: bool = False
                               ) -> list[CycleCover]:
    """Every {1,2} 2-factor (with no 3-cycle if ``triangle_free``) of the
    minimum weight, desk scale: n <= 12 and at most 20,000 of them, with a
    pair 2-cycle allowed for each size-2 group.

    The minimum is the weight of the route's own cover, from
    ``min_weight_triangle_free_2factor`` or ``min_weight_2factor``; a
    completed 2-factor below it would prove the route wrong and raises
    SmcError.  Enumeration order is canonical (each cycle anchored at its
    smallest vertex, orientation fixed), so the result is deterministic
    and duplicate-free.
    """
    if inst.n > 12:
        raise BudgetExceededError("optimal 2-factor enumeration capped at n=12")
    route = (min_weight_triangle_free_2factor if triangle_free
             else min_weight_2factor)
    best = sum(cycle_cost(inst, cyc) for cyc in route(inst).cycles)
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    lb = _incident_bound(inst)
    out: list[CycleCover] = []

    def rec(uncov: int, acc: Weight, cycles: list[list[int]]):
        if uncov == 0:
            if acc < best:
                raise SmcError("a 2-factor undercuts the route's minimum")
            if acc == best:
                if len(out) >= 20000:
                    raise BudgetExceededError("too many optimal 2-factors")
                out.append(make_cover(cycles))
            return
        anchor = (uncov & -uncov).bit_length() - 1

        def grow(path: list[int], pmask: int, cost: Weight) -> None:
            rest = uncov & ~pmask
            # strict, so every optimal 2-factor is kept
            if acc + cost + lb(rest) > best:
                return
            last = path[-1]
            length = len(path)
            # a pair 2-cycle, or a longer cycle in one orientation
            closes = (frozenset(path) in pair_set if length == 2 else
                      length >= 3 and path[1] < last
                      and not (triangle_free and length == 3))
            if closes:
                rec(rest, acc + cost + inst.w(last, anchor), cycles + [path])
            k = rest
            while k:
                low = k & -k
                v = low.bit_length() - 1
                k ^= low
                grow(path + [v], pmask | low, cost + inst.w(last, v))

        grow([anchor], 1 << anchor, 0)

    rec((1 << inst.n) - 1, 0, [])
    return out

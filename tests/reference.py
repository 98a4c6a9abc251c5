"""Exact references that only the tests use.

Each one is an independent route to a quantity the library computes
another way, small enough to trust by reading: the multicycle optimum by
raw permutation enumeration, the minimum 2-factor by cycle enumeration and
by the degree-gadget reduction to weighted perfect matching, every optimal
{1,2} 2-factor by permutation enumeration, and the optimum of the derived
{0,2} survivable network design instance.  Like the library's oracles,
each states its own cap on n and raises ``BudgetExceededError`` above it.

The test modules import this file as ``reference``: pytest puts the tests
directory on ``sys.path``, and collects no tests from it, as its name does
not start with ``test_``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from smcycle.core import (CycleCover, Instance, Weight, make_cover,
                          successor_cycles)
from smcycle.errors import BudgetExceededError, ValidationError
from smcycle.matching import min_weight_perfect_matching
from smcycle.oracle import _group_partitions
from smcycle.twofactor import _incident_bound, _walk_degree2


# ---------------------------------------------------------------------------
# Steiner multicycle optimum


def brute_force_smc_permutation(inst: Instance) -> Weight:
    """Independent multicycle optimum via raw permutation enumeration (n <= 7)."""
    if inst.n > 7:
        raise BudgetExceededError("permutation oracle capped at n=7")
    directed = not inst.symmetric
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    group_of = inst.group_of

    def allowed(cyc: list[int]) -> bool:
        if len(cyc) == 1 or (len(cyc) == 2 and not directed
                             and frozenset(cyc) not in pair_set):
            return False
        members = set(cyc)
        return all(members.issuperset(inst.groups[group_of[v]]) for v in cyc)

    best: Weight | None = None
    for perm in permutations(range(inst.n)):
        cycles = successor_cycles(perm)
        if all(map(allowed, cycles)):
            cost = sum(inst.w(c[i - 1], c[i]) for c in cycles
                       for i in range(len(c)))
            if best is None or cost < best:
                best = cost
    if best is None:
        raise ValidationError("no feasible cover found by permutation oracle")
    return best


# ---------------------------------------------------------------------------
# minimum-weight 2-factor


def brute_force_2factor(inst: Instance, triangle_free: bool = False) -> Weight:
    """Exact minimum over all (triangle-free) 2-factors by cycle enumeration,
    up to n = 12 on a symmetric instance and n = 7 on a directed one.

    Directed on an asymmetric instance; on a symmetric one a pair 2-cycle
    is allowed for each size-2 group.
    """
    directed = not inst.symmetric
    cap = 7 if directed else 12
    if inst.n > cap:
        raise BudgetExceededError(f"2-factor oracle capped at n={cap}, got {inst.n}")
    n = inst.n
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    lb = _incident_bound(inst)
    best: list[Weight | None] = [None]

    def close_ok(length: int) -> bool:
        if directed:
            return length >= 2
        if length == 2:
            return False  # pair closure handled separately
        if triangle_free and length == 3:
            return False
        return length >= 3

    def rec(uncov: int, acc: Weight) -> None:
        if best[0] is not None and acc + lb(uncov) >= best[0]:
            return
        if uncov == 0:
            best[0] = acc
            return
        anchor = (uncov & -uncov).bit_length() - 1

        def grow(path: list[int], pmask: int, cost: Weight) -> None:
            rest = uncov & ~pmask
            if best[0] is not None and acc + cost + lb(rest) >= best[0]:
                return
            last = path[-1]
            length = len(path)
            if length == 2 and not directed and frozenset(path) in pair_set:
                rec(rest, acc + cost + inst.w(last, anchor))
            if close_ok(length) and (directed or length == 2 or path[1] < last):
                rec(rest, acc + cost + inst.w(last, anchor))
            k = rest
            while k:
                low = k & -k
                v = low.bit_length() - 1
                k ^= low
                grow(path + [v], pmask | low, cost + inst.w(last, v))

        grow([anchor], 1 << anchor, 0)

    rec((1 << n) - 1, 0)
    if best[0] is None:
        raise ValidationError("no 2-factor under the requested constraints")
    return best[0]


def gadget_2factor(inst: Instance) -> CycleCover:
    """Minimum-weight undirected 2-factor by reduction to perfect matching.

    The polynomial reference for the {1,2} route of
    ``twofactor.min_weight_2factor`` above the enumeration caps; it takes
    any symmetric weights.

    Gadget: two core nodes per vertex; per edge e=uv two nodes e_u, e_v with
    a weight-0 link between them and weight w(e) links to the cores of u and
    v.  A perfect matching selects e exactly when e_u and e_v are both
    matched to cores, paying 2 w(e), so the minimum matching selects a
    minimum 2-factor.  Duplicated pair edges enter as two parallel gadgets;
    selecting both realizes the pair 2-cycle.
    """
    if not inst.symmetric:
        raise ValidationError("the 2-factor gadget handles symmetric instances")
    edges = [(i, j, inst.w(i, j))
             for i in range(inst.n) for j in range(i + 1, inst.n)]
    edges += [(u, v, inst.w(u, v)) for u, v in inst.pair_groups()]
    gadget = []
    for k, (u, v, w) in enumerate(edges):
        gadget.append((("e", k, 0), ("e", k, 1), 0))
        for t in (0, 1):
            gadget.append((("e", k, 0), ("c", u, t), w))
            gadget.append((("e", k, 1), ("c", v, t), w))
    mate = min_weight_perfect_matching(gadget)

    matched_to_core = set()
    for a, b in mate:
        for x, y in ((a, b), (b, a)):
            if x[0] == "e" and y[0] == "c":
                matched_to_core.add((x[1], x[2]))
    for k in range(len(edges)):
        if ((k, 0) in matched_to_core) != ((k, 1) in matched_to_core):
            raise ValidationError("gadget matching selected half an edge")
    chosen = [(edges[k][0], edges[k][1]) for k in range(len(edges))
              if (k, 0) in matched_to_core]
    cycles, paths = _walk_degree2(inst.n, chosen)
    if paths:
        raise ValidationError("selected edges are not a 2-factor")
    return make_cover(cycles)


@lru_cache(maxsize=None)
def _canonical_cycle_sets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every set of vertex-disjoint cycles of length >= 2 covering 0..n-1,
    each set once: the permutations whose cycles, each read from its lowest
    vertex, have a second vertex below their last (one orientation per
    cycle of length >= 3; a 2-cycle has only one)."""
    out = []
    for perm in permutations(range(n)):
        cycles = successor_cycles(perm)
        if all(len(c) == 2 or len(c) >= 3 and c[1] < c[-1] for c in cycles):
            out.append(tuple(map(tuple, cycles)))
    return tuple(out)


def optimal_2factors_by_permutation(inst: Instance, triangle_free: bool = False
                                    ) -> list[tuple[tuple[int, ...], ...]]:
    """The cycles of every minimum-weight undirected 2-factor, up to n = 8,
    each cycle set once, as ``make_cover`` would hold them: each cycle from
    its lowest vertex, cycles in order of that vertex.

    A 2-cycle is allowed only on a size-2 group (the pair 2-cycle, which
    weighs twice its edge), and with ``triangle_free`` no 3-cycle is.
    """
    if inst.n > 8:
        raise BudgetExceededError(
            f"permutation 2-factor lister capped at n=8, got {inst.n}")
    pairs = {frozenset(p) for p in inst.pair_groups()}
    best: Weight | None = None
    found: list[tuple[tuple[int, ...], ...]] = []
    for cycles in _canonical_cycle_sets(inst.n):
        if any(len(c) == 2 and frozenset(c) not in pairs
               or triangle_free and len(c) == 3 for c in cycles):
            continue
        weight = sum(inst.w(c[i - 1], c[i]) for c in cycles
                     for i in range(len(c)))
        if best is None or weight < best:
            best, found = weight, []
        if weight == best:
            found.append(cycles)
    return found


# ---------------------------------------------------------------------------
# survivable network design optimum


def _min_2ecss(inst: Instance, verts: tuple[int, ...]) -> Weight:
    """Cheapest 2-edge-connected spanning sub-multigraph (multiplicity <= 2)."""
    s = len(verts)
    if s == 2:
        return 2 * inst.w(verts[0], verts[1])
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted(((inst.w(u, v), index[u], index[v])
                    for i, u in enumerate(verts) for v in verts[i + 1:]))
    m = len(edges)

    # doubled minimum spanning tree as the initial upper bound
    in_tree = [False] * s
    in_tree[0] = True
    ub: Weight = 0
    for _ in range(s - 1):
        cand = min((w, a, b) for (w, a, b) in edges
                   if in_tree[a] != in_tree[b])
        ub += 2 * cand[0]
        in_tree[cand[1]] = in_tree[cand[2]] = True
    best: list[Weight] = [ub]

    suffix_min_at = [[None] * (m + 1) for _ in range(s)]
    for i in range(m - 1, -1, -1):
        w, a, b = edges[i]
        for x in range(s):
            nxt = suffix_min_at[x][i + 1]
            here = w if x in (a, b) else None
            suffix_min_at[x][i] = here if nxt is None or (
                here is not None and here < nxt) else nxt

    def feasible(mult: list[int]) -> bool:
        # every proper cut must be crossed by >= 2 edge copies
        for wmask in range(1, 1 << (s - 1)):
            crossing = 0
            for k in range(m):
                if not mult[k]:
                    continue
                _, a, b = edges[k]
                ina = wmask >> a & 1 if a < s - 1 else 0
                inb = wmask >> b & 1 if b < s - 1 else 0
                if ina != inb:
                    crossing += mult[k]
                    if crossing >= 2:
                        break
            if crossing < 2:
                return False
        return True

    mult = [0] * m
    deg = [0] * s

    def lower(acc2: Weight, idx: int) -> Weight:
        # twice the admissible completion bound, to stay in integers
        extra: Weight = 0
        for x in range(s):
            need = 2 - deg[x]
            if need > 0:
                cheap = suffix_min_at[x][idx]
                if cheap is None:
                    return None  # cannot finish degrees: dead branch
                extra += need * cheap
        return acc2 + extra

    def rec(idx: int, acc: Weight) -> None:
        if acc >= best[0]:
            return
        if all(d >= 2 for d in deg) and feasible(mult):
            best[0] = acc
            return
        if idx == m:
            return
        low = lower(2 * acc, idx)
        if low is None or low >= 2 * best[0]:
            return
        w, a, b = edges[idx]
        for choice in (1, 2, 0):
            mult[idx] = choice
            deg[a] += choice
            deg[b] += choice
            rec(idx + 1, acc + choice * w)
            deg[a] -= choice
            deg[b] -= choice
            mult[idx] = 0

    rec(0, 0)
    return best[0]


def brute_force_snd(inst: Instance) -> Weight:
    """Exact optimum for the derived {0,2} survivable network design
    instance, up to n = 7.

    Deleting bridges from any feasible solution keeps it feasible, so the
    optimum decomposes over clusterings of the terminal groups with one
    2-edge-connected sub-multigraph per cluster.
    """
    if inst.n > 7:
        raise BudgetExceededError("snd oracle capped at n=7")
    if not inst.symmetric:
        raise ValidationError("snd oracle handles symmetric instances only")
    cache: dict[tuple[int, ...], Weight] = {}

    def cluster_cost(groups_idx: tuple[int, ...]) -> Weight:
        verts = tuple(sorted(v for gi in groups_idx for v in inst.groups[gi]))
        if verts not in cache:
            cache[verts] = _min_2ecss(inst, verts)
        return cache[verts]

    best: Weight | None = None
    for partition in _group_partitions(len(inst.groups)):
        total: Weight = 0
        for cluster in partition:
            total += cluster_cost(tuple(sorted(cluster)))
        if best is None or total < best:
            best = total
    return best

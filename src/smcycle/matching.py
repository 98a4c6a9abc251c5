"""Matching primitives shared by every solver pipeline.

This is the only module that imports networkx, and only
``min_weight_perfect_matching`` (the metric T-join and the probe) calls
it, importing it on first use: its weighted blossom works symbolically and
therefore stays exact on int and Fraction weights.  The rest is implemented
here directly: the maximum simple 2-matching of a graph given as one
bitmask per vertex plus second copies of some pairs (a greedy path forest
and short augmenting paths on the masks, which close every vertex on dense
inputs, and otherwise Tutte's degree gadget, the only place that lists the
edges, warm-started by their matching), the int-indexed Edmonds
cardinality blossom ``_augment_matching``, which grows that gadget
matching, the {1,2} pipeline's attachment matching and
``max_cardinality_matching`` (under ``minimal_edge_cover`` in the
asymmetric loop), the bipartite assignment solver on a dense matrix,
whose one caller, the directed 2-factor, writes its own self-arc penalty
on the diagonal, and the minimal edge cover.

All functions are pure and deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import compress, repeat
from math import inf
from operator import ge, or_
from typing import Hashable, Iterable, Sequence

from .core import bits, find
from .errors import ValidationError

Edge = tuple[Hashable, Hashable]
WeightedEdge = tuple[Hashable, Hashable, int | Fraction]


def _canonical_pairs(pairs: Iterable[Edge]) -> set[Edge]:
    out = set()
    for u, v in pairs:
        out.add((u, v) if repr(u) <= repr(v) else (v, u))
    return out


def min_weight_perfect_matching(edges: Sequence[WeightedEdge],
                                vertices: Iterable[Hashable] | None = None
                                ) -> set[Edge]:
    """Minimum-weight perfect matching on a general simple graph.

    ``vertices`` may list isolated or extra vertices that must be covered;
    by default the vertex set is the union of edge endpoints.  Raises
    ValidationError when the vertex count is odd or no perfect matching
    exists.
    """
    vs = set(vertices) if vertices is not None else set()
    for u, v, _ in edges:
        if u == v:
            raise ValidationError("self-loop in matching input")
        vs.add(u)
        vs.add(v)
    if len(vs) % 2 != 0:
        raise ValidationError("odd vertex count: no perfect matching")
    if not vs:
        return set()

    # imported on first use: networkx is most of the package's import time
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(vs, key=repr))
    for u, v, w in edges:
        if g.has_edge(u, v):
            raise ValidationError(f"parallel edge {u!r}-{v!r} in matching input")
        g.add_edge(u, v, weight=-w)
    mate = nx.max_weight_matching(g, maxcardinality=True, weight="weight")
    if 2 * len(mate) != len(vs):
        raise ValidationError("no perfect matching exists")
    return _canonical_pairs(mate)


def max_cardinality_matching(edges: Sequence[WeightedEdge | Edge]) -> set[Edge]:
    """Maximum-cardinality matching on a general graph.

    Parallel copies of an edge count as one edge, and a weight, if given,
    is ignored.  The vertices are numbered in order of first appearance and
    :func:`_augment_matching` grows an empty matching over that numbering.
    """
    index: dict[Hashable, int] = {}
    pairs = []
    for e in edges:
        u, v = e[0], e[1]
        if u == v:
            raise ValidationError("self-loop in matching input")
        pairs.append((index.setdefault(u, len(index)),
                      index.setdefault(v, len(index))))
    adj: list[list[int]] = [[] for _ in index]
    for a, b in pairs:
        if b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    mate = [-1] * len(adj)
    _augment_matching(adj, mate)
    names = list(index)
    return _canonical_pairs((names[x], names[m])
                            for x, m in enumerate(mate) if m > x)


_EVEN, _ODD = 1, 2


def _augment_matching(adj: Sequence[Sequence[int]], mate: list[int]) -> None:
    """Grow ``mate`` into a maximum-cardinality matching, in place.

    Edmonds' blossom algorithm on a simple graph with nodes 0..N-1:
    ``adj[x]`` lists the neighbours of x and ``mate[x]`` is x's partner or
    -1.  Each exposed node, in index order, roots one breadth-first search
    for an augmenting path.  A blossom is contracted by pointing the
    union-find ``base`` of its members at its base; ``link`` records, for an
    odd node, the even node that reached it and, for an even node inside a
    blossom, the next node of an augmenting route around the blossom.  Every
    array is reset over the nodes the search labelled, so a search costs
    what it touches, not N.  A search that finds no augmenting path leaves
    a Hungarian tree whose nodes no later augmenting path can use (Edmonds
    1965), so they are dropped from every later search.
    """
    size = len(adj)
    label = [0] * size
    link = [-1] * size
    base = list(range(size))
    stamp = [0] * size
    dead = [False] * size
    clock = 0
    queue: list[int] = []
    odd: list[int] = []

    def lca(a: int, b: int) -> int:
        # walk both ends up the tree in turn; the first base seen twice
        nonlocal clock
        clock += 1
        a, b = find(base, a), find(base, b)
        while True:
            if a != -1:
                if stamp[a] == clock:
                    return a
                stamp[a] = clock
                a = -1 if mate[a] == -1 else find(base, link[mate[a]])
            a, b = b, a

    def trace(v: int, b: int, child: int, members: list[int]) -> None:
        # route the path from v up to base b through the cross edge
        while find(base, v) != b:
            m = mate[v]
            link[v] = child
            members.append(v)
            members.append(m)
            child = m
            v = link[m]

    for root in range(size):
        if mate[root] != -1 or dead[root]:
            continue
        label[root] = _EVEN
        queue.append(root)
        found = False
        head = 0
        while head < len(queue) and not found:
            v = queue[head]
            head += 1
            for u in adj[v]:
                lu = label[u]
                if lu == 0:
                    if dead[u]:
                        continue
                    link[u] = v
                    odd.append(u)
                    if mate[u] == -1:
                        while u != -1:
                            w = link[u]
                            nxt = mate[w]
                            mate[u] = w
                            mate[w] = u
                            u = nxt
                        found = True
                        break
                    label[u] = _ODD
                    label[mate[u]] = _EVEN
                    queue.append(mate[u])
                elif lu == _EVEN:
                    b = find(base, v)
                    if b == find(base, u):
                        continue
                    b = lca(v, u)
                    members: list[int] = []
                    trace(v, b, u, members)
                    trace(u, b, v, members)
                    for x in members:
                        r = find(base, x)
                        if r != b:
                            base[r] = b
                        if label[x] == _ODD:
                            label[x] = _EVEN
                            queue.append(x)
        for group in (queue, odd):
            for x in group:
                label[x] = 0
                link[x] = -1
                base[x] = x
                if not found:
                    dead[x] = True
            group.clear()


def max_simple_2matching(masks: Sequence[int],
                         extra: Sequence[tuple[int, int]] = ()
                         ) -> list[tuple[int, int]]:
    """A maximum simple 2-matching of a multigraph given as bitmasks.

    Bit v of ``masks[u]`` marks the edge uv, and bit u of ``masks[v]`` too;
    each pair of ``extra``, an edge of ``masks``, has a second, parallel
    copy.  A simple 2-matching M is a set of edge copies meeting every
    vertex at most twice, and taking both copies of a pair gives a 2-cycle.
    M comes back as pairs (u, v) with u < v, in the order of the edge list
    that holds each pair once, ascending, and then the second copies of
    ``extra``.  M is grown on the vertex pairs, each with its number of
    copies, in three stages, each from the matching of the one before:

    * a greedy path forest: for each vertex u in turn, the pairs uv with
      v > u in order of v, taken while u and v have degree < 2 and uv
      joins two different paths;
    * short augmenting paths, while some vertex e with an edge has degree
      < 2: take an unused copy e-f to another short vertex f (length 1), or
      else an alternating path e-x, x-y in M, y-f with unused copies of e-x
      and y-f, x saturated and f short, adding e-x and y-f and dropping x-y
      (length 3).  f = e only when e has degree 0.  Each step adds one
      edge and leaves every degree at most 2: f != x, as x is saturated
      and f is not, and y != e, as e has no unused copy to a short vertex
      once length 1 has failed.  The probes are ANDs of the bitmask of the
      pairs at a vertex that have an unused copy with the bitmask of the
      short vertices, all taken before x-y is dropped.  A vertex where
      neither step applies is passed over until a later step changes M;
    * unless every vertex with an edge now has degree 2, Tutte's gadget on
      that edge list: two core nodes per vertex, two nodes x_k, y_k per
      edge k = uv joined to each other and to both cores of u and v
      respectively.  A gadget matching has |E| + (number of edges whose x_k
      and y_k are both matched to cores) edges, so a maximum one selects a
      maximum 2-matching.  The edges of M start matched to the cores of
      their incidence slots, a pair taken once by its first copy, the rest
      to their twin, leaving exposed only the free cores, and
      ``_augment_matching`` grows that matching.

    Exactness: only the k vertices with an edge can meet M, and their
    degrees sum to 2|M| <= 2k, so an M that gives each of them degree 2
    has |M| = k and is maximum.  Any other M only warm-starts the blossom
    search, which reaches a maximum gadget matching from any start.
    """
    n = len(masks)
    bit = [1 << v for v in range(n)]
    free = list(masks)  # bit w of free[v]: the pair vw has an unused copy
    extra = [(u, v) if u < v else (v, u) for u, v in extra]
    copies = dict.fromkeys(extra, 2)  # pairs with a parallel copy

    degree = [0] * n
    ends: list[list[int]] = [[] for _ in range(n)]  # M-neighbours, repeated
    short = reduce(or_, masks, 0)  # the vertices with an edge, degree < 2

    def take(u: int, v: int) -> None:
        nonlocal short
        for a, b in ((u, v), (v, u)):
            ends[a].append(b)
            degree[a] += 1
            if degree[a] == 2:
                short ^= bit[a]
        if ends[u].count(v) == copies.get((u, v) if u < v else (v, u), 1):
            free[u] ^= bit[v]
            free[v] ^= bit[u]

    def drop(x: int, y: int) -> None:
        nonlocal short
        if ends[x].count(y) == copies.get((x, y) if x < y else (y, x), 1):
            free[x] |= bit[y]
            free[y] |= bit[x]
        for a, b in ((x, y), (y, x)):
            ends[a].remove(b)
            if degree[a] == 2:
                short ^= bit[a]
            degree[a] -= 1

    def step(e: int) -> bool:
        reach = free[e] & short
        if reach:
            take(e, (reach & -reach).bit_length() - 1)
            return True
        via = free[e] & ~short
        while via:
            x = (via & -via).bit_length() - 1
            via ^= bit[x]
            for y in ends[x]:
                reach = free[y] & short
                if degree[e]:
                    reach &= ~bit[e]
                if reach:
                    drop(x, y)
                    take(e, x)
                    take(y, (reach & -reach).bit_length() - 1)
                    return True
        return False

    other_end = list(range(n))  # each path endpoint names the other one
    for u in range(n):
        later = free[u] & short >> (u + 1) << (u + 1)
        while later and degree[u] < 2:
            v = (later & -later).bit_length() - 1
            later ^= bit[v]
            if other_end[u] != v:
                a, b = other_end[u], other_end[v]
                other_end[a] = b
                other_end[b] = a
                take(u, v)

    grown = True
    while short and grown:
        grown = False
        pending = short
        while pending:
            e = (pending & -pending).bit_length() - 1
            pending ^= bit[e]
            while degree[e] < 2 and step(e):
                grown = True

    # each pair of M once, ascending, then the pairs it takes twice
    once = [(u, v) for u in range(n) for v in sorted(set(ends[u])) if u < v]
    twice = [i for i, (u, v) in enumerate(extra) if ends[u].count(v) == 2]
    if not short:
        return once + [extra[i] for i in twice]

    edges = [(u, v) for u in range(n) for v in bits(masks[u]) if u < v]
    index = {e: k for k, e in enumerate(edges)}
    taken = [index[e] for e in once] + [len(edges) + i for i in twice]
    edges += extra
    cores = 2 * n
    adj: list[list[int]] = [[] for _ in range(cores)]
    mate = [-1] * cores
    for k, (u, v) in enumerate(edges):
        x = cores + 2 * k
        adj.append([x + 1, 2 * u, 2 * u + 1])
        adj.append([x, 2 * v, 2 * v + 1])
        adj[2 * u].append(x)
        adj[2 * u + 1].append(x)
        adj[2 * v].append(x + 1)
        adj[2 * v + 1].append(x + 1)
        mate.append(x + 1)
        mate.append(x)
    slot = [0] * n
    for k in taken:
        for node, v in enumerate(edges[k], cores + 2 * k):
            core = 2 * v + slot[v]
            slot[v] += 1
            mate[node] = core
            mate[core] = node
    _augment_matching(adj, mate)
    return [e for k, e in enumerate(edges)
            if 0 <= mate[cores + 2 * k] < cores
            and 0 <= mate[cores + 2 * k + 1] < cores]


def min_cost_bipartite_perfect_matching(costs: Sequence[Sequence[int | Fraction]]
                                        ) -> tuple[list[int], int | Fraction]:
    """Exact assignment: returns (col-of-row list, total cost).

    ``costs[i][j]`` is the cost of assigning row i to column j; every cell
    is allowed, so a caller prices out what it forbids.  The matrix must be
    square.  Implemented as the O(n^3) potential-based Hungarian algorithm
    (the e-maxx form of Kuhn-Munkres) over exact arithmetic.  Row i joins
    in phase i, a Dijkstra search from a virtual root column (index n
    here) over reduced costs.

    The potentials are lazy: a phase keeps each column's distance as an
    absolute value (reduced cost plus the distance of the column it was
    reached from) instead of subtracting every step's delta from all
    columns, and settles u and v once at the end, over the columns it
    used.  Each column then gets the same potentials as with the eager
    update, and every comparison sees the same difference, so the
    tie-breaks are those of the eager form: the search takes the least
    column with the least distance, and a column's ``way`` changes only on
    a strict improvement.  Two facts follow from the settling:

    (a) v <= 0 always: a phase lowers the v of each column it settled by
        the phase's final distance R minus that column's distance, which
        is not negative, since the search settles columns in order of
        distance and ends at R.
    (b) A column nobody is assigned to has v = 0: only settled columns
        change v, a settled column is assigned, and an assigned column
        stays assigned.

    Quick phase.  Let j be the least column holding the least cost of row
    i.  If j is free, v[j] = 0 by (b), so j's distance is costs[i][j],
    and by (a) no column's distance is below its raw cost: j is the
    search's first pick, and it is assigned with no search state.

    Bounded search.  ``ub``, the least distance over the free columns,
    starts as the least raw cost over them (b) and falls whenever a free
    column's distance does, so it bounds R from above.  Scanning the row
    of a settled column at distance ``reach`` gives column j the distance
    ``costs[i0][j] - v[j] + off``, with ``off = reach - u[i0]``; as -v[j] >= 0
    (a), a column whose raw cost exceeds ``ub - off`` would get a distance
    above ub >= R.  The search only settles columns at distance at most R,
    so such a column is never settled, never ties at a minimum, and the
    scan that would have reached it can only set a distance that a later
    improvement replaces, together with its ``way``.  Each scan therefore
    visits only the columns that pass that one C-level filter.

    Heap order.  The reached columns wait in a heap of (distance, column)
    pairs, a stale pair skipped when it is popped: the pop order is the
    least column with the least distance, as in the eager form.  A settled
    column is never reached again: the reduced costs of the assigned rows
    are non-negative, so a scan from ``reach`` gives no distance below the
    distances already settled.
    """
    n = len(costs)
    if any(len(row) != n for row in costs):
        raise ValidationError("cost matrix must be square")

    u = [0] * n            # row potentials
    v = [0] * n            # column potentials, all <= 0 (a)
    row_of = [-1] * (n + 1)  # column n is the virtual root
    way = [n] * n          # set for each column a search reaches
    free = list(range(n))  # the columns nobody is assigned to, v = 0 (b)
    cols = range(n)
    for i in range(n):
        row = costs[i]
        reach = min(row)
        j1 = row.index(reach)
        if row_of[j1] < 0:
            u[i] = reach
            row_of[j1] = i
            free.remove(j1)
            continue
        row_of[n] = i
        ub = min(map(row.__getitem__, free))
        dist = [inf] * n   # inf: not reached; never added to
        heap: list[tuple[int | Fraction, int]] = []
        # settled columns with their distances
        tree: list[tuple[int, int | Fraction]] = []
        # the first scan is from the root at distance 0, whose row is i,
        # with u[i] = 0
        i0, j1, off = i, n, 0
        while True:
            r = costs[i0]
            for j in compress(cols, map(ge, repeat(ub - off, n), r)):
                cur = r[j] - v[j] + off
                if cur < dist[j]:
                    dist[j] = cur
                    way[j] = j1
                    heappush(heap, (cur, j))
                    if cur < ub and row_of[j] < 0:
                        ub = cur
            reach, j1 = heappop(heap)
            while reach != dist[j1]:
                reach, j1 = heappop(heap)
            i0 = row_of[j1]
            if i0 < 0:
                break
            tree.append((j1, reach))
            off = reach - u[i0]
        u[i] = reach           # the root's distance is 0
        for j, dj in tree:
            d = reach - dj
            u[row_of[j]] += d
            v[j] -= d
        free.remove(j1)
        while j1 != n:
            j0 = way[j1]
            row_of[j1] = row_of[j0]
            j1 = j0

    col_of_row = [0] * n
    for j in range(n):
        col_of_row[row_of[j]] = j
    return col_of_row, sum(row[j] for row, j in zip(costs, col_of_row))


def minimal_edge_cover(edges: Sequence[WeightedEdge | Edge],
                       vertices: Iterable[Hashable] | None = None) -> set[Edge]:
    """Inclusion-minimal edge cover of minimum size n - max_matching.

    Extends a maximum matching with one edge per exposed vertex.  Raises
    ValidationError when some vertex is isolated.
    """
    vs = set(vertices) if vertices is not None else set()
    adj: dict[Hashable, list[Hashable]] = {}
    for e in edges:
        u, v = e[0], e[1]
        vs.add(u)
        vs.add(v)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for x in vs:
        if x not in adj:
            raise ValidationError(f"vertex {x!r} is isolated: no edge cover")

    mate = max_cardinality_matching(edges)
    covered = set()
    for u, v in mate:
        covered.add(u)
        covered.add(v)
    cover = set(mate)
    for x in sorted(vs - covered, key=repr):
        # any neighbor of an exposed vertex is matched (else the matching
        # would not be maximum), so this never grows a component of 3 edges
        y = min(adj[x], key=repr)
        cover.add((x, y) if repr(x) <= repr(y) else (y, x))
    # |cover| = n - |mate|, the least size of an edge cover, so no edge can
    # be dropped: the cover is inclusion-minimal with no pruning
    return cover

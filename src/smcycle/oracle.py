"""Desk-scale exact solvers used as ground truth by the test suites.

Caps are hard errors, never silent truncation: every enumerating solver
states its own cap on n and raises ``BudgetExceededError`` above it.  Only
the multicycle optimum's cap can be set, per call, and never above the
``SMC_TABLE_MAX_N`` ceiling that bounds its tables' memory.  Two
independent routes exist for the multicycle optimum (group clustering
priced by Held-Karp, and raw permutation enumeration) so the oracles can
cross-check each other.  The clustering route builds one Held-Karp table
per terminal group, shared by every cluster whose first group it is.  The
minimum 2-factor has an enumeration and, for sizes beyond its cap, the
polynomial degree-gadget reduction to weighted perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import add
from random import Random
from typing import Callable

from .core import (CycleCover, Instance, Weight, find, generate_instance,
                   make_cover, successor_cycles, validate_solution)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import min_weight_perfect_matching
from .twofactor import _walk_degree2


# brute_force_smc refuses larger n whatever its max_n: its largest Held-Karp
# table holds 2^(n-1) rows
SMC_TABLE_MAX_N = 16


# ---------------------------------------------------------------------------
# Steiner multicycle optimum


def _group_partitions(k: int):
    """All partitions of range(k) into nonempty clusters."""
    if k == 0:
        yield []
        return
    for rest in _group_partitions(k - 1):
        v = k - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [v]] + rest[i + 1:]
        yield rest + [[v]]


def _path_table(inst: Instance, verts: list[int], bits: list[list[int]]
                ) -> list[list[Weight]]:
    """Held-Karp over ``verts``, bit t of a mask standing for ``verts[t + 1]``.

    ``dp[mask][i]`` is the cheapest path that starts at ``verts[0]``, visits
    exactly the vertices of ``mask`` and ends at the vertex of bit
    ``bits[mask][i]``; ``bits[mask]`` lists the set bits of ``mask`` in
    increasing order.
    """
    start, others = verts[0], verts[1:]
    weights = inst.weights
    # into[j](i): weight of the arc from others[i] into others[j]
    into = [[weights[u][v] for u in others].__getitem__ for v in others]
    first = weights[start]
    dp: list[list[Weight]] = [[]]
    for t, v in enumerate(others):
        dp.append([first[v]])
        # the masks with top bit t are the masks below 2^t, plus t
        for mask in range((1 << t) + 1, 2 << t):
            row = []
            for j in bits[mask]:
                prev = mask ^ (1 << j)
                row.append(min(map(add, dp[prev], map(into[j], bits[prev]))))
            dp.append(row)
    return dp


def _walk_back(inst: Instance, verts: list[int], bits: list[list[int]],
               dp: list[list[Weight]], mask: int, at: int) -> list[int]:
    """The cycle from ``verts[0]`` along the path of ``dp[mask][at]``; each
    predecessor is the entry that sums to the current one."""
    weights = inst.weights
    path = []
    while True:
        j = bits[mask][at]
        v = verts[j + 1]
        path.append(v)
        prev = mask ^ (1 << j)
        if not prev:
            break
        cost = dp[mask][at]
        at = next(i for i, t in enumerate(bits[prev])
                  if dp[prev][i] + weights[verts[t + 1]][v] == cost)
        mask = prev
    path.append(verts[0])
    path.reverse()
    return path


def brute_force_smc(inst: Instance, max_n: int | None = None
                    ) -> tuple[Weight, CycleCover]:
    """Exact multicycle optimum.

    Every feasible cover's cycles are unions of whole terminal groups, so
    the optimum is the best way to cluster groups, with one cheapest cycle
    per cluster.  A cluster's cycle can start at the first vertex of its
    first group, so one Held-Karp table per group, from that vertex over
    that group and every later one, prices every cluster that the group
    starts with a read-off; the optimum's cycles are walked back through
    the tables.  The cap on n is ``max_n``, by default 12 on a symmetric
    instance and 8 on a directed one; the first table has 2^(n-1) rows, so
    no ``max_n`` lets n exceed ``SMC_TABLE_MAX_N``.
    """
    directed = not inst.symmetric
    if max_n is None:
        max_n = 8 if directed else 12
    cap = min(max_n, SMC_TABLE_MAX_N)
    if inst.n > cap:
        raise BudgetExceededError(f"smc oracle capped at n={cap}, got {inst.n}")

    # group gi holds the positions off[gi] .. off[gi + 1] - 1 of flat, and its
    # table runs over flat[off[gi]:]
    flat = [v for g in inst.groups for v in g]
    off = [0]
    for g in inst.groups:
        off.append(off[-1] + len(g))
    span = [(1 << b) - (1 << a) for a, b in zip(off, off[1:])]
    bits: list[list[int]] = [[]]
    for t in range(inst.n - 1):
        bits += [b + [t] for b in bits]
    tables = [_path_table(inst, flat[a:], bits) for a in off[:-1]]

    def close(cluster: tuple[int, ...]) -> tuple[Weight, int, int]:
        """Cost, mask and last-vertex entry of the cluster's cheapest cycle."""
        a = off[cluster[0]]
        mask = sum(span[c] for c in cluster) >> (a + 1)
        weights = inst.weights
        costs = [cost + weights[flat[a + 1 + t]][flat[a]]
                 for cost, t in zip(tables[cluster[0]][mask], bits[mask])]
        best = min(costs)
        return best, mask, costs.index(best)

    closed: dict[tuple[int, ...], tuple[Weight, int, int]] = {}
    best_cost: Weight | None = None
    best_clusters: list[tuple[int, ...]] = []
    for partition in _group_partitions(len(inst.groups)):
        clusters = [tuple(c) for c in partition]
        total: Weight = 0
        for cluster in clusters:
            if cluster not in closed:
                closed[cluster] = close(cluster)
            total += closed[cluster][0]
        if best_cost is None or total < best_cost:
            best_cost = total
            best_clusters = clusters
    best_cycles = [_walk_back(inst, flat[off[c[0]]:], bits, tables[c[0]],
                              *closed[c][1:]) for c in best_clusters]
    cover = make_cover(best_cycles, directed=directed)
    report = validate_solution(inst, cover)
    if not report.feasible:
        raise ValidationError(f"oracle produced infeasible cover: {report.violations}")
    if report.cost != best_cost:
        raise SmcError("oracle cover cost differs from its enumerated optimum")
    return best_cost, cover


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
# minimum-weight 2-factor (all variants)


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


def enumerate_optimal_2factors(inst: Instance, triangle_free: bool = False
                               ) -> list[CycleCover]:
    """Every undirected 2-factor attaining the minimum weight (desk scale:
    n <= 12 and at most 20,000 of them), with a pair 2-cycle allowed for
    each size-2 group.

    Supports the adversarial tie-break searches; enumeration order is
    canonical (each cycle anchored at its smallest vertex, orientation
    fixed), so the result is deterministic and duplicate-free.
    """
    if inst.n > 12:
        raise BudgetExceededError("optimal 2-factor enumeration capped at n=12")
    if not inst.symmetric:
        raise ValidationError("2-factor enumeration handles symmetric instances")
    best = brute_force_2factor(inst, triangle_free=triangle_free)
    n = inst.n
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    lb = _incident_bound(inst)
    out: list[CycleCover] = []

    def rec(uncov: int, acc: Weight, cycles: list[list[int]]):
        if uncov == 0:
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

    rec((1 << n) - 1, 0, [])
    return out


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


# ---------------------------------------------------------------------------
# Steiner forest optimum and its primal-dual 2-approximation


def _mst_cost(inst: Instance, verts: tuple[int, ...]) -> tuple[Weight, list[tuple[int, int]]]:
    s = len(verts)
    in_tree = {verts[0]}
    cost: Weight = 0
    tree: list[tuple[int, int]] = []
    while len(in_tree) < s:
        w, u, v = min((inst.w(u, v), u, v)
                      for u in in_tree for v in verts if v not in in_tree)
        cost += w
        tree.append((u, v))
        in_tree.add(v)
    return cost, tree


def brute_force_steiner_forest(inst: Instance
                               ) -> tuple[Weight, set[tuple[int, int]]]:
    """Exact Steiner forest optimum (components are unions of groups), up
    to n = 8."""
    if inst.n > 8:
        raise BudgetExceededError("steiner forest oracle capped at n=8")
    if not inst.symmetric:
        raise ValidationError("steiner forest oracle handles symmetric instances only")
    best: Weight | None = None
    best_edges: set[tuple[int, int]] = set()
    for partition in _group_partitions(len(inst.groups)):
        total: Weight = 0
        edges: set[tuple[int, int]] = set()
        for cluster in partition:
            verts = tuple(sorted(v for gi in cluster for v in inst.groups[gi]))
            cost, tree = _mst_cost(inst, verts)
            total += cost
            edges.update((min(u, v), max(u, v)) for u, v in tree)
        if best is None or total < best:
            best = total
            best_edges = edges
    return best, best_edges


def _forest_feasible(inst: Instance, edges: set[tuple[int, int]]) -> bool:
    parent = list(range(inst.n))
    for u, v in edges:
        parent[find(parent, u)] = find(parent, v)
    return all(len({find(parent, v) for v in g}) == 1 for g in inst.groups)


def approx_steiner_forest(inst: Instance) -> set[tuple[int, int]]:
    """Primal-dual 2-approximate Steiner forest (uniform moat growth).

    Grows duals of every active component simultaneously, merges along the
    first tight edge, then prunes unnecessary edges in reverse order.
    """
    if not inst.symmetric:
        raise ValidationError("steiner forest approximation handles symmetric instances")
    n = inst.n
    comp = list(range(n))
    potential = [Fraction(0)] * n
    picked: list[tuple[int, int]] = []

    def active_roots() -> set[int]:
        members: dict[int, set[int]] = {}
        for v in range(n):
            members.setdefault(find(comp, v), set()).add(v)
        act = set()
        for root, verts in members.items():
            for g in inst.groups:
                got = len(verts.intersection(g))
                if 0 < got < len(g):
                    act.add(root)
                    break
        return act

    while True:
        act = active_roots()
        if not act:
            break
        best_eps: Fraction | None = None
        best_edge: tuple[int, int] | None = None
        for u in range(n):
            for v in range(u + 1, n):
                ru, rv = find(comp, u), find(comp, v)
                if ru == rv:
                    continue
                speed = (ru in act) + (rv in act)
                if speed == 0:
                    continue
                eps = Fraction(inst.w(u, v) - potential[u] - potential[v], speed)
                if eps < 0:
                    eps = Fraction(0)
                if best_eps is None or eps < best_eps or (
                        eps == best_eps and (u, v) < best_edge):
                    best_eps = eps
                    best_edge = (u, v)
        for v in range(n):
            if find(comp, v) in act:
                potential[v] += best_eps
        u, v = best_edge
        picked.append(best_edge)
        comp[find(comp, u)] = find(comp, v)

    kept = set(picked)
    for e in reversed(picked):
        trial = kept - {e}
        if _forest_feasible(inst, trial):
            kept = trial
    if not _forest_feasible(inst, kept):
        raise SmcError("pruned Steiner forest leaves a group disconnected")
    return kept


# ---------------------------------------------------------------------------
# probe: matchings on odd-degree vertices of Steiner forests


@dataclass(frozen=True)
class ProbeRow:
    seed: int
    n: int
    group_sizes: tuple[int, ...]
    opt_smc: Weight
    w_matching_exact_forest: Weight
    w_matching_approx_forest: Weight

    @property
    def ratio_exact(self) -> Fraction:
        return Fraction(self.w_matching_exact_forest) / Fraction(self.opt_smc)

    @property
    def ratio_approx(self) -> Fraction:
        return Fraction(self.w_matching_approx_forest) / Fraction(self.opt_smc)

    @property
    def counterexample(self) -> bool:
        return (self.w_matching_exact_forest > self.opt_smc
                or self.w_matching_approx_forest > self.opt_smc)


@dataclass(frozen=True)
class ProbeReport:
    rows: tuple[ProbeRow, ...]

    @property
    def counterexamples(self) -> tuple[ProbeRow, ...]:
        return tuple(r for r in self.rows if r.counterexample)


def _odd_degree_vertices(n: int, edges: set[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [v for v in range(n) if deg[v] % 2 == 1]


def _matching_weight_on(inst: Instance, verts: list[int]) -> Weight:
    if not verts:
        return 0
    edges = [(u, v, inst.w(u, v)) for i, u in enumerate(verts)
             for v in verts[i + 1:]]
    mate = min_weight_perfect_matching(edges, vertices=verts)
    return sum(inst.w(u, v) for u, v in mate)


def matching_vs_opt_probe(seed: int, trials: int) -> ProbeReport:
    """Search for an instance whose forest-odd-vertex matching beats opt.

    For each random metric instance: matching weight on the odd-degree set
    of an exact Steiner forest, and of a 2-approximate one, both compared
    against the exact multicycle optimum.  Each trial also re-verifies the
    survivable-network side chain w(M) <= w(J) <= w(G')/2 on the pruned
    2-approximate subgraph.
    """
    from .metric import approx_metric

    rng = Random(seed)
    rows = []
    for t in range(trials):
        n = rng.choice((4, 5, 6, 7, 8))
        sizes = []
        left = n
        while left >= 2:
            if left in (2, 3):
                s = left
            else:
                s = rng.randint(2, min(4, left - 2)) if left >= 4 else left
                if left - s == 1:
                    s += 1
            sizes.append(s)
            left -= s
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(1 << 30))
        opt, _ = brute_force_smc(inst)
        _, exact_forest = brute_force_steiner_forest(inst)
        approx_forest = approx_steiner_forest(inst)
        w_exact = _matching_weight_on(inst, _odd_degree_vertices(inst.n, exact_forest))
        w_approx = _matching_weight_on(inst, _odd_degree_vertices(inst.n, approx_forest))

        _cover, stages = approx_metric(inst)
        w_matching_t = _matching_weight_on(inst, list(stages.odd_vertices))
        chain_ok = (w_matching_t <= stages.join_weight
                    and 2 * Fraction(stages.join_weight)
                    <= Fraction(stages.pruned.weight(inst)))
        if not chain_ok:
            raise ValidationError("matching/T-join/subgraph chain failed")

        rows.append(ProbeRow(seed=seed, n=n, group_sizes=tuple(sizes),
                             opt_smc=opt,
                             w_matching_exact_forest=w_exact,
                             w_matching_approx_forest=w_approx))
    return ProbeReport(rows=tuple(rows))

"""Desk-scale exact solvers that the CLI runs.

Caps are hard errors, never silent truncation: every enumerating solver
states its own cap on n and raises ``BudgetExceededError`` above it.  Only
the multicycle optimum's cap can be set, per call, and never above the
``SMC_TABLE_MAX_N`` ceiling that bounds its tables' memory.  The
multicycle optimum (``compare --oracle``) clusters the terminal groups and
prices each cluster by Held-Karp, with one table per terminal group,
shared by every cluster whose first group it is.  The weight class picks
the table's recurrence: a {1,2} table keeps only each mask's least cost
and the bitset of ends that reach it, exact because costs are ints, and
every other class takes the min over every end; both give the same
optima, the same covers and the same caps.  The Steiner forest
optimum and its primal-dual 2-approximation serve the matching-versus-
optimum probe (``probe``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from random import Random

from .core import (CycleCover, Instance, Weight, WeightClass, arcs_weight,
                   find, generate_instance, make_cover, validate_solution)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import min_weight_perfect_matching


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
                ) -> Callable[[int], list[Weight]]:
    """Held-Karp over ``verts``, bit t of a mask standing for ``verts[t + 1]``.

    Returns the table's row reader: entry i of ``row(mask)`` is the
    cheapest path that starts at ``verts[0]``, visits exactly the vertices
    of ``mask`` and ends at the vertex of bit ``bits[mask][i]``;
    ``bits[mask]`` lists the set bits of ``mask`` in increasing order.
    """
    start, others = verts[0], verts[1:]
    weights = inst.weights
    if inst.weight_class is WeightClass.ONE_TWO:
        return _one_two_table(inst.one_masks, start, others, bits)
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
    return dp.__getitem__


def _one_two_table(one_masks: tuple[int, ...], start: int,
                   others: list[int], bits: list[list[int]]
                   ) -> Callable[[int], list[Weight]]:
    """The same table for weights in {1,2}, kept as two ints per mask.

    ``least[mask]`` is the cheapest path over ``mask``, and bit j of
    ``ends[mask]`` is set when the path ending at bit j costs exactly that;
    bit m = len(others) stands for ``verts[0]``, the one end of the empty
    mask, whose path costs 0.  With ``prev = mask ^ (1 << j)``, entry j of
    the row of ``mask`` is ``least[prev] + 1`` when a weight-1 arc enters
    j from an end in ``ends[prev]``, else ``least[prev] + 2``.  This is
    exact because costs are ints: a path over ``prev`` that ends outside
    ``ends[prev]`` costs at least ``least[prev] + 1``, and any arc from it
    adds at least 1 more.  So one AND with the table bits of j's weight-1
    neighbours replaces the min over every end of ``prev``, and rows are
    rebuilt from the two lists when read.
    """
    m = len(others)
    order = others + [start]
    # steps[j]: the bit of j and the table bits of its weight-1 neighbours
    steps = [(1 << j, sum(1 << i for i, u in enumerate(order)
                          if one_masks[v] >> u & 1))
             for j, v in enumerate(others)]
    least = [0]
    ends = [1 << m]
    for mask in range(1, 1 << m):
        best = 2 * m + 1  # above the dearest path
        end = 0
        for j in bits[mask]:
            bit, one = steps[j]
            prev = mask ^ bit
            cost = least[prev] + (1 if ends[prev] & one else 2)
            if cost < best:
                best, end = cost, bit
            elif cost == best:
                end |= bit
        least.append(best)
        ends.append(end)

    def row(mask: int) -> list[Weight]:
        entries = []
        for j in bits[mask]:
            bit, one = steps[j]
            prev = mask ^ bit
            entries.append(least[prev] + (1 if ends[prev] & one else 2))
        return entries
    return row


def _walk_back(inst: Instance, verts: list[int], bits: list[list[int]],
               row: Callable[[int], list[Weight]], mask: int, at: int
               ) -> list[int]:
    """The cycle from ``verts[0]`` along the path of ``row(mask)[at]``; each
    predecessor is the entry that sums to the current one."""
    weights = inst.weights
    cost = row(mask)[at]
    path = []
    while True:
        j = bits[mask][at]
        v = verts[j + 1]
        path.append(v)
        prev = mask ^ (1 << j)
        if not prev:
            break
        costs = row(prev)
        at = next((i for i, t in enumerate(bits[prev])
                   if costs[i] + weights[verts[t + 1]][v] == cost), None)
        if at is None:
            raise SmcError(f"Held-Karp entry {cost} over mask {mask:#x} has "
                           "no predecessor that sums to it")
        cost = costs[at]
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
    the tables.  On a {1,2} instance a table holds two ints per mask, the
    least cost and the bitset of the ends that reach it, and each entry
    follows from one AND: an end outside that bitset costs at least one
    more, so no arc from it can undercut the cheapest end's arc of weight
    2.  The weight class selects this recurrence; answers and caps are
    those of the general one.  The cap on n is ``max_n``, by default 12 on
    a symmetric instance and 8 on a directed one; the first table has
    2^(n-1) rows, so no ``max_n`` lets n exceed ``SMC_TABLE_MAX_N``.
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
                 for cost, t in zip(tables[cluster[0]](mask), bits[mask])]
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
    return arcs_weight(inst, mate)


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

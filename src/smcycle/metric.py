"""End-to-end 3-approximation for symmetric metric instances.

Pipeline, from the instance alone: 2-approximate survivable-network
subgraph (requirements 2 inside each group), bridge pruning, minimum T-join
on the odd-degree set inside the subgraph, Eulerian doubling, and a metric
shortcut of each component down to a cycle.

Stage invariants asserted on every run: T-join parity, w(J) <= w(G')/2 on
the pruned subgraph, and shortcut cost never above the Eulerian weight.
The shortcut's check is the cover's one feasibility check, for metric3 and
for the doubled-subgraph baseline alike.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import (CycleCover, Instance, Weight, arcs_weight, euler_shortcut,
                   make_cover, validate_solution)
from .errors import SmcError, ValidationError
from .matching import min_weight_perfect_matching
from .snd import EdgeSubgraph, Round, jain_round, prune_bridges


@dataclass(frozen=True)
class TJoin:
    """Edge set whose odd-degree vertices are exactly the target set."""

    edges: frozenset[tuple[int, int]]

    def weight(self, inst: Instance) -> Weight:
        return arcs_weight(inst, self.edges)


@dataclass(frozen=True)
class MetricStages:
    """Intermediate artifacts of one pipeline run, for dumps and audits.
    ``rounds[0].value`` is LP*, the cut LP's optimum: LP* <= OPT,
    w(snd_subgraph) <= 2 LP* and the cover costs at most 3 LP*."""

    rounds: tuple[Round, ...]
    snd_subgraph: EdgeSubgraph
    pruned: EdgeSubgraph
    odd_vertices: tuple[int, ...]
    join: TJoin
    join_weight: Weight
    eulerian_weight: Weight
    cover: CycleCover


def odd_degree_set(g: EdgeSubgraph) -> list[int]:
    """Vertices of odd degree, multiplicity counted."""
    return [v for v, d in enumerate(g.degrees()) if d % 2 == 1]


def _shortest_paths(g: EdgeSubgraph, inst: Instance, source: int
                    ) -> tuple[dict[int, Weight], dict[int, int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v, _c in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    dist: dict[int, Weight] = {source: 0}
    prev: dict[int, int] = {}
    heap: list[tuple[Weight, int]] = [(0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in sorted(adj[u]):
            nd = d + inst.w(u, v)
            if v not in dist or nd < dist[v] or (nd == dist[v] and u < prev.get(v, g.n)):
                if v not in done:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
    return dist, prev


def min_t_join(g: EdgeSubgraph, inst: Instance, targets: list[int]) -> TJoin:
    """Minimum-weight T-join inside g.

    Shortest paths among the targets, minimum perfect matching under the
    path metric, then the symmetric difference of the matched paths.  The
    even-per-component precondition is checked, and the output parity is
    re-verified.
    """
    targets = sorted(targets)
    if not targets:
        return TJoin(edges=frozenset())
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_of[v] = ci
    per_comp: dict[int, int] = {}
    for t in targets:
        per_comp[comp_of[t]] = per_comp.get(comp_of[t], 0) + 1
    if any(c % 2 for c in per_comp.values()):
        raise ValidationError("T has odd size in some component: no T-join")

    dist: dict[int, dict[int, Weight]] = {}
    prev: dict[int, dict[int, int]] = {}
    for t in targets:
        dist[t], prev[t] = _shortest_paths(g, inst, t)

    cand = [(a, b, dist[a][b]) for i, a in enumerate(targets)
            for b in targets[i + 1:] if comp_of[a] == comp_of[b]]
    mate = min_weight_perfect_matching(cand, vertices=targets)

    join: set[tuple[int, int]] = set()
    for a, b in mate:
        # walk the shortest path from b back to a, toggling edges
        cur = b
        while cur != a:
            p = prev[a][cur]
            e = (min(p, cur), max(p, cur))
            join.symmetric_difference_update({e})
            cur = p
    out = TJoin(edges=frozenset(join))

    deg: dict[int, int] = {}
    for u, v in out.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    odd = {v for v, d in deg.items() if d % 2 == 1}
    if odd != set(targets):
        raise SmcError("T-join parity check failed")
    return out


def _euler_shortcut(n: int, slots: list[tuple[int, int]], inst: Instance
                    ) -> CycleCover:
    """Shortcut every Eulerian component of an edge multiset to a cycle
    along :func:`core.euler_shortcut`'s tour; a 2-vertex component becomes a
    pair 2-cycle.  This is the one feasibility check of every metric cover:
    the cover must pass :func:`core.validate_solution` and weigh no more than
    the multiset."""
    degree = [0] * n
    for u, v in slots:
        degree[u] += 1
        degree[v] += 1
    if any(d % 2 for d in degree):
        raise SmcError("multigraph has an odd-degree vertex")
    cover = make_cover(euler_shortcut(n, slots, directed=False))
    report = validate_solution(inst, cover)
    if not report.feasible:
        raise SmcError(f"shortcut produced an infeasible cover: "
                       f"{report.violations}")
    if report.cost > arcs_weight(inst, slots):
        raise SmcError("shortcut increased the cost on a metric instance")
    return cover


def double_and_shortcut(g: EdgeSubgraph, join: TJoin, inst: Instance) -> CycleCover:
    """Add the join edges on top of g, then shortcut each Eulerian component."""
    slots = [(u, v) for u, v, _c in g.edges]
    slots.extend(sorted(join.edges))
    return _euler_shortcut(g.n, slots, inst)


def approx_metric(inst: Instance) -> tuple[CycleCover, MetricStages]:
    """Survivable-network subgraph + T-join + Eulerian shortcut.

    Returns the cover and the stage record.
    """
    if not inst.symmetric:
        raise ValidationError("metric pipeline needs a symmetric instance")
    raw, rounds = jain_round(inst)
    pruned = prune_bridges(raw, inst)
    odd = odd_degree_set(pruned)
    join = min_t_join(pruned, inst, odd)
    join_weight = join.weight(inst)
    pruned_weight = pruned.weight(inst)
    if Fraction(join_weight) > Fraction(pruned_weight, 2):
        raise SmcError("T-join heavier than half the pruned subgraph")

    cover = double_and_shortcut(pruned, join, inst)
    stages = MetricStages(rounds=rounds, snd_subgraph=raw, pruned=pruned,
                          odd_vertices=tuple(sorted(odd)), join=join,
                          join_weight=join_weight,
                          eulerian_weight=pruned_weight + join_weight,
                          cover=cover)
    return cover, stages


def doubled_subgraph_baseline(inst: Instance,
                              pruned: EdgeSubgraph | None = None) -> CycleCover:
    """Shortcut of the doubled survivable-network subgraph, no join stage.

    Reproduces the older doubling-based approximation for ratio tables.
    A pruned subgraph from an earlier pipeline run can be reused.
    """
    if not inst.symmetric:
        raise ValidationError("metric pipeline needs a symmetric instance")
    if pruned is None:
        pruned = prune_bridges(jain_round(inst)[0], inst)
    slots = [(u, v) for u, v, _c in pruned.edges] * 2
    return _euler_shortcut(inst.n, slots, inst)

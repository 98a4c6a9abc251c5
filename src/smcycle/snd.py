"""2-approximate survivable network design specialized to {0,2} requirements.

The requirement function is never materialized as a pair matrix: a cut needs
two crossing edges exactly when it splits some terminal group.  The LP over
the cut family is solved exactly (rational simplex, lazily generated rows),
and iterative rounding permanently includes every edge whose value reaches
1/2; such an edge must exist at every step, so a miss is reported as a bug,
never a degraded answer.

Duplicated pair edges appear as two parallel slots capped at 1 each, which
is how a doubled pair edge (the length-2 cycle of the solution format)
enters the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ._simplex import GE, LE, solve_min_lp
from .core import Instance, Weight
from .errors import BudgetExceededError, SmcError, ValidationError

EdgeSlot = tuple[int, int, int]  # (u, v, copy) with u < v

HALF = Fraction(1, 2)
CUT_ENUMERATION_MAX_N = 16


@dataclass(frozen=True)
class SNDRequirements:
    """Connectivity 2 inside each group, 0 across groups."""

    n: int
    groups: tuple[tuple[int, ...], ...]

    def group_masks(self) -> list[tuple[int, int]]:
        return [(sum(1 << v for v in g), len(g)) for g in self.groups]

    def required_pair_count(self) -> int:
        return sum(len(g) * (len(g) - 1) // 2 for g in self.groups)

    def requirement(self, i: int, j: int) -> int:
        gi = next(k for k, g in enumerate(self.groups) if i in g)
        return 2 if j in self.groups[gi] else 0


def build_requirements(inst: Instance) -> SNDRequirements:
    return SNDRequirements(n=inst.n, groups=inst.groups)


def edge_slots(inst: Instance) -> list[EdgeSlot]:
    """All undirected edge slots: base edges plus duplicated pair copies."""
    slots = [(i, j, 0) for i in range(inst.n) for j in range(i + 1, inst.n)]
    for u, v in sorted(inst.pair_groups()):
        slots.append((u, v, 1))
    return slots


@dataclass(frozen=True)
class EdgeSubgraph:
    """Weighted edge multiset over instance vertices, multiplicities <= 2."""

    n: int
    edges: tuple[EdgeSlot, ...]

    def __post_init__(self):
        counts: dict[tuple[int, int], int] = {}
        for u, v, _copy in self.edges:
            if not (0 <= u < v < self.n):
                raise ValidationError(f"bad edge slot ({u},{v})")
            counts[(u, v)] = counts.get((u, v), 0) + 1
            if counts[(u, v)] > 2:
                raise ValidationError(f"edge ({u},{v}) has multiplicity > 2")

    def multiplicity(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for u, v, _copy in self.edges:
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return counts

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, _copy in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def weight(self, inst: Instance) -> Weight:
        return sum(inst.w(u, v) for u, v, _copy in self.edges)

    def components(self) -> list[set[int]]:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _copy in self.edges:
            parent[find(u)] = find(v)
        comps: dict[int, set[int]] = {}
        for v in range(self.n):
            comps.setdefault(find(v), set()).add(v)
        return [comps[r] for r in sorted(comps)]


@dataclass(frozen=True)
class FractionalEdgeVector:
    slots: tuple[EdgeSlot, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        for v in self.values:
            if not 0 <= v <= 1:
                raise ValidationError(f"fractional edge value {v} outside [0,1]")

    def as_dict(self) -> dict[EdgeSlot, Fraction]:
        return dict(zip(self.slots, self.values))


def _scan_cuts(n: int, group_masks: Sequence[tuple[int, int]],
               cross_value: Sequence[Sequence[int]],
               cross_fixed: Sequence[Sequence[int]],
               scale: int) -> list[tuple[int, int]]:
    """Return (deficit, cut_mask) for every violated cut, by Gray-code walk.

    A cut W (vertex n-1 always outside) is violated when it splits some
    group and value(delta(W)) + scale * fixed(delta(W)) < 2 * scale, where
    ``value`` sums the scaled fractional weights in ``cross_value``.
    """
    if n > CUT_ENUMERATION_MAX_N:
        raise BudgetExceededError(
            f"cut enumeration capped at n={CUT_ENUMERATION_MAX_N}")
    in_w = [False] * n
    group_in = [0] * len(group_masks)
    group_of = [0] * n
    for gi, (gmask, _size) in enumerate(group_masks):
        for v in range(n):
            if gmask >> v & 1:
                group_of[v] = gi
    val = 0
    fix = 0
    split = 0  # number of split groups
    violated: list[tuple[int, int]] = []
    mask = 0
    for i in range(1, 1 << (n - 1)):
        bit = (i & -i).bit_length() - 1
        entering = not in_w[bit]
        delta_v = 0
        delta_f = 0
        row_v = cross_value[bit]
        row_f = cross_fixed[bit]
        for u in range(n):
            if u == bit:
                continue
            if in_w[u]:
                delta_v -= row_v[u]
                delta_f -= row_f[u]
            else:
                delta_v += row_v[u]
                delta_f += row_f[u]
        gi = group_of[bit]
        size = group_masks[gi][1]
        was_split = 0 < group_in[gi] < size
        if entering:
            in_w[bit] = True
            mask |= 1 << bit
            val += delta_v
            fix += delta_f
            group_in[gi] += 1
        else:
            in_w[bit] = False
            mask &= ~(1 << bit)
            val -= delta_v
            fix -= delta_f
            group_in[gi] -= 1
        now_split = 0 < group_in[gi] < size
        split += int(now_split) - int(was_split)
        if split and val + scale * fix < 2 * scale:
            violated.append((2 * scale - val - scale * fix, mask))
    return violated


def _pair_matrix(n: int, entries: Iterable[tuple[int, int, int]]) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for u, v, x in entries:
        m[u][v] += x
        m[v][u] += x
    return m


def _crosses(slot: EdgeSlot, mask: int) -> bool:
    u, v, _copy = slot
    return (mask >> u & 1) != (mask >> v & 1)


def solve_cut_lp(inst: Instance, req: SNDRequirements,
                 fixed: frozenset[EdgeSlot] | set[EdgeSlot] = frozenset(),
                 cut_pool: list[int] | None = None,
                 trace: list[str] | None = None) -> FractionalEdgeVector:
    """Exact optimum of the residual cut LP, by lazy constraint generation.

    ``cut_pool`` (vertex masks) carries cuts discovered earlier; newly
    separated cuts are appended so successive solves warm-start.
    """
    slots = edge_slots(inst)
    free = [s for s in slots if s not in fixed]
    index = {s: k for k, s in enumerate(free)}
    cost = [inst.w(u, v) for u, v, _c in free]
    group_masks = req.group_masks()
    fixed_cross = _pair_matrix(inst.n, ((u, v, 1) for u, v, _c in fixed))

    pool = cut_pool if cut_pool is not None else []
    ub_rows: set[int] = set()

    def residual(mask: int) -> int:
        crossing_fixed = sum(1 for s in fixed if _crosses(s, mask))
        return 2 - crossing_fixed

    while True:
        rows = []
        for mask in pool:
            r = residual(mask)
            if r <= 0:
                continue
            coeffs = [1 if _crosses(s, mask) else 0 for s in free]
            rows.append((coeffs, GE, r))
        for k in sorted(ub_rows):
            coeffs = [0] * len(free)
            coeffs[k] = 1
            rows.append((coeffs, LE, 1))
        result = solve_min_lp(cost, rows)
        if result.status != "optimal":
            raise SmcError("cut LP infeasible: separation produced an "
                           "unsatisfiable system")
        x = result.x if result.x else [Fraction(0)] * len(free)
        if trace is not None:
            trace.append(f"lp rows={len(rows)} value={result.objective}")

        new_ub = {k for k, v in enumerate(x) if v > 1 and k not in ub_rows}
        if new_ub:
            ub_rows |= new_ub
            continue

        scale = lcm(*[v.denominator for v in x], 1)
        cross_value = _pair_matrix(
            inst.n, ((u, v, int(x[index[(u, v, c)]] * scale))
                     for u, v, c in free))
        violated = _scan_cuts(inst.n, group_masks, cross_value, fixed_cross, scale)
        if not violated:
            return FractionalEdgeVector(slots=tuple(free), values=tuple(x))
        violated.sort(key=lambda t: (-t[0], t[1]))
        known = set(pool)
        added = 0
        for _deficit, mask in violated:
            if mask not in known:
                pool.append(mask)
                known.add(mask)
                added += 1
                if added >= 12:
                    break
        if added == 0:
            raise SmcError("separation loop stalled: violated cuts already pooled")


def jain_round(inst: Instance, req: SNDRequirements,
               trace: list[str] | None = None) -> EdgeSubgraph:
    """Iterative rounding: fix every edge at value >= 1/2, re-solve, repeat.

    The returned subgraph satisfies every requirement cut and weighs at most
    twice the SND optimum (Jain's guarantee; asserted against the oracle at
    desk scale in the tests).
    """
    slots = edge_slots(inst)
    fixed: set[EdgeSlot] = set()
    pool: list[int] = []
    iterations = 0
    while True:
        x = solve_cut_lp(inst, req, fixed, cut_pool=pool, trace=trace)
        if all(v == 0 for v in x.values):
            break
        iterations += 1
        if iterations > len(slots):
            raise SmcError("rounding did not terminate within |E| iterations")
        take = {s for s, v in zip(x.slots, x.values) if v >= HALF}
        if not take:
            raise SmcError("rounding-stall: no edge reached 1/2 in an optimal "
                           "extreme point; this signals an LP or separation bug")
        if trace is not None:
            trace.append(f"round {iterations}: fixing {sorted(take)}")
        fixed |= take
    sub = EdgeSubgraph(n=inst.n, edges=tuple(sorted(fixed)))
    _assert_feasible(sub, req)
    return sub


def _assert_feasible(g: EdgeSubgraph, req: SNDRequirements) -> None:
    fixed_cross = _pair_matrix(g.n, ((u, v, 1) for u, v, _c in g.edges))
    zero = [[0] * g.n for _ in range(g.n)]
    violated = _scan_cuts(g.n, req.group_masks(), zero, fixed_cross, 1)
    if violated:
        raise SmcError(f"subgraph misses {len(violated)} requirement cuts")


def _bridges(g: EdgeSubgraph) -> set[tuple[int, int]]:
    """Bridges of the multigraph; a doubled edge is never a bridge."""
    mult = g.multiplicity()
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in mult:
        adj[u].append(v)
        adj[v].append(u)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[tuple[int, int]] = set()
    counter = [0]

    def dfs(u: int, parent: int) -> None:
        disc[u] = low[u] = counter[0]
        counter[0] += 1
        for v in sorted(adj[u]):
            key = (min(u, v), max(u, v))
            if v == parent and mult[key] == 1:
                continue  # the one tree edge back up; a parallel copy recurses
            if v not in disc:
                dfs(v, u)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u] and mult[key] == 1:
                    out.add(key)
            else:
                low[u] = min(low[u], disc[v])

    for v in range(g.n):
        if v not in disc and adj[v]:
            dfs(v, -1)
    return out


def prune_bridges(g: EdgeSubgraph, req: SNDRequirements) -> EdgeSubgraph:
    """Delete bridges until every component is 2-edge-connected.

    A bridge never serves a 2-connectivity requirement, so feasibility is
    preserved (re-asserted here).
    """
    edges = list(g.edges)
    while True:
        current = EdgeSubgraph(n=g.n, edges=tuple(sorted(edges)))
        bad = _bridges(current)
        if not bad:
            _assert_feasible(current, req)
            return current
        edges = [e for e in edges if (e[0], e[1]) not in bad]

"""2-approximate survivable network design specialized to {0,2} requirements.

The requirements are the instance's groups, never a pair matrix or an
object of their own: a cut needs two crossing edges exactly when it splits
some group.  The LP over the cut family is solved exactly with lazily
generated rows, and iterative rounding permanently includes every edge
whose value reaches 1/2; such an edge must exist at every step, so a miss
is reported as a bug, never a degraded answer.  Rounding stops as soon as
the fixed edges leave every group inside one 2-edge-connected component,
which is exactly when they meet every cut, so the residual LP that would
answer x = 0 is not solved.

Cut LP.  Over the free slots e the residual LP is min c.x subject to
x(delta(C)) >= r_C for each pooled cut C with residual requirement
r_C > 0 and 0 <= x_e <= 1.  It is solved through its dual,
max sum r_C y_C - sum u_e subject to sum_{C crossing e} y_C - u_e <= c_e
for each free slot e (``ColumnLp``).  Each bound x_e <= 1 is the implicit
column u_e of row e, so it holds from the first solve and costs no
separation round.  The weights are >= 0, so the slack basis is feasible
and no phase 1 runs; a newly separated cut is one added column, 1 in the
rows of the free slots crossing it, so the previous basis stays feasible
and each separation round re-optimises from it once.  Each call lays the
pooled cuts that keep a residual down as the LP's starting columns, and
adds each cut it separates as one column.  x is read off as the prices of
the dual's rows, and every answer carries the strong-duality certificate
of ``ColumnLp.optimise``: 0 <= x <= 1 satisfies every pooled row, the
dual values are feasible, and the two objectives agree.  An unbounded
dual means the cut LP is infeasible.

An empty pool starts as the degree cuts x(delta(v)) >= 2, one per vertex:
every vertex lies in a group of size >= 2, so each splits a group.
Separation then scores all 2^(n-1) cuts at once, one packed field per cut,
in a few big-int operations (``_scan_cuts``), and pools up to 12 of the
most violated per round until none is violated, so the answer is the
optimum over every cut; n is capped at ``CUT_ENUMERATION_MAX_N``.

Duplicated pair edges appear as two parallel slots capped at 1 each, which
is how a doubled pair edge (the length-2 cycle of the solution format)
enters the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, islice
from operator import xor
from typing import Iterable, NamedTuple, Sequence

from ._simplex import ColumnLp
from .core import Instance, Weight, arcs_weight, bits, components
from .errors import BudgetExceededError, SmcError, ValidationError

EdgeSlot = tuple[int, int, int]  # (u, v, copy) with u < v

CUT_ENUMERATION_MAX_N = 16


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
        return arcs_weight(inst, ((u, v) for u, v, _copy in self.edges))

    def components(self) -> list[list[int]]:
        return components(self.n, self.edges)

    @property
    def bridges(self) -> frozenset[tuple[int, int]]:
        """The bridges of the multigraph, searched for once."""
        cached = self.__dict__.get("_bridges")
        if cached is None:
            cached = self.__dict__["_bridges"] = frozenset(_bridges(self))
        return cached

    @property
    def two_edge_components(self) -> tuple[int, ...]:
        """The component label of each vertex once the bridges are
        removed, computed once: two vertices are 2-edge-connected exactly
        when their labels agree."""
        cached = self.__dict__.get("_two_edge_components")
        if cached is None:
            bridges = self.bridges
            label = [0] * self.n
            for ci, comp in enumerate(components(self.n, (
                    e for e in self.edges if (e[0], e[1]) not in bridges))):
                for v in comp:
                    label[v] = ci
            cached = self.__dict__["_two_edge_components"] = tuple(label)
        return cached


@dataclass(frozen=True)
class FractionalEdgeVector:
    """x_e = numerators[k] / scale for the slot e = slots[k], with int
    numerators in [0, scale] over one positive int ``scale``."""

    slots: tuple[EdgeSlot, ...]
    numerators: tuple[int, ...]
    scale: int

    def __post_init__(self):
        if type(self.scale) is not int or self.scale <= 0:
            raise ValidationError(f"edge value scale {self.scale!r} is not "
                                  "a positive int")
        for v in self.numerators:
            if type(v) is not int or not 0 <= v <= self.scale:
                raise ValidationError(f"fractional edge value {v!r}/"
                                      f"{self.scale} outside [0,1]")


def _scan_cuts(n: int, group_masks: Sequence[tuple[int, int]],
               caps: Iterable[tuple[int, int, int]],
               scale: int) -> list[tuple[int, int]]:
    """Return (deficit, cut_mask) for every violated cut, sorted by
    (-deficit, cut_mask).

    A cut W (vertex n-1 always outside) is violated when it splits some
    group and its capacity cut(W) < need = 2 * scale; its deficit is
    need - cut(W).  ``caps`` lists (u, v, c) with u != v: the capacity
    between u and v is the sum of the c of its triples, and no c is
    negative (x is certified >= 0 and a fixed edge counts ``scale``), which
    the arithmetic below relies on.

    All 2^(n-1) cuts are scored at once in packed ints.  Field i, bits
    [i * width, (i + 1) * width) from the low end, belongs to the cut whose
    vertex mask is i.  ``width`` is whole bytes and at least
    bitlen(max(total capacity, need, n)) + 2, so every count or capacity
    below is under 2^(width - 2).  ``side[u]`` holds bit u of every mask
    and is a repeated byte tile, and
        cut = sum of cap(u, v) * (side[u] ^ side[v]) over u < v, cap > 0
        count_g = sum of side[v] over v in group g
    are sums of non-negative fields that stay below 2^(width - 2), so no
    carry crosses a field.  With ``ones`` and ``high`` holding 1 and
    2^(width - 1) in every field, field i of high + cut - need * ones lies
    in [2^(width - 1) - 2^(width - 2), 2^(width - 1) + 2^(width - 2)), so no
    borrow or carry crosses a field either, and its top bit is clear
    exactly when cut_i < need.  Likewise the top bit of
    high - ones + count_g is set when 0 < count_g, and that of
    high + (|g| - 1) * ones - count_g when count_g < |g|: g splits the cut.
    """
    if n > CUT_ENUMERATION_MAX_N:
        raise BudgetExceededError(
            f"cut enumeration capped at n={CUT_ENUMERATION_MAX_N}")
    cuts = 1 << (n - 1)
    cap = [t for t in caps if t[2]]
    need = 2 * scale
    total = sum(c for _u, _v, c in cap)
    size = (max(total, need, n).bit_length() + 9) // 8
    one, zero = (1).to_bytes(size, "little"), bytes(size)
    side = [int.from_bytes((zero * (1 << u) + one * (1 << u))
                           * (cuts >> u + 1), "little")
            for u in range(n - 1)] + [0]
    ones = int.from_bytes(one * cuts, "little")
    high = ones << 8 * size - 1
    cut = 0
    for u, v, c in cap:
        cut += c * (side[u] ^ side[v])
    split = 0
    for gmask, gsize in group_masks:
        count = sum(side[v] for v in range(n) if gmask >> v & 1)
        split |= (high - ones + count) & (high + (gsize - 1) * ones - count)
    violated = split & high & ~(high + cut - need * ones)
    if not violated:
        return []
    flags = violated.to_bytes(cuts * size, "little")[size - 1::size]
    fields = cut.to_bytes(cuts * size, "little")
    out = [(need - int.from_bytes(fields[i * size:i * size + size], "little"),
            i) for i in compress(range(cuts), flags)]
    out.sort(key=lambda t: -t[0])  # stable: ties stay in mask order
    return out


def solve_cut_lp(inst: Instance,
                 fixed: frozenset[EdgeSlot] | set[EdgeSlot] = frozenset(),
                 cut_pool: list[int] | None = None) -> FractionalEdgeVector:
    """Exact optimum of the residual cut LP, by lazy constraint generation
    on its dual (see the module docstring).

    ``cut_pool`` (vertex masks) carries cuts discovered earlier; an empty
    pool is first filled with the degree cuts (that of vertex n-1 is the
    mask of every other vertex), and newly separated cuts are appended so
    successive solves warm-start.
    """
    free = [s for s in edge_slots(inst) if s not in fixed]
    cost = [inst.w(u, v) for u, v, _c in free]
    group_masks = [(sum(1 << v for v in g), len(g)) for g in inst.groups]
    # bit k of slots_at[v] marks slot k of free + fixed at v, so the fixed
    # slots take the bits from len(free) up
    slots_at = [0] * inst.n
    for k, (u, v, _c) in enumerate(chain(free, fixed)):
        slots_at[u] |= 1 << k
        slots_at[v] |= 1 << k
    free_bits = (1 << len(free)) - 1

    def columns(masks: Iterable[int]) -> Iterable[tuple[list[int], int]]:
        """The column of each cut in ``masks`` that still has a residual.
        The XOR of the masks of a cut's vertices keeps the slots with one
        end in it; a slot with both ends inside is flipped twice."""
        for mask in masks:
            crossing = reduce(xor, map(slots_at.__getitem__, bits(mask)), 0)
            residual = 2 - (crossing >> len(free)).bit_count()
            if residual > 0:
                yield bits(crossing & free_bits), -residual

    pool = cut_pool if cut_pool is not None else []
    if not pool:
        pool.extend(1 << v for v in range(inst.n - 1))
        if inst.n > 2:  # at n = 2 vertex 1 has the cut of vertex 0
            pool.append((1 << inst.n - 1) - 1)
    lp = ColumnLp(cost, columns(pool))
    while True:
        try:
            x, scale = lp.optimise()
        except SmcError as exc:
            if exc.code != "unbounded":
                raise
            raise SmcError("cut LP infeasible: separation produced an "
                           "unsatisfiable system") from exc
        caps = [(u, v, xk) for (u, v, _c), xk in zip(free, x)]
        caps += [(u, v, scale) for u, v, _c in fixed]
        violated = _scan_cuts(inst.n, group_masks, caps, scale)
        if not violated:
            return FractionalEdgeVector(slots=tuple(free),
                                        numerators=tuple(x), scale=scale)
        known = set(pool)
        new = list(islice((mask for _deficit, mask in violated
                           if mask not in known), 12))
        if not new:
            raise SmcError("separation loop stalled: violated cuts already pooled")
        pool.extend(new)
        for column in columns(new):
            lp.add_column(*column)


class Round(NamedTuple):
    """One rounding round: the certified optimum of the residual cut LP it
    solved, and the edges it fixed, sorted."""

    value: Fraction
    fixed: tuple[EdgeSlot, ...]


def jain_round(inst: Instance) -> tuple[EdgeSubgraph, tuple[Round, ...]]:
    """Iterative rounding: fix every edge at value >= 1/2, re-solve, repeat
    until the fixed edges meet every requirement cut.

    Returns the subgraph and its rounds; the first round's value LP*, the
    full cut LP's optimum, is a lower bound on OPT.  The subgraph satisfies
    every requirement cut and weighs at most 2 LP* (Jain's guarantee).

    The loop stops once every group lies in one 2-edge-connected component
    of the fixed subgraph, exactly when the residual LP would answer x = 0.
    A vertex of fixed degree below 2 fails that check without a bridge
    search, since its degree cut splits its group.  An x = 0 answer while a
    group is still split is reported as a bug.
    """
    slots = edge_slots(inst)
    fixed: set[EdgeSlot] = set()
    pool: list[int] = []
    rounds: list[Round] = []
    while True:
        x = solve_cut_lp(inst, fixed, cut_pool=pool)
        if not any(x.numerators):
            raise SmcError("cut LP answered x = 0 while the fixed edges "
                           "still split a group")
        if len(rounds) >= len(slots):
            raise SmcError("rounding did not terminate within |E| iterations")
        take = sorted(s for s, v in zip(x.slots, x.numerators)
                      if 2 * v >= x.scale)
        if not take:
            raise SmcError("rounding-stall: no edge reached 1/2 in an optimal "
                           "extreme point; this signals an LP or separation bug")
        value = sum(inst.w(u, v) * k for (u, v, _c), k
                    in zip(x.slots, x.numerators) if k)
        rounds.append(Round(Fraction(value, x.scale), tuple(take)))
        fixed.update(take)
        sub = EdgeSubgraph(n=inst.n, edges=tuple(sorted(fixed)))
        if min(sub.degrees()) >= 2 and not _groups_split(sub, inst.groups):
            return sub, tuple(rounds)


def _groups_split(g: EdgeSubgraph, groups: Sequence[Sequence[int]]
                  ) -> list[Sequence[int]]:
    """The groups that do not lie in one 2-edge-connected component of
    ``g``, that is, the groups some cut with fewer than two edges splits."""
    label = g.two_edge_components
    return [grp for grp in groups if len({label[v] for v in grp}) > 1]


def _assert_feasible(g: EdgeSubgraph,
                     groups: Sequence[Sequence[int]]) -> None:
    """Raise unless every group lies in one 2-edge-connected component of
    ``g``."""
    split = _groups_split(g, groups)
    if split:
        raise SmcError(f"subgraph leaves {len(split)} groups without two "
                       "edge-disjoint paths")


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


def prune_bridges(g: EdgeSubgraph, inst: Instance) -> EdgeSubgraph:
    """Delete every bridge, leaving each component 2-edge-connected.

    One pass suffices: a non-bridge lies on a cycle, and that cycle's
    edges are non-bridges too, so deleting the bridges leaves every other
    edge on its cycle.  A bridge never serves a 2-connectivity
    requirement, so feasibility is preserved; that is re-asserted here,
    and its bridge search on the result also confirms that none is left.
    A bridgeless ``g`` is returned itself, its edges in the order given;
    otherwise the result's edges are sorted.  The re-assertion reads the
    subgraph's cached bridges and labelling, so on a bridgeless subgraph
    that ``jain_round`` has just accepted it repeats no search.
    """
    bad = g.bridges
    pruned = g if not bad else EdgeSubgraph(n=g.n, edges=tuple(sorted(
        e for e in g.edges if (e[0], e[1]) not in bad)))
    _assert_feasible(pruned, inst.groups)
    if pruned.bridges:
        raise SmcError("deleting the bridges left a bridge")
    return pruned

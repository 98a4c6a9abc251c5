"""Instance and solution model for the Steiner multicycle solvers.

An instance is a complete weighted (di)graph whose vertex set is partitioned
into terminal groups of size at least two.  Solutions are covers by
vertex-disjoint cycles; a cover is feasible when it spans every vertex and
keeps each terminal group inside a single cycle.  Length-2 cycles are legal
only in the undirected case, only for a group of exactly two vertices, and
are realized by a duplicated pair edge whose cost counts twice.

The graph primitives every pipeline shares live here too: one union-find
(:func:`find`, :func:`components`), one Euler-tour shortcut
(:func:`euler_shortcut`), the cycles of a permutation
(:func:`successor_cycles`) and the set bits of a bitmask (:func:`bits`).

All weights are exact (int or Fraction); nothing in this module touches
floating point.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from random import Random
from typing import Iterable, Sequence

from .errors import FormatError, InvalidCoverError, ValidationError

Weight = int | Fraction


class WeightClass(str, Enum):
    GENERAL_METRIC = "general-metric"
    ONE_TWO = "one-two"
    ASYMMETRIC_METRIC = "asymmetric-metric"


# file-format tokens <-> enum
_CLASS_TOKENS = {
    WeightClass.GENERAL_METRIC: "metric",
    WeightClass.ONE_TWO: "onetwo",
    WeightClass.ASYMMETRIC_METRIC: "asymmetric",
}
_TOKEN_CLASSES = {v: k for k, v in _CLASS_TOKENS.items()}


# byte value -> binary digit of the weight-1 bitmask: 1 -> "1", 0 and 2 -> "0"
_ONE_BITS = bytes.maketrans(b"\x00\x01\x02", b"010")


@dataclass(frozen=True)
class Instance:
    """A complete weighted (di)graph plus a terminal partition.

    Immutable after construction; safe to share across concurrent solver
    runs.  Use :func:`validate_instance` to build a checked one.
    """

    n: int
    weights: tuple[tuple[Weight, ...], ...]
    symmetric: bool
    weight_class: WeightClass
    groups: tuple[tuple[int, ...], ...]

    def w(self, i: int, j: int) -> Weight:
        return self.weights[i][j]

    @property
    def group_of(self) -> dict[int, int]:
        cached = self.__dict__.get("_group_of")
        if cached is None:
            cached = {}
            for gi, group in enumerate(self.groups):
                for v in group:
                    cached[v] = gi
            self.__dict__["_group_of"] = cached
        return cached

    @property
    def one_masks(self) -> tuple[int, ...]:
        """The weight-1 graph of a {1,2} instance as bitmasks: bit j of
        ``one_masks[i]`` is set exactly when j != i and w(i,j) = 1.  Built
        once, by :func:`validate_instance`, from the validated rows."""
        masks = self.__dict__.get("_one_masks")
        if masks is None:
            raise ValidationError("weight-1 masks need one-two weights")
        return masks

    def pair_groups(self) -> list[tuple[int, int]]:
        """Size-2 groups, each eligible for a duplicated pair edge."""
        return [(g[0], g[1]) for g in self.groups if len(g) == 2]


@dataclass(frozen=True)
class CycleCover:
    """A set of vertex-disjoint cycles, each a vertex sequence.

    Directed cycles follow the listed vertex order.  A 2-vertex cycle of an
    undirected cover is a pair 2-cycle: the duplicated edge of a size-2
    terminal group, whose cost counts twice.  ``pair_flags`` marks those
    cycles and is derived, never passed in.
    """

    cycles: tuple[tuple[int, ...], ...]
    directed: bool = False

    @property
    def pair_flags(self) -> tuple[bool, ...]:
        return tuple(not self.directed and len(c) == 2 for c in self.cycles)

    def covered_vertices(self) -> set[int]:
        seen: set[int] = set()
        for cyc in self.cycles:
            seen.update(cyc)
        return seen


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of :func:`validate_solution`.  ``cost`` is the cover's weight
    as :func:`cover_cost` sums it, or ``None`` when a cycle is malformed."""

    feasible: bool
    violations: tuple[str, ...]
    cost: Weight | None

    def __bool__(self) -> bool:
        return self.feasible


def make_cover(cycles: Iterable[Sequence[int]], directed: bool = False
               ) -> CycleCover:
    return CycleCover(cycles=tuple(tuple(c) for c in cycles), directed=directed)


def _as_weight(value) -> Weight:
    if isinstance(value, (int, Fraction)):
        return value
    raise ValidationError(f"weight {value!r} is not an exact rational",
                          code="weight-class-violation")


def validate_instance(n: int, weights: Sequence[Sequence[Weight]],
                      symmetric: bool, weight_class: WeightClass | str,
                      groups: Sequence[Sequence[int]], *,
                      _int_rows: bool = False) -> Instance:
    """Check every instance invariant and return a frozen Instance.

    Raises ValidationError with codes ``partition-overlap``, ``unit-group``,
    ``triangle-violation`` or ``weight-class-violation``.  A {1,2} matrix
    is stored as ints with a zero diagonal, so ``Fraction(1)`` becomes 1.

    Any other matrix has its cell types scanned, to tell an int matrix
    from one that holds a Fraction or a value that is no exact rational.
    ``_int_rows`` is :func:`parse_instance`'s proof that every row is a
    list of exact ints, as json decoded them, and skips that scan; every
    other check runs, in the same order, with the same messages.

    A {1,2} matrix is checked as one byte buffer of its joined rows, in C
    passes: the diagonal is zeroed, the matrix is symmetric when the buffer
    equals its n strided column slices joined, and every other cell is 1
    or 2 when deleting the bytes 1 and 2 leaves n zero bytes.  A failed
    check, or a cell that is no int in range(256), runs a plain scan that
    finds the first bad cell, so each message names the cell a cell-by-cell
    check would.  The weight rows and :attr:`Instance.one_masks` are built
    from the same row slices of the checked buffer.

    The triangle inequality w(a,b) <= w(a,c) + w(c,b) is checked exactly
    with O(n^2) interpreter steps.  An int matrix is taken as it is; any
    other is scaled to ints by the lcm of its denominators.  The diagonal
    is read as 0.  Off-diagonal weights are non-negative by then, so every
    triple with a repeated vertex holds with slack 0 or w(a,c) + w(c,a) >= 0,
    and no case needs skipping.  Row r is packed into one int P[r] holding
    w(r,b) in field b, bits [b*B, (b+1)*B), with B a multiple of 8 and
    2*max < 2^(B-1).  HIGH holds the offset 2^(B-1) in every field and ONES
    holds 1.  For a pair (a, c), field b of
    (HIGH - P[a]) + P[c] + w(a,c)*ONES is 2^(B-1) + w(a,c) + w(c,b) - w(a,b),
    which lies in [0, 2^B), so no borrow or carry crosses a field.  Its top
    bit is clear exactly when b violates the inequality, so one AND with
    HIGH checks every b at once.

    Pivot c is skipped for row a when w(a,c) + low(c) >= top(a), where
    low(c) is the least off-diagonal weight of row c and top(a) the largest
    weight of row a.  The skip is exact: for every b != c,
    w(a,b) <= top(a) <= w(a,c) + low(c) <= w(a,c) + w(c,b), and b = c holds
    trivially.  One packed subtraction of P[a] plus the packed lows from
    (top(a) - 1)*ONES + HIGH marks the pivots that remain.
    """
    weight_class = WeightClass(weight_class)
    if n < 2:
        raise ValidationError("instance needs at least 2 vertices")
    if len(weights) != n or any(len(row) != n for row in weights):
        raise ValidationError("weight matrix must be n x n")

    flat = _byte_matrix(weights) if weight_class is WeightClass.ONE_TWO else None
    if flat is None:
        all_int = _int_rows or all(set(map(type, row)) == {int}
                                   for row in weights)
        w = tuple(tuple(row) if all_int else tuple(map(_as_weight, row))
                  for row in weights)
        low = [min(row[:i] + row[i + 1:]) for i, row in enumerate(w)]
        i = next((i for i, least in enumerate(low) if least < 0), None)
        if i is not None:
            j = next(j for j, x in enumerate(w[i]) if j != i and x < 0)
            raise ValidationError(f"negative weight at ({i},{j})",
                                  code="weight-class-violation")
    else:
        flat[::n + 1] = bytes(n)

    seen: set[int] = set()
    norm_groups = []
    for group in groups:
        g = tuple(sorted(group))
        if len(g) < 2:
            raise ValidationError(f"terminal group {g} has fewer than 2 vertices",
                                  code="unit-group")
        if len(set(g)) != len(g):
            raise ValidationError(f"terminal group {g} repeats a vertex",
                                  code="partition-overlap")
        for v in g:
            if not 0 <= v < n:
                raise ValidationError(f"vertex {v} out of range")
            if v in seen:
                raise ValidationError(f"vertex {v} appears in two groups",
                                      code="partition-overlap")
            seen.add(v)
        norm_groups.append(g)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        raise ValidationError(f"vertices {missing} belong to no terminal group",
                              code="partition-overlap")
    norm_groups.sort()

    if symmetric and (tuple(zip(*w)) != w if flat is None else
                      b"".join(flat[i::n] for i in range(n)) != flat):
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if weights[i][j] != weights[j][i])
        raise ValidationError(
            f"asymmetric weights at ({i},{j}) in symmetric instance")
    if weight_class in (WeightClass.GENERAL_METRIC, WeightClass.ONE_TWO) and not symmetric:
        raise ValidationError(f"weight class {weight_class.value} requires symmetry")
    if weight_class is WeightClass.ASYMMETRIC_METRIC and symmetric:
        raise ValidationError("asymmetric-metric instances must set symmetric=False")

    if weight_class is not WeightClass.ONE_TWO:
        _check_triangles(n, w, low, all_int)
        return Instance(n=n, weights=w, symmetric=symmetric,
                        weight_class=weight_class, groups=tuple(norm_groups))

    if flat is None or flat.translate(None, b"\x01\x02") != bytes(n):
        bad = next(((i, j) for i, row in enumerate(weights)
                    for j, x in enumerate(row) if j != i and x not in (1, 2)),
                   None)
        if bad is not None:
            i, j = bad
            raise ValidationError(f"weight {weights[i][j]} at ({i},{j}) "
                                  "outside {1,2}", code="weight-class-violation")
        # the byte read failed only on a Fraction equal to 1 or 2 or on
        # the ignored diagonal
        flat = bytearray(0 if i == j else int(x) for i, row in enumerate(w)
                         for j, x in enumerate(row))
    rows = [flat[k:k + n] for k in range(0, n * n, n)]
    inst = Instance(n=n, weights=tuple(map(tuple, rows)), symmetric=symmetric,
                    weight_class=weight_class, groups=tuple(norm_groups))
    inst.__dict__["_one_masks"] = tuple(
        int(row.translate(_ONE_BITS)[::-1], 2) for row in rows)
    return inst


def _byte_matrix(weights: Sequence[Sequence[Weight]]) -> bytearray | None:
    """The rows of ``weights`` joined into one buffer, or None when a cell is
    no int in range(256).  A bytes or bytearray row is taken as it is; any
    other row is read item by item, so an array of wider items is never
    read as its raw bytes."""
    try:
        return bytearray().join(
            row if isinstance(row, (bytes, bytearray)) else bytes(iter(row))
            for row in weights)
    except (TypeError, ValueError):
        return None


# array typecodes by item size, for packing rows of small ints in C
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _pack(row: Sequence[int], size: int) -> int:
    """Non-negative ``row`` as one int, entry b in bytes [b*size, (b+1)*size)
    from the low end."""
    code = _ARRAY_CODES.get(size)
    if code:
        return int.from_bytes(array(code, row).tobytes(), sys.byteorder)
    data = b"".join(map(int.to_bytes, row, repeat(size), repeat("little")))
    return int.from_bytes(data, "little")


def _check_triangles(n: int, w: tuple[tuple[Weight, ...], ...],
                     low: list[Weight], all_int: bool) -> None:
    """Raise on the first ordered triple (a, b, c) of distinct vertices with
    w(a,b) > w(a,c) + w(c,b), using the packed rows and the pivot skip
    :func:`validate_instance` describes; ``low[c]`` is row c's least
    off-diagonal weight."""
    if all_int:
        rows = [list(row) for row in w]
        for a in range(n):
            rows[a][a] = 0
    else:
        scale = math.lcm(*(x.denominator for row in w for x in row))
        rows = [[0 if a == b else x.numerator * (scale // x.denominator)
                 for b, x in enumerate(row)] for a, row in enumerate(w)]
        low = [x.numerator * (scale // x.denominator) for x in low]
    top = list(map(max, rows))
    size = ((2 * max(top)).bit_length() + 8) // 8
    width = 8 * size
    packed = [_pack(row, size) for row in rows]
    lows = _pack(low, size)
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    high = ones << (width - 1)
    for a, row in enumerate(rows):
        base = high - packed[a]
        # top bit of field c set <=> w(a,c) + low(c) <= top(a) - 1
        pivots = (base + (top[a] - 1) * ones - lows) & high
        while pivots:
            bit = pivots & -pivots
            pivots ^= bit
            c = bit.bit_length() // width - 1
            if (base + packed[c] + row[c] * ones) & high != high:
                # the first violating triple in (a, b, c) order
                b, c = next((b, c) for b in range(n) for c in range(n)
                            if row[b] > row[c] + rows[c][b])
                raise ValidationError(
                    f"triangle violation: w({a},{b}) > w({a},{c}) + w({c},{b})",
                    code="triangle-violation")


def _structural_violations(inst: Instance, cover: CycleCover) -> list[str]:
    """Cycle-shape checks only; feasibility against the groups is separate."""
    violations: list[str] = []
    seen: set[int] = set()
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    for idx, cyc in enumerate(cover.cycles):
        if any(not 0 <= v < inst.n for v in cyc):
            violations.append(f"cycle {idx} uses out-of-range vertices")
            continue
        if len(set(cyc)) != len(cyc):
            violations.append(f"cycle {idx} repeats a vertex")
            continue
        overlap = seen.intersection(cyc)
        if overlap:
            violations.append(f"overlap: vertices {sorted(overlap)} in two cycles")
        seen.update(cyc)
        if cover.directed:
            if len(cyc) < 2:
                violations.append(f"cycle {idx} shorter than 2")
        elif len(cyc) == 2:
            if frozenset(cyc) not in pair_set:
                violations.append(
                    f"illegal 2-cycle {tuple(cyc)}: not a size-2 terminal group")
        elif len(cyc) < 3:
            violations.append(f"cycle {idx} shorter than 3")
    return violations


def validate_solution(inst: Instance, cover: CycleCover) -> FeasibilityReport:
    """Full feasibility report: structure, spanning, and group placement,
    and the cover's cost whenever every cycle is well formed."""
    violations = _structural_violations(inst, cover)
    cost = None if violations else sum(cycle_cost(inst, cyc)
                                       for cyc in cover.cycles)
    covered = cover.covered_vertices()
    missing = sorted(set(range(inst.n)) - covered)
    if missing:
        violations.append(f"non-spanning: vertices {missing} uncovered")
    cycle_of: dict[int, int] = {}
    for idx, cyc in enumerate(cover.cycles):
        for v in cyc:
            cycle_of.setdefault(v, idx)
    for group in inst.groups:
        homes = {cycle_of[v] for v in group if v in cycle_of}
        if len(homes) > 1:
            violations.append(f"split group {group}: spread over cycles {sorted(homes)}")
    return FeasibilityReport(feasible=not violations,
                             violations=tuple(violations), cost=cost)


def arcs_weight(inst: Instance, arcs: Iterable[tuple[int, int]]) -> Weight:
    """Sum of w(u, v) over the arcs (u, v) of ``arcs``, taken in order: the
    one weight sum over an arc, edge or path list."""
    weights = inst.weights
    total: Weight = 0
    for u, v in arcs:
        total += weights[u][v]
    return total


def cycle_cost(inst: Instance, cycle: Sequence[int]) -> Weight:
    """Weight of one cycle, following arc direction on asymmetric instances.

    A pair 2-cycle (u, v) of a symmetric instance costs w(u,v) + w(v,u),
    which is twice its edge."""
    return arcs_weight(inst, zip(cycle, cycle[1:] + cycle[:1]))


def cover_cost(inst: Instance, cover: CycleCover) -> Weight:
    """Total edge weight of the cover; a pair 2-cycle costs twice its edge."""
    violations = _structural_violations(inst, cover)
    if violations:
        raise InvalidCoverError("; ".join(violations))
    return sum(cycle_cost(inst, cyc) for cyc in cover.cycles)


def count_weight2_edges(inst: Instance, cover: CycleCover) -> int:
    """Number of weight-2 edges used by a cover of a {1,2} instance."""
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("weight-2 edge count only applies to one-two instances")
    count = 0
    for cyc in cover.cycles:
        k = len(cyc)
        for i in range(k):
            if inst.w(cyc[i], cyc[(i + 1) % k]) == 2:
                count += 1
    return count


# ---------------------------------------------------------------------------
# graph primitives shared by the pipelines and oracles


def find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


def successor_cycles(succ: Sequence[int]) -> list[list[int]]:
    """Cycles of the permutation v -> succ[v], each from its lowest vertex,
    in order of that vertex."""
    seen = [False] * len(succ)
    cycles = []
    for v in range(len(succ)):
        cyc = []
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = succ[v]
        if cyc:
            cycles.append(cyc)
    return cycles


def components(n: int, edges: Iterable[Sequence[int]]) -> list[list[int]]:
    """Connected components of vertices 0..n-1 under ``edges`` (pairs, or
    tuples whose first two fields are the ends), isolated vertices included,
    each a sorted list, in order of their lowest vertex."""
    parent = list(range(n))
    for e in edges:
        parent[find(parent, e[0])] = find(parent, e[1])
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(parent, v), []).append(v)
    return list(comps.values())


def euler_shortcut(n: int, edges: Sequence[tuple[int, int]],
                   directed: bool) -> list[list[int]]:
    """Walk an Euler tour of each component of a multigraph and keep the
    first visit of each vertex, one vertex sequence per component.

    Tours start at each component's lowest vertex and always take the
    lowest unused neighbour, the lowest edge index among parallel edges
    (Hierholzer).  Arcs are followed tail to head when ``directed``.  The
    caller checks that every degree is even (every vertex balanced), so
    that each walk is a closed tour of its component; isolated vertices
    get no sequence.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        if not directed:
            adj[v].append((u, eid))
    for out in adj:
        out.sort(reverse=True)  # pop() takes the lowest neighbour first
    used = [False] * len(edges)
    seen = [False] * n
    walks = []
    for start in range(n):
        if seen[start] or not adj[start]:
            continue
        stack = [start]
        tour: list[int] = []
        while stack:
            out = adj[stack[-1]]
            while out and used[out[-1][1]]:
                out.pop()
            if out:
                v, eid = out.pop()
                used[eid] = True
                stack.append(v)
            else:
                tour.append(stack.pop())
        walk = []
        for v in reversed(tour):
            if not seen[v]:
                seen[v] = True
                walk.append(v)
        walks.append(walk)
    return walks


# ---------------------------------------------------------------------------
# generators


def _split_groups(n: int, sizes: Sequence[int], rng: Random) -> list[list[int]]:
    if sum(sizes) != n or any(s < 2 for s in sizes):
        raise ValidationError(f"group sizes {list(sizes)} do not partition {n} "
                              "vertices into parts of size >= 2")
    order = list(range(n))
    rng.shuffle(order)
    groups = []
    at = 0
    for s in sizes:
        groups.append(sorted(order[at:at + s]))
        at += s
    return groups


def generate_instance(kind: str, n: int, groups_spec: Sequence[int],
                      seed: int) -> Instance:
    """Deterministic random instance of the requested kind.

    kind: ``euclidean`` (scaled planar distances, metric by construction),
    ``one-two`` (random {1,2} weights), or ``asymmetric`` (random arc weights
    closed under shortest paths).
    """
    rng = Random(seed)
    groups = _split_groups(n, groups_spec, rng)

    if kind == "euclidean":
        span = 50 * n
        points: set[tuple[int, int]] = set()
        while len(points) < n:
            points.add((rng.randrange(span), rng.randrange(span)))
        pts = sorted(points)
        rng.shuffle(pts)
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                # ceil keeps the rounded distances a metric
                d = math.isqrt(dx * dx + dy * dy)
                if d * d < dx * dx + dy * dy:
                    d += 1
                w[i][j] = w[j][i] = d
        return validate_instance(n, w, True, WeightClass.GENERAL_METRIC, groups)

    if kind == "one-two":
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = w[j][i] = rng.choice((1, 2))
        return validate_instance(n, w, True, WeightClass.ONE_TWO, groups)

    if kind == "asymmetric":
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    w[i][j] = rng.randrange(1, 20 * n)
        # metric closure via Floyd-Warshall
        for k in range(n):
            for i in range(n):
                wik = w[i][k]
                for j in range(n):
                    if i != j and i != k and j != k:
                        d = wik + w[k][j]
                        if d < w[i][j]:
                            w[i][j] = d
        return validate_instance(n, w, False, WeightClass.ASYMMETRIC_METRIC, groups)

    raise ValidationError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# file formats (text, line oriented, canonical and round-trip exact)


# the only weight tokens format_instance writes; Python's int and Fraction
# also take "+1", "1_0" and non-ASCII digits, which the format refuses
_WEIGHT_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# ASCII digit -> its value, to read a row of single digits in one pass
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _too_long(what: str, token: str) -> FormatError:
    """A token in the grammar with more digits than int reads from text."""
    return FormatError(f"bad {what} {token[:12]!r}...: {len(token)} characters,"
                       f" over the {sys.get_int_max_str_digits()}-digit limit")


def _parse_weight(token: str) -> Weight:
    if not _WEIGHT_TOKEN.fullmatch(token):
        raise FormatError(f"bad weight token {token!r}")
    try:
        if "/" in token:
            return Fraction(token)
        return int(token)
    except ZeroDivisionError as exc:
        raise FormatError(f"bad weight token {token!r}") from exc
    except ValueError as exc:  # the grammar holds, so only the length fails
        raise _too_long("weight token", token) from exc


# the only characters of a row that json may read
_INT_ROW_CHARS = b"0123456789 -"
_raw_decode = None  # json's C decoder, bound on first use


def _json_ints(text: str) -> list:
    """json's C decoder on ``text``, a json array of arrays of ints,
    without whitespace, so the decode ends where ``text`` ends.
    Raises ValueError where json refuses ``text``."""
    global _raw_decode
    if _raw_decode is None:
        # imported on first use, to keep it out of the import time
        import json
        _raw_decode = json.JSONDecoder().raw_decode
    return _raw_decode(text)[0]


def _is_int_text(text: str) -> bool:
    """Whether ``text`` holds only digits, spaces and "-"."""
    return text.isascii() and not text.encode().translate(None, _INT_ROW_CHARS)


def _parse_int_block(block: list[str], n: int) -> list[list[int]] | None:
    """The n weight rows ``block`` of an int matrix, from one json call on
    the rows with their spaces made commas: json's ints,
    -?(0|[1-9][0-9]*), are exact ints and tokens of the grammar with the
    same value.  None when n is 0, when
    ``block`` has not n rows, when a row holds a character other than a
    digit, a space or "-", when json refuses a token or when a row has not
    n entries: the caller then reads the rows one by one, which raises the
    error of the first bad row."""
    if n == 0 or len(block) != n or not all(map(_is_int_text, block)):
        return None
    # commas row by row, so that one copy of the whole block is made
    cells = [row.replace(" ", ",") for row in block]
    cells[0] = "[[" + cells[0]
    cells[-1] += "]]"
    try:
        rows = _json_ints("],[".join(cells))
    except ValueError:
        return None
    if any(len(row) != n for row in rows):
        return None
    return rows


def _parse_weight_row(line: str) -> list[Weight] | bytearray:
    """Tokens of one weight row.  A row of single ASCII digits split by
    single spaces, as every {1,2} row is written, is read in one pass into
    a bytearray, which :func:`validate_instance` joins into its byte
    matrix as it is; any other row goes token by token through
    :func:`_parse_weight`.  :func:`parse_instance` reads the rows of a
    class other than ``onetwo`` here only where :func:`_parse_int_block`
    refuses them."""
    if line[1:2] == " " and line[1::2].count(" ") == len(line) // 2:
        digits = line[::2]
        if digits.isascii():
            # bytes.isdigit is a table lookup per byte, str.isdigit a
            # Unicode lookup per character
            data = digits.encode()
            if data.isdigit():
                return bytearray(data.translate(_DIGIT_VALUES))
    return [_parse_weight(tok) for tok in line.split()]


def _parse_int(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise FormatError(f"bad {what} {token!r}")
    try:
        return int(token)
    except ValueError as exc:
        raise _too_long(what, token) from exc


def format_instance(inst: Instance) -> str:
    lines = ["smc 1", f"n {inst.n}",
             f"mode {'symmetric' if inst.symmetric else 'asymmetric'}",
             f"class {_CLASS_TOKENS[inst.weight_class]}",
             f"groups {len(inst.groups)}"]
    for group in inst.groups:
        lines.append(" ".join(map(str, group)))
    for i, row in enumerate(inst.weights):
        # str writes a Fraction with denominator 1 as its numerator
        tokens = list(map(str, row))
        tokens[i] = "0"
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Read the text format: ``smc 1``, ``n``, ``mode``, ``class`` and
    ``groups`` lines, one line of vertex ids per group, then n weight rows.
    Counts and vertex ids are [0-9]+ and weights -?[0-9]+(/[0-9]+)?; any
    other token raises FormatError.  The rows of a class other than
    ``onetwo`` are read as one block where :func:`_parse_int_block` takes
    them, else row by row."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or lines[0] != "smc 1":
        raise FormatError("missing 'smc 1' header")

    def expect(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise FormatError(f"truncated file: expected '{key}'")
        parts = lines[idx].split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>', got {lines[idx]!r}")
        return parts[1]

    n = _parse_int(expect(1, "n"), "vertex count")
    mode = expect(2, "mode")
    if mode not in ("symmetric", "asymmetric"):
        raise FormatError(f"bad mode {mode!r}")
    cls_token = expect(3, "class")
    if cls_token not in _TOKEN_CLASSES:
        raise FormatError(f"bad class {cls_token!r}")
    k = _parse_int(expect(4, "groups"), "group count")
    at = 5
    groups = []
    for _ in range(k):
        if at >= len(lines):
            raise FormatError("truncated file: missing group line")
        groups.append([_parse_int(tok, "vertex") for tok in lines[at].split()])
        at += 1
    weight_class = _TOKEN_CLASSES[cls_token]
    rows = (None if weight_class is WeightClass.ONE_TWO
            else _parse_int_block(lines[at:at + n], n))
    int_rows = rows is not None
    if int_rows:
        at += n
    else:
        rows = []
        for _ in range(n):
            if at >= len(lines):
                raise FormatError("truncated file: missing weight row")
            row = _parse_weight_row(lines[at])
            if len(row) != n:
                raise FormatError(
                    f"weight row has {len(row)} entries, expected {n}")
            rows.append(row)
            at += 1
    if at != len(lines):
        raise FormatError("trailing content after weight rows")
    for i in range(n):
        rows[i][i] = 0  # diagonal ignored
    return validate_instance(n, rows, mode == "symmetric", weight_class,
                             groups, _int_rows=int_rows)


def format_solution(cover: CycleCover) -> str:
    lines = []
    for cyc, flag in zip(cover.cycles, cover.pair_flags):
        line = " ".join(str(v) for v in cyc)
        if flag:
            line += " pair"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_solution(text: str, directed: bool = False) -> CycleCover:
    """Read one cycle per line, vertex ids [0-9]+.  The marker ``pair``
    ends exactly the lines of the 2-vertex cycles of an undirected cover,
    as :func:`format_solution` writes them; a line that breaks that rule
    raises FormatError."""
    cycles = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        toks = ln.split()
        flag = toks[-1] == "pair"
        if flag:
            toks = toks[:-1]
        if not all(t.isascii() and t.isdigit() for t in toks):
            raise FormatError(f"bad solution line {ln!r}")
        if flag != (not directed and len(toks) == 2):
            raise FormatError(f"bad solution line {ln!r}: 'pair' ends exactly "
                              "the 2-vertex cycles of an undirected cover")
        cycles.append(tuple(map(int, toks)))
    return CycleCover(cycles=tuple(cycles), directed=directed)

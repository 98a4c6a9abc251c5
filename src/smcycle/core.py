"""Instance and solution model for the Steiner multicycle solvers.

An instance is a complete weighted (di)graph whose vertex set is partitioned
into terminal groups of size at least two.  Solutions are covers by
vertex-disjoint cycles; a cover is feasible when it spans every vertex and
keeps each terminal group inside a single cycle.  Length-2 cycles are legal
only in the undirected case, only for a group of exactly two vertices, and
are realized by a duplicated pair edge whose cost counts twice.

All weights are exact (int or Fraction); nothing in this module touches
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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

    def pair_groups(self) -> list[tuple[int, int]]:
        """Size-2 groups, each eligible for a duplicated pair edge."""
        return [(g[0], g[1]) for g in self.groups if len(g) == 2]

    def vertices(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class CycleCover:
    """A set of vertex-disjoint cycles, each a vertex sequence.

    ``pair_flags[i]`` marks cycle ``i`` as a length-2 cycle realized by a
    duplicated pair edge (undirected only).  Directed cycles follow the
    listed vertex order.
    """

    cycles: tuple[tuple[int, ...], ...]
    directed: bool = False
    pair_flags: tuple[bool, ...] = ()

    def __post_init__(self):
        if not self.pair_flags:
            object.__setattr__(self, "pair_flags", (False,) * len(self.cycles))
        if len(self.pair_flags) != len(self.cycles):
            raise InvalidCoverError("pair_flags length does not match cycles")

    def covered_vertices(self) -> set[int]:
        seen: set[int] = set()
        for cyc in self.cycles:
            seen.update(cyc)
        return seen


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.feasible


def make_cover(cycles: Iterable[Sequence[int]], directed: bool = False,
               pair_flags: Iterable[bool] | None = None) -> CycleCover:
    cyc = tuple(tuple(c) for c in cycles)
    flags = tuple(pair_flags) if pair_flags is not None else (False,) * len(cyc)
    return CycleCover(cycles=cyc, directed=directed, pair_flags=flags)


def _as_weight(value) -> Weight:
    if isinstance(value, (int, Fraction)):
        return value
    raise ValidationError(f"weight {value!r} is not an exact rational",
                          code="weight-class-violation")


def validate_instance(n: int, weights: Sequence[Sequence[Weight]],
                      symmetric: bool, weight_class: WeightClass | str,
                      groups: Sequence[Sequence[int]]) -> Instance:
    """Check every instance invariant and return a frozen Instance.

    Raises ValidationError with codes ``partition-overlap``, ``unit-group``,
    ``triangle-violation`` or ``weight-class-violation``.
    """
    weight_class = WeightClass(weight_class)
    if n < 2:
        raise ValidationError("instance needs at least 2 vertices")
    if len(weights) != n or any(len(row) != n for row in weights):
        raise ValidationError("weight matrix must be n x n")

    w = tuple(tuple(_as_weight(x) for x in row) for row in weights)
    for i in range(n):
        for j in range(n):
            if i != j and w[i][j] < 0:
                raise ValidationError(f"negative weight at ({i},{j})",
                                      code="weight-class-violation")

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

    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if w[i][j] != w[j][i]:
                    raise ValidationError(
                        f"asymmetric weights at ({i},{j}) in symmetric instance")
    if weight_class in (WeightClass.GENERAL_METRIC, WeightClass.ONE_TWO) and not symmetric:
        raise ValidationError(f"weight class {weight_class.value} requires symmetry")
    if weight_class is WeightClass.ASYMMETRIC_METRIC and symmetric:
        raise ValidationError("asymmetric-metric instances must set symmetric=False")

    if weight_class is WeightClass.ONE_TWO:
        for i in range(n):
            for j in range(n):
                if i != j and w[i][j] not in (1, 2):
                    raise ValidationError(
                        f"weight {w[i][j]} at ({i},{j}) outside {{1,2}}",
                        code="weight-class-violation")
    else:
        # triangle inequality over all ordered triples
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                wab = w[a][b]
                for c in range(n):
                    if c == a or c == b:
                        continue
                    if wab > w[a][c] + w[c][b]:
                        raise ValidationError(
                            f"triangle violation: w({a},{b}) > w({a},{c}) + w({c},{b})",
                            code="triangle-violation")

    return Instance(n=n, weights=w, symmetric=symmetric,
                    weight_class=weight_class, groups=tuple(norm_groups))


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
            if cover.pair_flags[idx]:
                violations.append(f"cycle {idx}: pair flag on a directed cycle")
        else:
            if len(cyc) == 2:
                if not cover.pair_flags[idx]:
                    violations.append(f"illegal 2-cycle {tuple(cyc)}: not pair-flagged")
                elif frozenset(cyc) not in pair_set:
                    violations.append(
                        f"illegal 2-cycle {tuple(cyc)}: not a size-2 terminal group")
            elif len(cyc) < 3:
                violations.append(f"cycle {idx} shorter than 3")
            elif cover.pair_flags[idx]:
                violations.append(f"cycle {idx}: pair flag on a length-{len(cyc)} cycle")
    return violations


def validate_solution(inst: Instance, cover: CycleCover) -> FeasibilityReport:
    """Full feasibility report: structure, spanning, and group placement."""
    violations = _structural_violations(inst, cover)
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
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def cycle_cost(inst: Instance, cycle: Sequence[int],
               pair_flag: bool = False) -> Weight:
    """Weight of one cycle, following arc direction on asymmetric instances."""
    if pair_flag:
        u, v = cycle
        return 2 * inst.w(u, v)
    total: Weight = 0
    k = len(cycle)
    for i in range(k):
        total += inst.w(cycle[i], cycle[(i + 1) % k])
    return total


def cover_cost(inst: Instance, cover: CycleCover) -> Weight:
    """Total edge weight of the cover; a pair 2-cycle costs twice its edge."""
    violations = _structural_violations(inst, cover)
    if violations:
        raise InvalidCoverError("; ".join(violations))
    total: Weight = 0
    for cyc, flag in zip(cover.cycles, cover.pair_flags):
        total += cycle_cost(inst, cyc, flag)
    return total


def count_weight2_edges(inst: Instance, cover: CycleCover) -> int:
    """Number of weight-2 edges used by a cover of a {1,2} instance."""
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("weight-2 edge count only applies to one-two instances")
    count = 0
    for cyc, flag in zip(cover.cycles, cover.pair_flags):
        if flag:
            u, v = cyc
            count += 2 * (1 if inst.w(u, v) == 2 else 0)
            continue
        k = len(cyc)
        for i in range(k):
            if inst.w(cyc[i], cyc[(i + 1) % k]) == 2:
                count += 1
    return count


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


def _format_weight(x: Weight) -> str:
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)


def _parse_weight(token: str) -> Weight:
    try:
        if "/" in token:
            return Fraction(token)
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad weight token {token!r}") from exc


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise FormatError(f"bad {what} {token!r}") from exc


def format_instance(inst: Instance) -> str:
    lines = ["smc 1", f"n {inst.n}",
             f"mode {'symmetric' if inst.symmetric else 'asymmetric'}",
             f"class {_CLASS_TOKENS[inst.weight_class]}",
             f"groups {len(inst.groups)}"]
    for group in inst.groups:
        lines.append(" ".join(str(v) for v in group))
    for i in range(inst.n):
        row = ["0" if i == j else _format_weight(inst.w(i, j))
               for j in range(inst.n)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    rows = []
    for _ in range(n):
        if at >= len(lines):
            raise FormatError("truncated file: missing weight row")
        row = [_parse_weight(tok) for tok in lines[at].split()]
        if len(row) != n:
            raise FormatError(f"weight row has {len(row)} entries, expected {n}")
        rows.append(row)
        at += 1
    if at != len(lines):
        raise FormatError("trailing content after weight rows")
    for i in range(n):
        rows[i][i] = 0  # diagonal ignored
    return validate_instance(n, rows, mode == "symmetric",
                             _TOKEN_CLASSES[cls_token], groups)


def format_solution(cover: CycleCover) -> str:
    lines = []
    for cyc, flag in zip(cover.cycles, cover.pair_flags):
        line = " ".join(str(v) for v in cyc)
        if flag:
            line += " pair"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_solution(text: str, directed: bool = False) -> CycleCover:
    cycles = []
    flags = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        toks = ln.split()
        flag = toks[-1] == "pair"
        if flag:
            toks = toks[:-1]
        try:
            cycles.append(tuple(int(t) for t in toks))
        except ValueError as exc:
            raise FormatError(f"bad solution line {ln!r}") from exc
        flags.append(flag)
    return CycleCover(cycles=tuple(cycles), directed=directed,
                      pair_flags=tuple(flags))

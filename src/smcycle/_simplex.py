"""Exact two-phase simplex for small dense linear programs.

Minimizes c.x subject to per-row <= or >= constraints and x >= 0 in exact
integer arithmetic.

Tableau.  Each input row, coefficients and right-hand side, is multiplied
by the lcm ``L`` of its denominators (1 for an int row); a row whose
right-hand side is negative is negated, which flips its sense.  Row ``i``
gets a slack column holding 1 (<=) or -1 (>=) in that row alone, which
rescales the slack by ``L``.  A tableau row is ``n`` structural cells,
``m`` slack cells and the right-hand side.  The artificial variable of >=
row ``i`` has index ``n + m + i`` and phase-1 cost ``1 / L`` but no column
of its own: in every tableau its column is minus the slack column of row
``i``, and its reduced cost is read off the slack's.

Arithmetic.  The starting basis (slacks of <= rows, artificials of >=
rows) is the identity, and ``d``, the absolute determinant of the current
basis, times any true tableau row is an integer vector.  A stored row is
its true row times a positive scale, the value of its basic cell.  A pivot
on a row ``P`` whose entering cell is ``p`` at scale ``d`` (rescaled to
``d`` first if needed) makes ``p`` the new determinant.  Any other row
``R``, at scale ``s`` and with entering cell ``f``, becomes
``R - f * P / p`` at scale ``s`` when that is integral, which touches only
the nonzero cells of ``P`` and covers nearly every update, and otherwise
the Bareiss update ``(p * R - f * P) / s`` at scale ``p``; both divisions
are exact.  The objective row is updated in the same way, its scale kept
beside it.  No Fraction is built until ``x`` is read off as right-hand
side over scale.

Pivot rules.  A positive row or column scale changes no sign and no ratio
the rules read, so the pivots are those of the rational tableau: Bland's
rule (smallest eligible column enters, ties on the leaving row broken by
the smallest basic index) prevents cycling and makes every pivot sequence
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import SmcError

GE = ">="
LE = "<="

# (pivot row, its scale p, gcd of its cells, the columns of its nonzero cells)
_Pivot = tuple[list[int], int, int, list[int]]


@dataclass
class LpResult:
    status: str  # "optimal" or "infeasible"
    x: list[Fraction]
    objective: Fraction


def _integers(values: Sequence) -> tuple[list[int], int]:
    """int or Fraction ``values`` times L, the lcm of their denominators,
    and L."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(rows: list[list[int]], basis: list[int], m: int, r: int,
           col: int, d: int) -> _Pivot:
    """Pivot column ``col`` into row ``r``, where ``d`` is the determinant
    of the basis; the returned scale is the new determinant."""
    nm = len(rows[r]) - 1
    j, sign = (col, 1) if col < nm else (col - m, -1)
    prow = rows[r]
    b = basis[r]
    s = prow[b] if b < nm else -prow[b - m]
    if s != d:
        prow = [a * d // s for a in prow]
    p = sign * prow[j]
    if p < 0:
        prow = [-a for a in prow]
        p = -p
    rows[r] = prow
    basis[r] = col
    pivot = (prow, p, gcd(*prow), [k for k, v in enumerate(prow) if v])
    for i, row in enumerate(rows):
        f = row[j]
        if f and i != r:
            b = basis[i]
            _eliminate(row, row[b] if b < nm else -row[b - m], sign * f, pivot)
    return pivot


def _eliminate(row: list[int], s: int, f: int, pivot: _Pivot) -> int:
    """Subtract ``f / p`` times the pivot row from ``row``, at scale ``s``,
    in place; return the new scale of ``row``."""
    prow, p, g, nonzero = pivot
    if f * g % p:  # f * prow / p is not integral
        row[:] = [(p * a - f * v) // s for a, v in zip(row, prow)]
        return p
    for k in nonzero:
        row[k] -= f * prow[k] // p
    return s


def _run_simplex(rows: list[list[int]], basis: list[int], m: int,
                 z: list[int], d: int,
                 artificials: Sequence[tuple[int, int]]) -> int:
    """Minimize from objective row ``z``, at scale ``d``, in place.

    The stored columns may enter, and so may the ``artificials``, given as
    (index, cost times the scale of ``z``).  Returns the determinant.
    """
    nm = len(z) - 1
    zs = d
    while True:
        enter = next((j for j in range(nm) if z[j] < 0), -1)
        if enter >= 0:
            j, sign, f = enter, 1, z[enter]
        else:
            enter, w = next(((k, w) for k, w in artificials
                             if z[k - m] > zs * w), (-1, 0))
            if enter < 0:
                return d
            j, sign, f = enter - m, -1, zs * w - z[enter - m]
        leave = -1
        bn = bd = 0  # best ratio as fraction bn/bd, bd > 0
        for i, row in enumerate(rows):
            a = sign * row[j]
            if a > 0:
                r = row[-1]
                if leave < 0 or r * bd < bn * a or (
                        r * bd == bn * a and basis[i] < basis[leave]):
                    bn, bd = r, a
                    leave = i
        if leave < 0:
            raise SmcError("unbounded linear program")
        pivot = _pivot(rows, basis, m, leave, enter, d)
        zs = _eliminate(z, zs, f, pivot)
        d = pivot[1]


def solve_min_lp(c: Sequence, rows: Sequence[tuple[Sequence, str, object]]
                 ) -> LpResult:
    """Minimize c.x over x >= 0 subject to ``rows``.

    rows: (coefficients, sense, rhs) with sense '>=' or '<='; every number
    is an int or a Fraction.
    """
    n = len(c)
    m = len(rows)
    tab: list[list[int]] = []
    basis: list[int] = []
    ge_scales: list[tuple[int, int]] = []  # (artificial, L of its row)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise SmcError("row length does not match objective")
        row, scale = _integers([*coeffs, rhs])
        if row[-1] < 0:
            row = [-v for v in row]
            sense = GE if sense == LE else LE
        cells = row[:n] + [0] * m + row[n:]
        if sense == GE:
            cells[n + i] = -1
            basis.append(n + m + i)
            ge_scales.append((n + m + i, scale))
        else:
            cells[n + i] = 1
            basis.append(n + i)
        tab.append(cells)

    # phase 1: minimize the sum of the artificials, with their costs 1 / L
    # times the lcm of the L; priced out against the starting basis, the
    # objective row is minus the cost-weighted sum of the >= rows
    scale = lcm(*(s for _k, s in ge_scales))
    artificials = [(k, scale // s) for k, s in ge_scales]
    z = [0] * (n + m + 1)
    for k, w in artificials:
        z = [a - w * v for a, v in zip(z, tab[k - n - m])]
    d = _run_simplex(tab, basis, m, z, 1, artificials)
    if z[-1] < 0:
        # the objective cell holds minus the scaled artificial total
        return LpResult(status="infeasible", x=[], objective=Fraction(0))

    # drive the artificials left at zero out of the basis; the slack of an
    # artificial's own row is nonzero in its row, so a column is found
    for i in range(m - 1, -1, -1):
        if basis[i] >= n + m:
            col = next(j for j in range(n + m) if tab[i][j])
            d = _pivot(tab, basis, m, i, col, d)[1]

    # phase 2: the artificials no longer enter.  The objective row is
    # priced out at scale d, where d * cells / s is an integer vector.
    cost, _ = _integers(c)
    z = [d * v for v in cost] + [0] * (m + 1)
    for cells, b in zip(tab, basis):
        if b < n and cost[b]:
            k = cost[b] * d
            s = cells[b]
            z = [a - k * v // s for a, v in zip(z, cells)]
    _run_simplex(tab, basis, m, z, d, ())

    x = [Fraction(0)] * n
    for cells, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(cells[-1], cells[b])
    objective = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LpResult(status="optimal", x=x, objective=objective)

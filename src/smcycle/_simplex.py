"""Exact simplex for small dense linear programs, in integer arithmetic.

``solve_min_lp`` minimizes c.x subject to per-row <= or >= constraints and
x >= 0 by the two-phase method.  ``ColumnLp`` (see "Column form") keeps
one tableau whose columns arrive in batches and re-optimises it warm;
both run the same pivot primitive and Bland loop.

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
rows) is the identity, and ``d``, the absolute determinant of the
current basis, times any true tableau row is an integer vector.  A
stored row is its true row times a positive scale, the value of its
basic cell.  A pivot on a row ``P`` whose entering cell is ``p`` at
scale ``d`` (rescaled to ``d`` first if needed) makes ``p`` the new
determinant.  Any other row ``R``, at scale ``s`` and with entering cell
``f``, becomes ``R - f * P / p`` at scale ``s`` when that is integral,
which touches only the nonzero cells of ``P`` and covers nearly every
update.  Otherwise ``R`` is first multiplied by the least ``t`` that
makes ``t * f * P / p`` integral, one C-level pass, and updated in the
same way at scale ``s * t``.  Both ``s * t`` and ``p`` times the true
row are integral, so ``g = gcd(s * t, p)`` times it is too, and the row
is divided down to scale ``g`` when ``g < s * t``.  By induction over
the pivots, a row's scale then divides the one the Bareiss update
``(p * R - f * P) / s`` would have given it, so no cell is ever wider
than under Bareiss.  The objective row is updated in the same way, its
scale kept beside it.  No Fraction is built until ``x`` is read off as
right-hand side over scale.

Pivot rules.  A positive row or column scale changes no sign and no ratio
the rules read, so the pivots are those of the rational tableau: Bland's
rule (smallest eligible column enters, ties on the leaving row broken by
the smallest basic index) prevents cycling and makes every pivot sequence
deterministic.  Columns with no cells of their own (artificials, bound
columns) have the largest indices: they enter only when no stored one can.

Column form.  ``ColumnLp`` minimizes cost.w + sum(u) subject to
A w - u <= b and w, u >= 0, with b >= 0: the dual of a covering LP in
0 <= x <= 1 whose rows are found by separation.  A stored column, a cut
of the covering LP, holds 1 in each of its rows (a row listed twice
holds 2).  Row k's bound x_k <= 1 is the implicit column u_k, -1 in row k
with cost 1: in every tableau it is minus the slack column of row k, so
it is priced and pivoted like an artificial of ``solve_min_lp``, with
index n + m + k.  The slack basis is feasible, so no phase 1 runs, and a
new column leaves the current basis feasible, so each re-optimisation
starts where the last one ended.  The columns known before the first
solve are laid down as the starting tableau: against the slack basis, the
identity at d = 1, a column's cells are its coefficients and its
objective cell is its cost.  A column added later is inserted before the
slacks and priced without a solve: the slack cells of a stored row are
that row of B^-1 at the row's scale, so the new cell is the sum of the
row's slack cells over the column's rows, one ``itemgetter`` sum, and the
objective cell is ``zs * cost`` plus the same sum over the objective
row's slack cells.  The prices x, the solution of the dual max -b.x
subject to A^T x >= -cost and 0 <= x <= 1, are the reduced costs of the
slacks, ``z[slack] / zs``.

Certificate.  Every answer of ``ColumnLp.optimise`` is checked from the
columns as given, not from the tableau: 0 <= x <= 1 and A^T x >= -cost,
w, u >= 0 and A w - u <= b, and cost.w + sum(u) = -b.x.  By weak duality
the two then prove each other optimal; a failure raises ``SmcError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, itemgetter, mul
from typing import Callable, Iterable, Sequence

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


def _cells(ks: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """Getter of the cells ``ks`` of a row, as a sequence for any number of
    cells (``itemgetter`` of one index returns the bare cell)."""
    if len(ks) == 1:
        return itemgetter(slice(ks[0], ks[0] + 1))
    return itemgetter(*ks) if ks else itemgetter(slice(0))


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
    fg = f * g
    if fg % p == 0:
        for k in nonzero:
            row[k] -= f * prow[k] // p
        return s
    # f * prow / p is not integral: scale row by the least t that makes it
    # so, subtract, and divide row and scale down to gcd(s * t, p)
    # (see "Arithmetic" above)
    t = p // gcd(p, fg)
    row[:] = map(mul, row, repeat(t))
    f *= t
    for k in nonzero:
        row[k] -= f * prow[k] // p
    s *= t
    h = s // gcd(s, p)
    if h > 1:
        row[:] = map(floordiv, row, repeat(h))
    return s // h


def _run_simplex(rows: list[list[int]], basis: list[int], m: int,
                 z: list[int], d: int, zs: int,
                 artificials: Sequence[tuple[int, int]]
                 ) -> tuple[int, int, bool]:
    """Minimize from objective row ``z``, at scale ``zs``, in place, where
    ``d`` is the determinant of the basis.

    The stored columns may enter, and so may the ``artificials``, columns
    without cells (phase-1 artificials or ``ColumnLp`` bounds) given as
    (index, cost times the scale of ``z``).  Returns the determinant, the
    scale of ``z`` and whether the minimum is bounded.  An unbounded run
    stops at the entering column with no leaving row, and the returned
    determinant and scale are those of the tableau it leaves.
    """
    nm = len(z) - 1
    while True:
        enter = next((j for j in range(nm) if z[j] < 0), -1)
        if enter >= 0:
            j, sign, f = enter, 1, z[enter]
        else:
            enter, w = next(((k, w) for k, w in artificials
                             if z[k - m] > zs * w), (-1, 0))
            if enter < 0:
                return d, zs, True
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
            return d, zs, False
        pivot = _pivot(rows, basis, m, leave, enter, d)
        zs = _eliminate(z, zs, f, pivot)
        d = pivot[1]


def _unbounded() -> SmcError:
    return SmcError("unbounded linear program", code="unbounded")


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
    # phase 1 is bounded: its objective is a sum of non-negative variables
    d, _, _ = _run_simplex(tab, basis, m, z, 1, 1, artificials)
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
    if not _run_simplex(tab, basis, m, z, d, d, ())[2]:
        raise _unbounded()

    x = [Fraction(0)] * n
    for cells, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(cells[-1], cells[b])
    objective = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LpResult(status="optimal", x=x, objective=objective)


class ColumnLp:
    """Minimize cost.w + sum(u) subject to A w - u <= ``rhs`` and w, u >= 0,
    where ``rhs`` is a non-negative vector and the int columns of A are
    ``columns``, then any added one at a time (see "Column form" above);
    each column is (its rows, its cost), and u holds one implicit bound
    column per row.

    An int or Fraction ``rhs`` is multiplied by the lcm of its
    denominators, which scales w, u and the objective but not the prices x.
    """

    def __init__(self, rhs: Sequence,
                 columns: Iterable[tuple[Sequence[int], int]] = ()):
        if any(b < 0 for b in rhs):
            raise SmcError("column LP needs a non-negative right-hand side")
        m = len(rhs)
        self.rhs, _ = _integers(rhs)
        # each column as (its rows, its cost)
        self.columns: list[tuple[list[int], int]] = []
        # against the slack basis, the identity at d = zs = 1, a column's
        # cells are its coefficients and its objective cell is its cost
        cells = []
        for rows, cost in columns:
            column = [0] * m
            for k in rows:
                column[k] += 1
            cells.append(column)
            self.columns.append((list(rows), cost))
        n = len(cells)
        self.rows = []
        for i, (structural, b) in enumerate(zip(
                zip(*cells) if cells else repeat((), m), self.rhs)):
            row = [*structural, *[0] * m, b]
            row[n + i] = 1
            self.rows.append(row)
        self.basis = list(range(n, n + m))  # the slack of row i is n + i
        self.z = [cost for _rows, cost in self.columns] + [0] * (m + 1)
        self.zs = 1  # scale of z
        self.d = 1  # determinant of the basis

    def add_column(self, rows: Sequence[int], cost: int) -> None:
        """Append the column holding 1 in each of ``rows`` and 0 elsewhere,
        with ``cost``, priced against the current basis."""
        n = len(self.columns)
        cells = _cells([n + k for k in rows])
        for row in self.rows:
            row.insert(n, sum(cells(row)))
        z = self.z
        z.insert(n, self.zs * cost + sum(cells(z)))
        self.basis = [b + (b >= n) for b in self.basis]
        self.columns.append((list(rows), cost))

    def optimise(self) -> tuple[list[int], int]:
        """Re-optimise from the current basis and return the row prices
        ``x`` as numerators over one positive denominator, in lowest terms.

        Raises ``SmcError`` with code "unbounded" when the LP is unbounded
        (its dual is infeasible), and ``SmcError`` when the certificate
        fails.
        """
        m = len(self.rows)
        nm = len(self.columns) + m
        # d and zs are kept in step with the tableau even when the run
        # stops unbounded, so a later call pivots from a consistent state
        self.d, self.zs, bounded = _run_simplex(
            self.rows, self.basis, m, self.z, self.d, self.zs,
            [(nm + i, 1) for i in range(m)])
        if not bounded:
            raise _unbounded()
        x, xs, w, u, ws = self._solution()
        self._certify(x, xs, w, u, ws)
        g = gcd(xs, *x)
        return [v // g for v in x], xs // g

    def _solution(self) -> tuple[list[int], int, list[int], list[int], int]:
        """The row prices x over ``xs``, and the column values w and the
        bound values u over ``ws``, read off the tableau."""
        m = len(self.rows)
        n = len(self.columns)
        d = self.d
        w = [0] * n
        u = [0] * m
        for row, b in zip(self.rows, self.basis):
            if b < n:
                w[b] = row[-1] * d // row[b]
            elif b >= n + m:  # its cell is minus that of its row's slack
                u[b - n - m] = row[-1] * d // -row[b - m]
        return self.z[n:-1], self.zs, w, u, d

    def _certify(self, x: list[int], xs: int, w: list[int], u: list[int],
                 ws: int) -> None:
        """Raise unless x / xs and (w, u) / ws are feasible and have equal
        objectives, which proves both optimal."""
        rhs = self.rhs
        if any(v < 0 for v in [*x, *w, *u]):
            raise SmcError("column LP certificate: negative value")
        if any(v > xs for v in x):
            raise SmcError("column LP certificate: prices violate a bound")
        load = [-v for v in u]  # A w - u, over ws
        value = sum(u)  # cost.w + sum(u), over ws
        for (rows, cost), wj in zip(self.columns, w):
            if sum(_cells(rows)(x)) < -cost * xs:
                raise SmcError("column LP certificate: prices violate a column")
            if wj:
                value += cost * wj
                for k in rows:
                    load[k] += wj
        if any(t > b * ws for t, b in zip(load, rhs)):
            raise SmcError("column LP certificate: values violate a row")
        if value * xs != -ws * sum(b * v for b, v in zip(rhs, x)):
            raise SmcError("column LP certificate: objectives differ")

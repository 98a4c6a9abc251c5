from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smcycle import _simplex
from smcycle._simplex import GE, LE, solve_min_lp
from smcycle.core import cover_cost, generate_instance, validate_instance
from smcycle.errors import SmcError
from smcycle.metric import approx_metric

F = Fraction


def feasible(x, rows) -> bool:
    if any(v < 0 for v in x):
        return False
    for coeffs, sense, rhs in rows:
        lhs = sum(a * v for a, v in zip(coeffs, x))
        if (lhs < rhs) if sense == GE else (lhs > rhs):
            return False
    return True


def solve_square(a, b):
    """Exact solution of the square system a x = b, or None if singular."""
    k = len(a)
    m = [[F(v) for v in row] + [F(r)] for row, r in zip(a, b)]
    for col in range(k):
        piv = next((i for i in range(col, k) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(k):
            if i != col and m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][k] / m[i][i] for i in range(k)]


def vertex_optimum(c, rows):
    """Minimum of c.x over the vertices of {x >= 0, rows}, or None.

    The region lies in x >= 0, so it is pointed: when it is nonempty it has
    a vertex, and with c >= 0 a vertex attains the minimum.
    """
    n = len(c)
    tight = [(coeffs, rhs) for coeffs, _sense, rhs in rows]
    tight += [([int(i == j) for i in range(n)], 0) for j in range(n)]
    best = None
    for chosen in combinations(tight, n):
        x = solve_square([a for a, _ in chosen], [r for _, r in chosen])
        if x is not None and feasible(x, rows):
            value = sum(ci * xi for ci, xi in zip(c, x))
            best = value if best is None else min(best, value)
    return best


def test_int_rows():
    result = solve_min_lp([1, 1], [([1, 2], GE, 4), ([3, 1], GE, 6)])
    assert result.status == "optimal"
    assert result.x == [F(8, 5), F(6, 5)]
    assert result.objective == F(14, 5)
    assert all(type(v) is Fraction for v in result.x)
    assert type(result.objective) is Fraction


def test_fraction_coefficients_and_rhs():
    rows = [([F(1, 2), F(1, 3)], GE, F(5, 6)), ([F(3, 4), 0], LE, F(3, 2))]
    result = solve_min_lp([F(3, 2), 1], rows)
    # on the first row y = 5/2 - 3x/2, so the cost is 5/2 at every x in
    # [0, 5/3]; Bland's rule settles on the vertex x = 5/3
    assert result.objective == F(5, 2)
    assert result.x == [F(5, 3), 0]
    assert feasible(result.x, rows)


def test_negative_rhs_flips_the_sense():
    # -x - y >= -3 is x + y <= 3, and x - y <= -1 is y - x >= 1
    rows = [([-1, -1], GE, -3), ([1, -1], LE, -1)]
    result = solve_min_lp([-1, -2], rows)
    assert result.x == [0, 3]
    assert result.objective == -6


def test_mixed_senses():
    rows = [([1, 1, 0], GE, 2), ([0, 1, 1], GE, 2), ([1, 0, 1], LE, 1),
            ([0, 1, 0], LE, F(3, 2))]
    c = [2, 3, 1]
    result = solve_min_lp(c, rows)
    assert result.status == "optimal"
    assert feasible(result.x, rows)
    # y >= 3/2 follows from the first three rows, so y = 3/2, x = z = 1/2
    assert result.x == [F(1, 2), F(3, 2), F(1, 2)]
    assert result.objective == vertex_optimum(c, rows) == 6


def test_infeasible():
    result = solve_min_lp([1, 1], [([1, 1], LE, 1), ([1, 1], GE, 2)])
    assert result.status == "infeasible"
    assert result.x == []
    assert result.objective == 0


def test_unbounded_raises():
    with pytest.raises(SmcError, match="unbounded"):
        solve_min_lp([-1, 0], [([1, 0], GE, 1)])


def test_row_length_checked():
    with pytest.raises(SmcError, match="row length"):
        solve_min_lp([1, 1], [([1], GE, 1)])


def spy_pivots(monkeypatch):
    """Record (leaving basic index, entering column) of every pivot."""
    seen = []
    pivot = _simplex._pivot

    def spy(rows, basis, m, r, col, d):
        seen.append((basis[r], col))
        return pivot(rows, basis, m, r, col, d)

    monkeypatch.setattr(_simplex, "_pivot", spy)
    return seen


def test_drive_out_pivots_artificial_left_basic(monkeypatch):
    # y >= 1 and x + y <= 1 pin the point (0, 1).  Phase 1 enters y into
    # the <= row (its slack, index 3, wins the ratio tie against the
    # artificial, index 4), which leaves the artificial of the >= row basic
    # at zero; the drive-out step then pivots x (column 0) in its place.
    seen = spy_pivots(monkeypatch)
    result = solve_min_lp([2, 1], [([0, 1], GE, 1), ([1, 1], LE, 1)])
    assert seen[:2] == [(3, 1), (4, 0)]
    assert result.x == [0, 1]
    assert result.objective == 1


def test_drive_out_redundant_row(monkeypatch):
    # the redundant row 0 >= 0 keeps its artificial basic through phase 1;
    # the drive-out pivots in the row's own slack (index 2), which is
    # nonzero in that row, so no row is ever dropped
    seen = spy_pivots(monkeypatch)
    result = solve_min_lp([1, 2], [([0, 0], GE, 0), ([1, 1], GE, 1)])
    assert (4, 2) in seen
    assert result.x == [1, 0]
    assert result.objective == 1


def test_artificial_reenters_in_phase_one(monkeypatch):
    # found by search: x >= 2 and 2y >= 2 under x + y <= 3.  After two
    # pivots, Bland's rule brings the artificial of x >= 2 (index 7) back
    # in for that of 2y >= 2 (index 5); its column is read off the slack's.
    seen = spy_pivots(monkeypatch)
    rows = [([0, 2], GE, 2), ([1, 1], LE, 3), ([1, 0], GE, 2)]
    result = solve_min_lp([2, 0], rows)
    assert (5, 7) in seen
    assert result.x == [2, 1]
    assert result.objective == 4 == vertex_optimum([2, 0], rows)


numbers = st.one_of(st.integers(-3, 4),
                    st.fractions(min_value=-3, max_value=4, max_denominator=4))


@st.composite
def tiny_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    c = [abs(v) for v in draw(st.lists(numbers, min_size=n, max_size=n))]
    rows = [(draw(st.lists(numbers, min_size=n, max_size=n)),
             draw(st.sampled_from([GE, LE])), draw(numbers))
            for _ in range(m)]
    return c, rows


@settings(max_examples=300, deadline=None)
@given(tiny_lp())
def test_matches_vertex_enumeration(lp):
    c, rows = lp
    result = solve_min_lp(c, rows)
    best = vertex_optimum(c, rows)
    if best is None:
        assert result.status == "infeasible"
    else:
        assert result.status == "optimal"
        assert result.objective == best
        assert feasible(result.x, rows)
        assert sum(ci * xi for ci, xi in zip(c, result.x)) == best


def shifted(inst, delta):
    """The same instance with ``delta`` added to every off-diagonal weight
    (still metric)."""
    w = [[0 if i == j else x + delta for j, x in enumerate(row)]
         for i, row in enumerate(inst.weights)]
    return validate_instance(inst.n, w, True, inst.weight_class, inst.groups)


def test_pinned_metric_cost_sum():
    # Regression pin: a change to the LP layer that moves an optimal vertex
    # (another tie-break, warm start, dual simplex) changes these covers.
    # The sum was recorded with the Fraction-cell tableau this module
    # replaced.
    specs = [(5, [2, 3]), (6, [3, 3]), (7, [2, 2, 3]), (8, [4, 4]),
             (9, [3, 3, 3])]
    instances = [generate_instance("euclidean", n, sizes, seed)
                 for seed in range(3) for n, sizes in specs]
    instances += [shifted(generate_instance("euclidean", 7, [3, 4], 5), F(1, 3)),
                  shifted(generate_instance("euclidean", 8, [2, 3, 3], 6),
                          F(5, 7))]
    total = sum(cover_cost(inst, approx_metric(inst)[0]) for inst in instances)
    assert total == F(306937, 21)

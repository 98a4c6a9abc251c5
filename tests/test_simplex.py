from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from smcycle import _simplex
from smcycle._simplex import GE, LE, ColumnLp, solve_min_lp
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


@st.composite
def covering_batches(draw):
    """Costs c >= 0 and batches of 0/1 >= rows."""
    n = draw(st.integers(1, 3))
    c = draw(st.lists(st.one_of(st.integers(0, 5),
                                st.fractions(0, 5, max_denominator=6)),
                      min_size=n, max_size=n))
    batches = [draw(st.lists(st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.integers(1, 3)), max_size=2)) for _ in range(draw(st.integers(1, 3)))]
    return c, batches


@settings(max_examples=200, deadline=None)
@given(covering_batches())
def test_column_lp_matches_cold_solves_after_each_batch(lp):
    # min c.x over 0 <= x <= 1 and rows a.x >= r, solved through its dual:
    # each row is one added column, each bound x_k <= 1 an implicit one
    c, batches = lp
    dual = ColumnLp(c)
    rows = [([int(j == k) for j in range(len(c))], LE, 1)
            for k in range(len(c))]
    for new_rows in batches:
        for coeffs, r in new_rows:
            dual.add_column([k for k, a in enumerate(coeffs) if a], -r)
            rows.append((coeffs, GE, r))
        best = vertex_optimum(c, rows)
        cold = solve_min_lp(c, rows)
        if best is None:
            assert cold.status == "infeasible"
            with pytest.raises(SmcError, match="unbounded"):
                dual.optimise()
            return
        x, den = dual.optimise()
        x = [F(v, den) for v in x]
        assert feasible(x, rows)
        assert sum(ci * xi for ci, xi in zip(c, x)) == best == cold.objective


@st.composite
def column_lps(draw):
    """A non-negative int or Fraction rhs and cut columns over its rows,
    rows repeated at will, as (rows, cost) with cost <= 0."""
    m = draw(st.integers(0, 4))
    rhs = draw(st.lists(st.one_of(st.integers(0, 5),
                                  st.fractions(0, 5, max_denominator=6)),
                        min_size=m, max_size=m))
    columns = [(draw(st.lists(st.integers(0, m - 1), max_size=5)),
                -draw(st.integers(0, 3)))
               for _ in range(draw(st.integers(0, 7)) if m else 0)]
    return rhs, columns


def optimum(lp):
    try:
        return lp.optimise()
    except SmcError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(column_lps(), st.data())
def test_starting_columns_lay_down_the_tableau_added_columns_build(lp, data):
    # the columns given to the constructor leave the tableau that adding
    # them one at a time to the slack basis leaves, and so the same answer;
    # a later batch is priced against the optimised basis either way
    rhs, columns = lp
    k = data.draw(st.integers(0, len(columns)))
    laid = ColumnLp(rhs, columns[:k])
    added = ColumnLp(rhs)
    for column in columns[:k]:
        added.add_column(*column)
    def state(t):
        return t.rows, t.z, t.basis, t.d, t.zs, t.columns

    assert state(laid) == state(added)
    assert optimum(laid) == optimum(added)
    for column in columns[k:]:
        laid.add_column(*column)
        added.add_column(*column)
    assert state(laid) == state(added)
    assert optimum(laid) == optimum(added)


def bareiss_eliminate(row, s, f, pivot):
    """The Bareiss update ``_eliminate`` made before it scaled rows: the
    reference the scaled rows are checked against."""
    prow, p, g, nonzero = pivot
    if f * g % p:
        row[:] = [(p * a - f * v) // s for a, v in zip(row, prow)]
        return p
    for k in nonzero:
        row[k] -= f * prow[k] // p
    return s


def updates(monkeypatch, eliminate, solve):
    """Run ``solve`` with ``eliminate`` as the row update and return each
    updated row with its scale, in order, and what ``solve`` returned."""
    seen = []

    def spy(row, s, f, pivot):
        scale = eliminate(row, s, f, pivot)
        seen.append((list(row), scale))
        return scale

    with monkeypatch.context() as patch:
        patch.setattr(_simplex, "_eliminate", spy)
        return seen, solve()


def assert_rows_divide_bareiss(monkeypatch, solve):
    """Every row the update leaves is a positive multiple of the row the
    Bareiss update leaves at the same step, at a scale dividing its scale,
    so no cell is wider; and the answer is the same."""
    ours, answer = updates(monkeypatch, _simplex._eliminate, solve)
    theirs, reference = updates(monkeypatch, bareiss_eliminate, solve)
    assert answer == reference and len(ours) == len(theirs)
    for (row, s), (ref, t) in zip(ours, theirs):
        assert s > 0 and t % s == 0
        assert [v * (t // s) for v in row] == ref
        assert all(abs(v).bit_length() <= abs(r).bit_length()
                   for v, r in zip(row, ref))
    return len(ours)


def test_scaled_rows_are_never_wider_than_bareiss_rows(monkeypatch):
    # random dense LPs with Fraction cells, where the scaled update without
    # its division would grow cells far wider than Bareiss', and metric3's
    # cut LPs at n = 16
    rng = Random(5)
    num = lambda: rng.choice([rng.randint(-5, 9),
                              F(rng.randint(-9, 9), rng.randint(1, 6))])
    updated = 0
    for _ in range(400):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        c = [abs(num()) for _ in range(n)]
        rows = [([num() for _ in range(n)], rng.choice([GE, LE]), num())
                for _ in range(m)]
        updated += assert_rows_divide_bareiss(
            monkeypatch, lambda: solve_min_lp(c, rows))
    assert updated > 3000
    updated = 0
    for seed in range(1, 4):
        inst = generate_instance("euclidean", 16, [4, 4, 4, 4], seed)
        updated += assert_rows_divide_bareiss(
            monkeypatch, lambda: approx_metric(inst)[0])
    assert updated > 3000


def test_column_lp_prices_and_reprices():
    # min 2a + 3b + c over a + b >= 1, b + c >= 1 has value 3, at (0, 1, 0)
    # and at (1, 0, 1); a + c >= 2 leaves only (1, 0, 1)
    dual = ColumnLp([2, 3, 1])
    dual.add_column([0, 1], -1)
    dual.add_column([1, 2], -1)
    x, den = dual.optimise()
    assert sum(c * v for c, v in zip([2, 3, 1], x)) == 3 * den
    dual.add_column([0, 2], -2)
    x, den = dual.optimise()
    assert (x, den) == ([1, 0, 1], 1)


def test_column_lp_bounds_every_price_by_one():
    # min a + 3b over a + b >= 2 would take a = 2 without bounds; the
    # implicit column of row a enters and holds a at 1, so b = 1.  A
    # repeated row counts twice: a + 2b >= 2 changes nothing.  a >= 2
    # cannot hold, so the dual is unbounded
    dual = ColumnLp([1, 3])
    dual.add_column([0, 1], -2)
    assert dual.optimise() == ([1, 1], 1)
    _x, _xs, _w, u, _ws = dual._solution()
    assert u[0] > 0
    dual.add_column([0, 1, 1], -2)
    assert dual.optimise() == ([1, 1], 1)
    dual.add_column([0], -2)
    with pytest.raises(SmcError, match="unbounded"):
        dual.optimise()


def test_column_lp_stays_unbounded_when_optimised_again():
    # the run that finds no leaving row has pivoted first; the determinant
    # and the objective scale must move with that tableau, or the next
    # optimise pivots at the wrong scale
    dual = ColumnLp([0, 0, 0], [([], 0), ([1, 1, 1, 2], -2), ([0, 2], -3)])
    for _ in range(3):
        with pytest.raises(SmcError, match="unbounded") as exc:
            dual.optimise()
        assert exc.value.code == "unbounded"


def test_column_lp_rejects_negative_rhs():
    with pytest.raises(SmcError, match="non-negative"):
        ColumnLp([1, -1])


@pytest.mark.parametrize("corrupt, message", [
    (lambda x, xs, w, u, ws: ([-v for v in x], xs, w, u, ws), "negative"),
    (lambda x, xs, w, u, ws: ([*x[:2], 2 * xs], xs, w, u, ws),
     "prices violate a bound"),
    (lambda x, xs, w, u, ws: ([0, *x[1:]], xs, w, u, ws),
     "prices violate a column"),
    (lambda x, xs, w, u, ws: (x, xs, w, [0] * len(u), ws),
     "values violate a row"),
    (lambda x, xs, w, u, ws: (x, xs, w, u, 2 * ws), "objectives"),
])
def test_certificate_rejects_a_corrupted_answer(monkeypatch, corrupt, message):
    # min x0 + 3 x1 + x2 over x0 + x1 >= 2 has the one optimum (1, 1, 0),
    # where the bound x0 <= 1 binds and its implicit column is basic; each
    # corruption breaks one check alone: the price 2 on row 2, which no cut
    # touches, only its bound, and the objectives' keeps x <= 1
    solution = ColumnLp._solution
    monkeypatch.setattr(ColumnLp, "_solution",
                        lambda lp: corrupt(*solution(lp)))
    dual = ColumnLp([1, 3, 1])
    dual.add_column([0, 1], -2)
    with pytest.raises(SmcError, match=message):
        dual.optimise()


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

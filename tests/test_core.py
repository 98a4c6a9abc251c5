from __future__ import annotations

import re
from array import array
from fractions import Fraction
from functools import partial
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from smcycle import core
from smcycle.core import (WeightClass, _parse_weight, _parse_weight_row,
                          count_weight2_edges,
                          cover_cost, format_instance, format_solution,
                          generate_instance, make_cover, parse_instance,
                          parse_solution, validate_instance, validate_solution)
from smcycle.errors import FormatError, InvalidCoverError, ValidationError


def pair_instance(w=3):
    return validate_instance(2, [[0, w], [w, 0]], True,
                             WeightClass.GENERAL_METRIC, [[0, 1]])


def test_validate_pair_instance():
    inst = pair_instance()
    assert inst.n == 2
    assert inst.w(0, 1) == 3
    assert inst.groups == ((0, 1),)


def test_unit_group_rejected():
    with pytest.raises(ValidationError) as err:
        validate_instance(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], True,
                          WeightClass.GENERAL_METRIC, [[0], [1, 2]])
    assert err.value.code == "unit-group"


def test_triangle_violation_rejected():
    w = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    with pytest.raises(ValidationError) as err:
        validate_instance(3, w, True, WeightClass.GENERAL_METRIC, [[0, 1, 2]])
    assert err.value.code == "triangle-violation"


def test_partition_must_cover_everything():
    w = [[0, 1, 1, 1]] * 4
    with pytest.raises(ValidationError) as err:
        validate_instance(4, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    assert err.value.code == "partition-overlap"


def test_overlapping_groups_rejected():
    w = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    with pytest.raises(ValidationError) as err:
        validate_instance(4, w, True, WeightClass.GENERAL_METRIC,
                          [[0, 1, 2], [2, 3]])
    assert err.value.code == "partition-overlap"


def test_one_two_weight_class_enforced():
    w = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    with pytest.raises(ValidationError) as err:
        validate_instance(3, w, True, WeightClass.ONE_TWO, [[0, 1, 2]])
    assert err.value.code == "weight-class-violation"


def first_bad_cell(n, w):
    """Reference for the symmetry and {1,2} checks: the error of the first
    offending cell in row-major order, with its code, or None.  A negative
    weight is reported before either check, as on every weight class."""
    for i in range(n):
        for j in range(n):
            if i != j and w[i][j] < 0:
                return (f"negative weight at ({i},{j})",
                        "weight-class-violation")
    for i in range(n):
        for j in range(i + 1, n):
            if w[i][j] != w[j][i]:
                return (f"asymmetric weights at ({i},{j}) in symmetric "
                        "instance", "validation")
    for i in range(n):
        for j in range(n):
            if i != j and w[i][j] not in (1, 2):
                return (f"weight {w[i][j]} at ({i},{j}) outside {{1,2}}",
                        "weight-class-violation")
    return None


def test_symmetry_and_one_two_checks_report_the_first_cell():
    # a few cells of a symmetric {1,2} matrix overwritten, alone or with
    # their mirror cell, the diagonal included (it is ignored), also by
    # Fractions equal to 1 or 2, by negative weights, by ints outside the
    # byte range and by True; rows of small ints are also passed as bytes,
    # bytearrays or arrays of signed bytes or of C ints
    rng = Random(12)
    values = (1, 2, 0, 3, Fraction(1), Fraction(2), Fraction(3, 2), -1,
              Fraction(-1, 3), 256, 2**70, True)
    outcomes = {None: 0, "validation": 0, "weight-class-violation": 0}
    negatives = typed_rows = 0
    for trial in range(800):
        n = rng.randint(2, 7)
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = w[j][i] = rng.choice((1, 2))
        for _ in range(rng.randint(0, 3)):
            i, j, x = rng.randrange(n), rng.randrange(n), rng.choice(values)
            w[i][j] = x
            if rng.random() < 0.6:
                w[j][i] = x
        rows = w
        if (rng.random() < 0.5 and all(type(x) is int and -128 <= x < 128
                                       for row in w for x in row)):
            # an array row is read as its items, never as its raw bytes
            makers = [partial(array, "b"), partial(array, "i")]
            if all(x >= 0 for row in w for x in row):
                makers += [bytes, bytearray]
            rows = [rng.choice(makers)(row) for row in w]
            typed_rows += 1
        before = [bytes(row) for row in rows] if rows is not w else None
        expected = first_bad_cell(n, w)
        if expected is None:
            inst = validate_instance(n, rows, True, WeightClass.ONE_TWO,
                                     [range(n)])
            check_one_two_storage(inst, w)
            outcomes[None] += 1
        else:
            with pytest.raises(ValidationError) as err:
                validate_instance(n, rows, True, WeightClass.ONE_TWO,
                                  [range(n)])
            assert (str(err.value), err.value.code) == expected
            outcomes[expected[1]] += 1
            negatives += expected[0].startswith("negative")
        if before is not None:
            assert [bytes(row) for row in rows] == before
    assert min(outcomes.values()) >= 100 and negatives >= 50
    assert typed_rows >= 100


def check_one_two_storage(inst, w):
    """A valid {1,2} instance keeps the weights of ``w`` as ints with a zero
    diagonal, and bit j of ``one_masks[i]`` is set exactly when j != i and
    w(i,j) = 1."""
    n = inst.n
    assert inst.weights == tuple(tuple(0 if i == j else w[i][j]
                                       for j in range(n)) for i in range(n))
    assert all(type(x) is int for row in inst.weights for x in row)
    assert inst.one_masks == tuple(
        sum(1 << j for j in range(n) if j != i and w[i][j] == 1)
        for i in range(n))


def test_one_masks_mark_the_weight_1_pairs():
    # n = 321 makes masks many machine words wide
    for seed, n in enumerate([3 + 6 * k for k in range(10)] + [321]):
        inst = generate_instance("one-two", n, [3] * (n // 3), seed)
        check_one_two_storage(inst, inst.weights)
        text = format_instance(inst)
        # a non-zero diagonal token is read as 0
        rows = text.splitlines()
        rows[-1] = rows[-1][:-1] + "7"
        again = parse_instance("\n".join(rows) + "\n")
        assert again == inst
        check_one_two_storage(again, inst.weights)
    # Fractions equal to 1 and 2 and any diagonal come back as int weights
    w = [[Fraction(5, 3), Fraction(1), 2], [1, 9, Fraction(4, 2)],
         [Fraction(2), Fraction(2), Fraction(-1, 2)]]
    inst = validate_instance(3, w, True, WeightClass.ONE_TWO, [[0, 1, 2]])
    check_one_two_storage(inst, w)
    assert inst.one_masks == (0b010, 0b001, 0b000)
    with pytest.raises(ValidationError, match="one-two"):
        pair_instance().one_masks


def test_negative_weight_in_one_two_instance_is_a_class_violation():
    # the same error whichever other check the matrix also fails: a mirrored
    # or one-sided negative cell, symmetric=False, a bad group, or a weight
    # outside {1,2} in an earlier row; a negative diagonal is ignored
    base = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    cases = [({(1, 2): -1, (2, 1): -1}, True, [range(4)], "(1,2)"),
             ({(2, 0): -2}, True, [range(4)], "(2,0)"),
             ({(0, 3): -1, (3, 0): -1}, False, [range(4)], "(0,3)"),
             ({(3, 1): Fraction(-1, 2)}, True, [[0, 1], [2], [3]], "(3,1)"),
             ({(0, 1): 3, (1, 0): 3, (2, 3): -1}, True, [range(4)], "(2,3)")]
    for cells, symmetric, groups, where in cases:
        w = [row[:] for row in base]
        for (i, j), x in cells.items():
            w[i][j] = x
        with pytest.raises(ValidationError) as err:
            validate_instance(4, w, symmetric, WeightClass.ONE_TWO, groups)
        assert err.value.code == "weight-class-violation"
        assert str(err.value) == f"negative weight at {where}"
    w = [row[:] for row in base]
    w[2][2] = -5
    validate_instance(4, w, True, WeightClass.ONE_TWO, [range(4)])


def test_pair_two_cycle_is_feasible():
    inst = pair_instance()
    cover = make_cover([[0, 1]])
    assert cover.pair_flags == (True,)
    report = validate_solution(inst, cover)
    assert report.feasible
    assert report.cost == cover_cost(inst, cover) == 6


def test_unflagged_two_cycle_is_rejected():
    # a cover derives its pair flags, so the file is where a missing or
    # misplaced marker can appear
    for text, directed in (("0 1\n", False), ("0 1 2 pair\n", False),
                           ("0 1 pair\n", True)):
        with pytest.raises(FormatError, match="'pair' ends exactly"):
            parse_solution(text, directed=directed)
    assert parse_solution("0 1\n", directed=True).pair_flags == (False,)
    # a 2-cycle is legal only on a size-2 terminal group
    w = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    inst = validate_instance(4, w, True, WeightClass.GENERAL_METRIC,
                             [[0, 1], [2, 3]])
    report = validate_solution(inst, make_cover([[0, 2], [1, 3]]))
    assert not report.feasible
    assert report.cost is None
    assert report.violations == (
        "illegal 2-cycle (0, 2): not a size-2 terminal group",
        "illegal 2-cycle (1, 3): not a size-2 terminal group",
        "split group (0, 1): spread over cycles [0, 1]",
        "split group (2, 3): spread over cycles [0, 1]")


def test_non_spanning_cover_reported():
    inst = generate_instance("euclidean", 6, [3, 3], seed=5)
    cover = make_cover([[0, 1, 2]])
    report = validate_solution(inst, cover)
    assert not report.feasible
    assert any("non-spanning" in v for v in report.violations)


def test_split_group_reported():
    inst = generate_instance("euclidean", 6, [3, 3], seed=5)
    g0, g1 = inst.groups
    mixed1 = [g0[0], g0[1], g1[0]]
    mixed2 = [g0[2], g1[1], g1[2]]
    cover = make_cover([mixed1, mixed2])
    report = validate_solution(inst, cover)
    assert not report.feasible
    assert any("split group" in v for v in report.violations)
    # the cycles are well formed, so the report still prices the cover
    assert report.cost == cover_cost(inst, cover)


def test_triangle_cover_cost():
    cover = make_cover([[0, 1, 2]])
    for a, b, cost in ((1, 1, 3), (Fraction(1, 3), Fraction(1, 2), Fraction(4, 3))):
        w = [[0, a, b], [a, 0, b], [b, b, 0]]
        inst = validate_instance(3, w, True, WeightClass.GENERAL_METRIC,
                                 [[0, 1, 2]])
        assert cover_cost(inst, cover) == validate_solution(inst, cover).cost == cost


def test_cover_cost_rejects_overlap():
    # and every other malformed cycle, which the report leaves unpriced
    inst = generate_instance("euclidean", 6, [3, 3], seed=5)
    for cycles in ([[0, 1, 2], [2, 3, 4]],      # overlap
                   [[0, 1, 2, 1], [3, 4, 5]],   # repeated vertex
                   [[0, 1, 2], [3, 4, 6]],      # out-of-range vertex
                   [[0, 1], [2, 3, 4, 5]],      # 2-cycle off a size-2 group
                   [[0], [1, 2, 3, 4, 5]]):     # 1-vertex cycle
        cover = make_cover(cycles)
        with pytest.raises(InvalidCoverError):
            cover_cost(inst, cover)
        report = validate_solution(inst, cover)
        assert not report.feasible and report.cost is None


def test_cover_cost_rotation_and_reversal_invariant():
    inst = generate_instance("euclidean", 8, [4, 4], seed=11)
    cyc = [0, 3, 5, 7, 2]
    base = cover_cost(inst, make_cover([cyc, [1, 4, 6]]))
    rotated = cover_cost(inst, make_cover([cyc[2:] + cyc[:2], [1, 4, 6]]))
    reversed_ = cover_cost(inst, make_cover([list(reversed(cyc)), [1, 4, 6]]))
    assert base == rotated == reversed_


def test_directed_cost_follows_arcs():
    w = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    inst = validate_instance(3, w, False, WeightClass.ASYMMETRIC_METRIC,
                             [[0, 1, 2]])
    fwd = make_cover([[0, 1, 2]], directed=True)
    bwd = make_cover([[2, 1, 0]], directed=True)
    assert cover_cost(inst, fwd) == validate_solution(inst, fwd).cost == 3
    assert cover_cost(inst, bwd) == validate_solution(inst, bwd).cost == 6


def test_generators_are_deterministic():
    for kind in ("euclidean", "one-two", "asymmetric"):
        a = generate_instance(kind, 9, [3, 6], seed=1)
        b = generate_instance(kind, 9, [3, 6], seed=1)
        assert a == b
        c = generate_instance(kind, 9, [3, 6], seed=2)
        assert a != c


def test_generated_instances_validate():
    # validate_instance runs inside generate_instance; exercise many seeds
    for seed in range(30):
        generate_instance("euclidean", 7, [2, 5], seed=seed)
        generate_instance("one-two", 7, [3, 4], seed=seed)
        generate_instance("asymmetric", 6, [2, 2, 2], seed=seed)


def test_asymmetric_generator_metric_closure():
    inst = generate_instance("asymmetric", 7, [3, 4], seed=123)
    n = inst.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) == 3:
                    assert inst.w(a, b) <= inst.w(a, c) + inst.w(c, b)


def test_bad_groups_spec_rejected():
    with pytest.raises(ValidationError):
        generate_instance("one-two", 7, [3, 3], seed=0)
    with pytest.raises(ValidationError):
        generate_instance("one-two", 7, [1, 6], seed=0)


def test_one_two_cost_decomposition():
    # cover cost on {1,2} instances is n plus the number of weight-2 edges
    for seed in range(20):
        inst = generate_instance("one-two", 8, [4, 4], seed=seed)
        cover = make_cover([list(inst.groups[0]), list(inst.groups[1])])
        assert cover_cost(inst, cover) == inst.n + count_weight2_edges(inst, cover)


def test_instance_file_round_trip():
    for kind, n, sizes in (("euclidean", 8, [2, 2, 4]), ("one-two", 9, [3, 6]),
                           ("asymmetric", 6, [3, 3])):
        inst = generate_instance(kind, n, sizes, seed=7)
        text = format_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert format_instance(again) == text


def test_instance_file_fraction_weights():
    w = [[0, Fraction(7, 2)], [Fraction(7, 2), 0]]
    inst = validate_instance(2, w, True, WeightClass.GENERAL_METRIC, [[0, 1]])
    text = format_instance(inst)
    assert "7/2" in text
    assert parse_instance(text) == inst


_LONG = "1" + "0" * 5000

PAIR_FILE = ("smc 1\nn 2\nmode symmetric\nclass metric\n"
             "groups 1\n0 1\n0 7\n7 0\n")


@pytest.mark.parametrize("old, new", [
    ("smc 1", "smc 2"), ("n 2", "n abc"), ("0 1\n0 7", "0 x\n0 7"),
    ("0 7\n7 0", "0 1/0\n1/0 0")],
    ids=["header", "vertex-count", "group-token", "zero-denominator"])
def test_malformed_instance_text_raises_format_error(old, new):
    assert parse_instance(PAIR_FILE).w(0, 1) == 7
    with pytest.raises(FormatError):
        parse_instance(PAIR_FILE.replace(old, new))


@pytest.mark.parametrize("old, new, message", [
    ("0 7\n7 0", "0 \u0667\n7 0", "bad weight token"),
    ("0 7\n7 0", "0 7\n1_0 0", "bad weight token"),
    ("0 7\n7 0", "0 +7\n7 0", "bad weight token"),
    ("0 7\n7 0", "0 7.0\n7 0", "bad weight token"),
    ("0 7\n7 0", "0 7/+2\n7/2 0", "bad weight token"),
    ("0 7\n7 0", "0 7/2_0\n7/2 0", "bad weight token"),
    ("0 7\n7 0", "0 1e1\n7 0", "bad weight token"),
    ("n 2", "n -1", "bad vertex count"),
    ("n 2", "n +2", "bad vertex count"),
    ("groups 1", "groups -2", "bad group count"),
    ("0 1\n0 7", "0 \u0661\n0 7", "bad vertex"),
    ("0 1\n0 7", "0 +1\n0 7", "bad vertex"),
    # in the grammar, but over Python's 4,300-digit int-string limit
    ("0 7\n7 0", f"0 {_LONG}\n7 0", "bad weight token"),
    ("0 7\n7 0", f"0 7\n-{_LONG} 0", "bad weight token"),
    ("0 7\n7 0", f"0 {_LONG}/2\n7/2 0", "bad weight token"),
    ("0 7\n7 0", f"0 7/{_LONG}\n7/2 0", "bad weight token"),
    ("n 2", f"n {_LONG}", "bad vertex count"),
    ("groups 1", f"groups {_LONG}", "bad group count"),
    ("0 1\n0 7", f"0 {_LONG}\n0 7", "bad vertex")],
    ids=["arabic-indic-weight", "underscore", "plus", "decimal",
         "signed-denominator", "underscore-denominator", "exponent",
         "negative-n", "plus-n", "negative-groups", "arabic-indic-vertex",
         "plus-vertex", "oversized-weight", "oversized-negative-weight",
         "oversized-numerator", "oversized-denominator", "oversized-n",
         "oversized-groups", "oversized-vertex"])
def test_tokens_outside_the_grammar_raise_format_error(old, new, message):
    # Python's int and Fraction take each of the first twelve; format_instance
    # writes none of them.  The oversized ones make int raise ValueError
    with pytest.raises(FormatError, match=message) as err:
        parse_instance(PAIR_FILE.replace(old, new))
    assert len(str(err.value)) < 200  # the token is shown abridged


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its FormatError's
    message."""
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


_ROW_TOKENS = ["0", "1", "2", "9", "01", "-0", "-1", "7/2", "x"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([" "] * 4 + ["  ", "\t"]),
                          st.sampled_from(_ROW_TOKENS[:4] * 4 + _ROW_TOKENS)),
                min_size=1, max_size=9))
def test_single_digit_rows_read_as_their_tokens(cells):
    # the one-pass read of a row of single digits gives what reading it
    # token by token gives, value for value and error for error
    line = "".join(sep + tok for sep, tok in cells)[len(cells[0][0]):]
    got, want = typed_outcome(line)
    assert got == want


def typed_outcome(text):
    """``_parse_weight_row``'s and the token path's outcome on ``text``:
    each value with its type, whatever sequence holds them (a row of
    single digits comes back as a bytearray), or the FormatError
    message."""
    return tuple(
        out if isinstance(out, str) else [(type(x), x) for x in out]
        for out in (parse_outcome(_parse_weight_row, text),
                    parse_outcome(lambda t: [_parse_weight(tok)
                                             for tok in t.split()], text)))


# ints, tokens that only the grammar or only json would take ("007", "-",
# "1-2", "--1", "7/2", "1.5", "1e3", "NaN", "Infinity", "true", "null",
# "[1]") and one int over the digit limit
_INT_ROW_TOKENS = ["0", "7", "209", "007", "-0", "-3", "-", "1-2", "--1",
                   "7/2", "1.5", "1e3", "NaN", "Infinity", "true", "null",
                   "[1]", _LONG]


def test_int_rows_read_as_their_tokens():
    # every token, with each separator, between multi-digit ints
    for tok in _INT_ROW_TOKENS:
        for sep in (" ", "  ", "\t"):
            line = sep.join(["0", "7", tok, "209"])
            got, want = typed_outcome(line)
            assert got == want, line[:40]
    assert typed_outcome("-3 0 209 -0 7")[0] == [
        (int, -3), (int, 0), (int, 209), (int, 0), (int, 7)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([" "] * 6 + ["  ", "\t"]),
                          st.sampled_from(_INT_ROW_TOKENS[:3] * 6
                                          + _INT_ROW_TOKENS)),
                min_size=1, max_size=9))
def test_int_rows_read_as_their_tokens_random(cells):
    line = "".join(sep + tok for sep, tok in cells)[len(cells[0][0]):]
    got, want = typed_outcome(line)
    assert got == want


def file_outcome(text):
    """``parse_instance``'s outcome on ``text``: the Instance with the type
    of each weight, or the error's type, message and code."""
    try:
        inst = parse_instance(text)
    except (FormatError, ValidationError) as exc:
        return type(exc).__name__, str(exc), exc.code
    return inst, [[type(x) for x in row] for row in inst.weights]


# cell edits: separators and tokens json refuses, tokens only the grammar
# takes, a negative weight and one that breaks the triangle inequality
_BLOCK_EDITS = ["7,8", "7\t8", "7  8", "007", "-", "--1", "1/2", "-0", "-3",
                "99" * 8, "[1]", "x", _LONG]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_int_block_reads_as_rows_one_by_one(data):
    # an int matrix file, with a few cells edited and a row shortened,
    # lengthened, dropped, added or split by a blank line, parses as it
    # does when every row is read on its own
    n = data.draw(st.integers(0, 6))
    symmetric = data.draw(st.booleans())
    # weights in [lo, 2 lo] meet the triangle inequality; lo = 5 writes
    # rows of single digits
    lo = data.draw(st.sampled_from([5, 10, 10 ** 12]))
    weight = st.integers(lo, 2 * lo)
    rows = [[0 if i == j else data.draw(weight) for j in range(n)]
            for i in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    tokens = [list(map(str, row)) for row in rows]
    for _ in range(data.draw(st.integers(0, 2 if n else 0))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        tokens[i][j] = data.draw(st.sampled_from(_BLOCK_EDITS))
    lines = [" ".join(row) for row in tokens]
    i = data.draw(st.integers(0, max(n - 1, 0)))
    edit = data.draw(st.sampled_from(
        [None] * 5 + ["short", "long", "missing", "trailing", "blank"]
        if n else [None, "trailing"]))
    if edit == "short":
        lines[i] = lines[i].rpartition(" ")[0] or "7"
    elif edit == "long":
        lines[i] += " 7"
    elif edit == "missing":
        del lines[i]
    elif edit == "trailing":
        lines.append(lines[i] if n else "7")
    elif edit == "blank":
        lines.insert(i, "")
    groups = [" ".join(map(str, range(n)))] if n else []
    text = "\n".join([
        "smc 1", f"n {n}", f"mode {'symmetric' if symmetric else 'asymmetric'}",
        f"class {'metric' if symmetric else 'asymmetric'}",
        f"groups {len(groups)}", *groups, *lines]) + "\n"
    with mock.patch.object(core, "_parse_int_block", lambda block, n: None):
        want = file_outcome(text)
    assert file_outcome(text) == want


def test_int_block_costs_one_json_call(monkeypatch):
    calls = []
    core._json_ints("[0]")  # binds json's decoder
    decode = core._raw_decode

    def spy(text):
        calls.append(text)
        return decode(text)

    monkeypatch.setattr(core, "_raw_decode", spy)
    for kind in ("asymmetric", "euclidean"):
        inst = generate_instance(kind, 12, [3, 4, 5], 7)
        calls.clear()
        assert parse_instance(format_instance(inst)) == inst
        assert len(calls) == 1


def test_one_two_rows_reach_validation_as_bytes(monkeypatch):
    # the {1,2} rows keep their byte path: validate_instance, called
    # through the module binding the benchmark's tracer wraps, gets them
    # as bytearrays, and json reads none of them
    inst = generate_instance("one-two", 12, [3, 4, 5], 2)
    seen = []
    validate = core.validate_instance

    def spy(n, weights, *args, **kwargs):
        seen.append({type(row) for row in weights})
        return validate(n, weights, *args, **kwargs)

    monkeypatch.setattr(core, "validate_instance", spy)
    monkeypatch.setattr(core, "_json_ints", None)
    assert parse_instance(format_instance(inst)) == inst
    assert seen == [{bytearray}]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_digit_files_read_as_spaced_ones(data):
    # a {1,2} file, mostly single digits with some other tokens and a
    # non-zero diagonal token, parses as the same file with every space of
    # its weight rows doubled, which only the token-by-token path reads
    n = data.draw(st.integers(2, 5))
    cell = st.sampled_from(["1", "2"] * 6 + _ROW_TOKENS)
    rows = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if data.draw(st.booleans()):
                rows[i][j] = rows[j][i]
    head = f"smc 1\nn {n}\nmode symmetric\nclass onetwo\ngroups 1\n"
    head += " ".join(map(str, range(n))) + "\n"
    single = head + "".join(" ".join(row) + "\n" for row in rows)
    double = head + "".join("  ".join(row) + "\n" for row in rows)

    def outcome(text):
        try:
            return parse_instance(text)
        except (FormatError, ValidationError) as exc:
            return f"{type(exc).__name__}: {exc}"
    assert outcome(single) == outcome(double)


def test_weight_grammar_accepts_what_format_writes():
    text = PAIR_FILE.replace("0 7\n7 0", "-3 14/2\n007 5/5")
    inst = parse_instance(text)
    assert inst.weights == ((0, 7), (7, 0))
    assert format_instance(inst) == PAIR_FILE


def test_format_writes_exact_tokens():
    # a Fraction with denominator 1 is written as its numerator, and the
    # diagonal as 0 whatever it holds
    w = [[Fraction(1, 3), Fraction(4, 2), 3], [5, 7, Fraction(7, 2)],
         [Fraction(9, 4), Fraction(9, 4), -2]]
    inst = validate_instance(3, w, False, WeightClass.ASYMMETRIC_METRIC,
                             [[0, 1, 2]])
    assert format_instance(inst).splitlines()[-3:] == [
        "0 2 3", "5 0 7/2", "9/4 9/4 0"]
    text = format_instance(inst)
    assert format_instance(parse_instance(text)) == text


def test_solution_file_round_trip():
    cover = make_cover([[0, 1], [2, 5, 4, 3]])
    text = format_solution(cover)
    again = parse_solution(text)
    assert again == cover
    assert format_solution(again) == text


@pytest.mark.parametrize("line", ["+0 1 2", "\u0660 1 2", "1_0 2 3",
                                  "-1 2 3", "0 1 x"])
def test_solution_ids_outside_the_grammar_raise_format_error(line):
    with pytest.raises(FormatError, match="bad solution line"):
        parse_solution(line + "\n")


def test_instance_format_golden():
    w = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    inst = validate_instance(4, w, True, WeightClass.ONE_TWO, [[0, 1], [2, 3]])
    assert format_instance(inst) == (
        "smc 1\n"
        "n 4\n"
        "mode symmetric\n"
        "class onetwo\n"
        "groups 2\n"
        "0 1\n"
        "2 3\n"
        "0 1 2 2\n"
        "1 0 2 2\n"
        "2 2 0 1\n"
        "2 2 1 0\n")


def test_solution_format_golden():
    cover = make_cover([[0, 1], [2, 5, 4, 3]])
    assert format_solution(cover) == "0 1 pair\n2 5 4 3\n"


def first_triangle_violation(w):
    """The definition: the first ordered triple of distinct vertices with
    w(a,b) > w(a,c) + w(c,b), or None."""
    n = len(w)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) == 3 and w[a][b] > w[a][c] + w[c][b]:
                    return a, b, c
    return None


@st.composite
def triangle_matrices(draw):
    """Non-negative int or mixed-denominator Fraction weights, zeros
    included, any diagonal; often metric-closed, sometimes with a planted
    violation."""
    n = draw(st.integers(min_value=2, max_value=7))
    top = draw(st.sampled_from([0, 1, 5, 40, 2 ** 70]))
    if draw(st.booleans()):
        value = st.builds(Fraction, st.integers(0, top),
                          st.integers(min_value=1, max_value=12))
    else:
        value = st.integers(0, top)
    w = [[draw(value) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if len({i, j, k}) == 3:
                        w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    if n >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(n)))[:3]
        w[a][b] = w[a][c] + w[c][b] + draw(st.sampled_from(
            [1, Fraction(1, 6), 2 ** 65]))
    diagonal = st.integers(-10, 10) | st.fractions(-3, 3, max_denominator=9)
    for i in range(n):
        w[i][i] = draw(diagonal)
    return w


@settings(max_examples=400, deadline=None)
@given(triangle_matrices())
def test_triangle_check_matches_its_definition(w):
    n = len(w)
    expected = first_triangle_violation(w)
    if expected is None:
        inst = validate_instance(n, w, False, WeightClass.ASYMMETRIC_METRIC,
                                 [list(range(n))])
        assert inst.weights == tuple(map(tuple, w))
        return
    with pytest.raises(ValidationError) as err:
        validate_instance(n, w, False, WeightClass.ASYMMETRIC_METRIC,
                          [list(range(n))])
    assert err.value.code == "triangle-violation"
    a, b, c = map(int, re.fullmatch(
        r"triangle violation: w\((\d+),(\d+)\) > w\(\1,(\d+)\) \+ w\(\3,\2\)",
        str(err.value)).groups())
    assert len({a, b, c}) == 3 and w[a][b] > w[a][c] + w[c][b]
    assert (a, b, c) == expected


def clustered_metric(n, rng):
    """Arcs of 10-19 inside clusters of 5 and 200-209 across: two arcs
    always weigh more than one they could replace, so the matrix is
    metric."""
    cluster = [v % (n // 5) for v in range(n)]
    rng.shuffle(cluster)
    w = [[0 if i == j else rng.randrange(10, 20) if cluster[i] == cluster[j]
          else rng.randrange(200, 210) for j in range(n)] for i in range(n)]
    return cluster, w


def plant_at_skip_threshold(n, rng, slack):
    """A clustered metric and a triple (a, b, c) with
    w(a,c) + low(c) = top(a) - 1 + slack, where low(c) = w(c,b) = 10 is
    row c's least weight and top(a) = w(a,b) = 209 row a's largest: for
    slack 0, (a, b, c) is the one violation and pivot c is one below the
    skip threshold; for slack 1 pivot c sits on the threshold and the
    matrix stays metric."""
    cluster, w = clustered_metric(n, rng)
    a, c = rng.sample(range(n), 2)
    while cluster[a] == cluster[c]:
        a, c = rng.sample(range(n), 2)
    b = rng.choice([x for x in range(n) if cluster[x] == cluster[c] and x != c])
    for x in range(n):
        # keep every other triple through the lowered arcs intact
        if cluster[x] == cluster[c] and x != c:
            w[c][x] = max(w[c][x], 11)
        if cluster[x] == cluster[a] and x != a:
            w[x][a] = max(w[x][a], 12)
    w[a][b] = 209
    w[c][b] = 10
    w[a][c] = 198 + slack
    low_c = min(w[c][:c] + w[c][c + 1:])
    assert w[a][c] + low_c == max(w[a]) - 1 + slack
    return w, (a, b, c)


def assert_triangle_outcome(w, expected):
    n = len(w)
    if expected is None:
        validate_instance(n, w, False, WeightClass.ASYMMETRIC_METRIC,
                          [list(range(n))])
        return
    a, b, c = expected
    with pytest.raises(ValidationError,
                       match=re.escape(f"w({a},{b}) > w({a},{c}) + w({c},{b})")):
        validate_instance(n, w, False, WeightClass.ASYMMETRIC_METRIC,
                          [list(range(n))])


@pytest.mark.parametrize("n", [20, 35, 60])
def test_triangle_pivot_one_below_skip_threshold_is_checked(n):
    rng = Random(n)
    for _ in range(4):
        w, triple = plant_at_skip_threshold(n, rng, slack=0)
        assert first_triangle_violation(w) == triple
        assert_triangle_outcome(w, triple)


@pytest.mark.parametrize("n", [20, 35, 60])
def test_triangle_pivot_on_skip_threshold_is_metric(n):
    rng = Random(100 + n)
    for _ in range(4):
        w, _triple = plant_at_skip_threshold(n, rng, slack=1)
        assert first_triangle_violation(w) is None
        assert_triangle_outcome(w, None)


def test_triangle_check_fraction_route():
    # the same matrices over sixths (denominators 1, 2, 3 and 6) and with
    # mixed-denominator tweaks go through the lcm scaling
    rng = Random(5)
    for slack in (0, 1):
        w, triple = plant_at_skip_threshold(20, rng, slack)
        sixths = [[Fraction(x, 6) for x in row] for row in w]
        assert_triangle_outcome(sixths, triple if slack == 0 else None)
        sixths[0][1] -= Fraction(1, 7)
        assert_triangle_outcome(sixths, first_triangle_violation(sixths))


_FUZZ_ALPHABET = "0123456789 -/\nabcgmnorstuyx"


@st.composite
def mutated_instance_files(draw):
    kind, n, sizes = draw(st.sampled_from([
        ("euclidean", 5, [2, 3]), ("one-two", 4, [4]),
        ("asymmetric", 6, [2, 2, 2])]))
    text = format_instance(generate_instance(kind, n, sizes, seed=draw(
        st.integers(0, 50))))
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["token", "insert", "delete"]))
        if action == "token":
            tokens = text.split(" ")
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(
                ["0", "1", "2", "-1", "9", "7/2", "1/0", "x", "", "\n"]))
            text = " ".join(tokens)
            continue
        at = draw(st.integers(0, len(text)))
        piece = draw(st.text(_FUZZ_ALPHABET, min_size=1, max_size=4))
        if action == "insert":
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + text[at + len(piece):]
    return text


@settings(max_examples=400, deadline=None)
@given(st.text() | st.text(_FUZZ_ALPHABET).map("smc 1\n".__add__)
       | mutated_instance_files())
def test_parser_raises_only_typed_errors(text):
    try:
        inst = parse_instance(text)
    except (FormatError, ValidationError):
        return
    assert parse_instance(format_instance(inst)) == inst

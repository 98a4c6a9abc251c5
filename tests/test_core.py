from __future__ import annotations

import pytest
from fractions import Fraction

from smcycle.core import (WeightClass, count_weight2_edges,
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


def test_pair_two_cycle_is_feasible():
    inst = pair_instance()
    cover = make_cover([[0, 1]], pair_flags=[True])
    report = validate_solution(inst, cover)
    assert report.feasible
    assert cover_cost(inst, cover) == 6


def test_unflagged_two_cycle_is_rejected():
    inst = pair_instance()
    cover = make_cover([[0, 1]])
    report = validate_solution(inst, cover)
    assert not report.feasible
    assert any("2-cycle" in v for v in report.violations)


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


def test_triangle_cover_cost():
    w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = validate_instance(3, w, True, WeightClass.GENERAL_METRIC, [[0, 1, 2]])
    assert cover_cost(inst, make_cover([[0, 1, 2]])) == 3


def test_cover_cost_rejects_overlap():
    inst = generate_instance("euclidean", 6, [3, 3], seed=5)
    cover = make_cover([[0, 1, 2], [2, 3, 4]])
    with pytest.raises(InvalidCoverError):
        cover_cost(inst, cover)


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
    fwd = cover_cost(inst, make_cover([[0, 1, 2]], directed=True))
    bwd = cover_cost(inst, make_cover([[2, 1, 0]], directed=True))
    assert fwd == 3
    assert bwd == 6


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


def test_solution_file_round_trip():
    cover = make_cover([[0, 1], [2, 5, 4, 3]], pair_flags=[True, False])
    text = format_solution(cover)
    again = parse_solution(text)
    assert again == cover
    assert format_solution(again) == text


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
    cover = make_cover([[0, 1], [2, 5, 4, 3]], pair_flags=[True, False])
    assert format_solution(cover) == "0 1 pair\n2 5 4 3\n"

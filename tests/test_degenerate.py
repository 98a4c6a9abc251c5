"""Degenerate instances: every pipeline returns a feasible cover within its
paper bound of the optimum, or raises a typed error; never a traceback."""

from __future__ import annotations

import pytest

from smcycle.cli import ALGORITHMS, _run_algorithm
from smcycle.core import (cover_cost, generate_instance,
                          validate_instance, validate_solution)
from smcycle.errors import SmcError
from smcycle.oracle import brute_force_smc

def constant(weight_class, n, value, groups):
    w = [[0 if i == j else value for j in range(n)] for i in range(n)]
    return validate_instance(n, w, weight_class != "asymmetric-metric",
                             weight_class, groups)


def scaled(kind, sizes, factor):
    inst = generate_instance(kind, sum(sizes), sizes, seed=3)
    w = [[x * factor for x in row] for row in inst.weights]
    return validate_instance(inst.n, w, inst.symmetric, inst.weight_class,
                             inst.groups)


def degenerate_instances():
    for cls in ("general-metric", "asymmetric-metric"):
        # all-zero weights make the packed triangle check's field 1 bit wide
        yield f"all-zero-{cls}", constant(cls, 4, 0, [[0, 1], [2, 3]])
        yield f"all-equal-{cls}", constant(cls, 6, 7, [[0, 1, 2], [3, 4, 5]])
    for value in (1, 2):
        yield f"all-equal-{value}-one-two", constant(
            "one-two", 6, value, [[0, 1, 2], [3, 4, 5]])
    for kind in ("euclidean", "one-two", "asymmetric"):
        for label, sizes in (("single-group", [6]), ("all-pairs", [2, 2, 2]),
                             ("n2", [2]), ("n3", [3])):
            yield f"{label}-{kind}", generate_instance(kind, sum(sizes), sizes,
                                                       seed=5)
    for kind in ("euclidean", "asymmetric"):
        yield f"huge-{kind}", scaled(kind, [3, 4], 2 ** 70 + 1)


CASES = dict(degenerate_instances())


@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_instance(case):
    inst = CASES[case]
    opt, _cover = brute_force_smc(inst)
    solved = 0
    for algo in ALGORITHMS:
        try:
            cover, _stages, bound = _run_algorithm(algo, inst, "lex")
        except SmcError:
            continue
        solved += 1
        assert validate_solution(inst, cover).feasible, algo
        assert cover_cost(inst, cover) <= bound * opt, algo
    assert solved >= 1

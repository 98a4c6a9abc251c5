from __future__ import annotations

from hypothesis import given, settings, strategies as st

from smcycle.asymmetric import StronglyEulerianDigraph, directed_shortcut
from smcycle.core import (WeightClass, count_weight2_edges, cover_cost,
                          format_instance, generate_instance, make_cover,
                          parse_instance, validate_instance, validate_solution)


@st.composite
def random_instance(draw):
    kind = draw(st.sampled_from(["euclidean", "one-two", "asymmetric"]))
    n = draw(st.integers(min_value=4, max_value=9 if kind != "asymmetric" else 7))
    cuts = []
    left = n
    while left:
        if left in (2, 3):
            take = left
        else:
            take = draw(st.integers(min_value=2, max_value=min(4, left)))
            if left - take == 1:
                take += 1
        cuts.append(take)
        left -= take
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return generate_instance(kind, n, cuts, seed=seed)


@settings(max_examples=60, deadline=None)
@given(random_instance())
def test_generated_instances_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(random_instance(), st.data())
def test_cover_cost_rotation_reversal_invariant(inst, data):
    order = list(range(inst.n))
    # one cycle through everything, in a drawn order
    perm = data.draw(st.permutations(order))
    cover = make_cover([list(perm)], directed=not inst.symmetric)
    base = cover_cost(inst, cover)
    k = data.draw(st.integers(min_value=0, max_value=inst.n - 1))
    rotated = make_cover([list(perm[k:]) + list(perm[:k])],
                         directed=not inst.symmetric)
    assert cover_cost(inst, rotated) == base
    if inst.symmetric:
        rev = make_cover([list(reversed(perm))])
        assert cover_cost(inst, rev) == base


@settings(max_examples=40, deadline=None)
@given(random_instance())
def test_one_two_cost_decomposition_property(inst):
    if inst.weight_class is not WeightClass.ONE_TWO:
        return
    cover = make_cover([list(g) for g in inst.groups if len(g) > 2]
                       + [list(g) for g in inst.groups if len(g) == 2])
    assert cover_cost(inst, cover) == inst.n + count_weight2_edges(inst, cover)


def test_component_splitting_counterexample():
    """The textbook splitting condition fails when an inner 2-factor pairs
    two representatives of one outer cycle; balance still holds and the
    tour-based shortcut handles the overlay."""
    w = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    inst = validate_instance(4, w, False, WeightClass.ASYMMETRIC_METRIC,
                             [[0, 1], [2, 3]])
    arcs = ((0, 1), (1, 2), (2, 3), (3, 0),  # outer 4-cycle
            (0, 2), (2, 0))                  # inner 2-cycle on {0, 2}
    dig = StronglyEulerianDigraph(n=4, arcs=arcs)
    dig.check()
    cover = directed_shortcut(dig, inst)
    assert validate_solution(inst, cover).feasible
    assert len(cover.cycles) == 1


def test_component_splitting_holds_on_clean_overlay():
    w = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    inst = validate_instance(4, w, False, WeightClass.ASYMMETRIC_METRIC,
                             [[0, 1], [2, 3]])
    arcs = ((0, 1), (1, 0), (2, 3), (3, 2),  # two outer 2-cycles
            (0, 2), (2, 0))                  # inner 2-cycle joining them
    dig = StronglyEulerianDigraph(n=4, arcs=arcs)
    dig.check()
    cover = directed_shortcut(dig, inst)
    assert len(cover.cycles) == 1
    assert set(cover.cycles[0]) == {0, 1, 2, 3}

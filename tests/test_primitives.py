"""The graph primitives in core, and a cost pin over the pipelines that
share them."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from smcycle.asymmetric import approx_asymmetric
from smcycle.core import (components, cover_cost, euler_shortcut,
                          generate_instance, successor_cycles)
from smcycle.metric import doubled_subgraph_baseline
from smcycle.onetwo import approx_onetwo


def bfs_components(n, edges):
    adj = {v: set() for v in range(n)}
    for e in edges:
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    seen: set[int] = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(sorted(comp))
    return comps


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.one_of(st.tuples(vertex, vertex),
                     st.tuples(vertex, vertex, st.integers(0, 3)))
    return n, draw(st.lists(edge, max_size=15))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_components_match_bfs(case):
    n, edges = case
    assert components(n, edges) == bfs_components(n, edges)


@st.composite
def eulerian_multigraphs(draw):
    """A union of closed walks: every degree even, every vertex balanced."""
    n = draw(st.integers(min_value=2, max_value=9))
    walks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=6), max_size=5))
    edges = [(u, v) for walk in walks
             for u, v in zip(walk, walk[1:] + walk[:1]) if u != v]
    return n, edges


@settings(max_examples=300, deadline=None)
@given(eulerian_multigraphs(), st.booleans())
def test_euler_shortcut_spans_each_component_once(case, directed):
    n, edges = case
    walks = euler_shortcut(n, edges, directed)
    touched = [c for c in components(n, edges) if len(c) > 1]
    assert [sorted(w) for w in walks] == touched
    for walk in walks:
        assert len(set(walk)) == len(walk)
        assert walk[0] == min(walk)


def test_euler_shortcut_takes_lowest_neighbour_first():
    # two directed triangles through 0: the tour runs 0-1-2-0-3-4-0
    arcs = [(0, 3), (3, 4), (4, 0), (0, 1), (1, 2), (2, 0)]
    assert euler_shortcut(5, arcs, directed=True) == [[0, 1, 2, 3, 4]]
    # undirected, the tour runs 0-1-3-0-2-4-0
    edges = [(0, 3), (3, 1), (1, 0), (2, 0), (0, 4), (4, 2)]
    assert euler_shortcut(5, edges, directed=False) == [[0, 1, 3, 2, 4]]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.permutations(range(n))))
def test_successor_cycles_follow_the_permutation(succ):
    cycles = successor_cycles(succ)
    assert sorted(v for cyc in cycles for v in cyc) == list(range(len(succ)))
    assert [cyc[0] for cyc in cycles] == sorted(min(cyc) for cyc in cycles)
    for cyc in cycles:
        assert [succ[v] for v in cyc] == cyc[1:] + cyc[:1]


def test_pinned_shared_primitive_cost_sums():
    # Regression pin for the pipelines that share core's union-find, Euler
    # shortcut and onetwo's D-component walk; recorded with the per-module
    # copies those primitives replaced.  The asym term was re-recorded
    # (12695 -> 12463) when the edge cover of the cycle-sharing graph moved
    # from networkx's blossom to the own one, which breaks ties between
    # maximum matchings differently.
    asym_specs = [(6, [3, 3]), (9, [3, 3, 3]), (16, [4] * 4),
                  (30, [3] * 10), (48, [4] * 12)]
    asym = [generate_instance("asymmetric", n, sizes, seed)
            for seed in range(3) for n, sizes in asym_specs]
    assert sum(cover_cost(inst, approx_asymmetric(inst)[0])
               for inst in asym) == 12463
    sf4_specs = [(5, [2, 3]), (6, [3, 3]), (7, [2, 2, 3]), (8, [4, 4]),
                 (9, [3, 3, 3])]
    sf4 = [generate_instance("euclidean", n, sizes, seed)
           for seed in range(3) for n, sizes in sf4_specs]
    assert sum(cover_cost(inst, doubled_subgraph_baseline(inst))
               for inst in sf4) == 13590
    adv_specs = [(5, [2, 3]), (6, [2, 2, 2]), (7, [3, 4]), (8, [2, 3, 3]),
                 (8, [4, 4])]
    adv = [generate_instance("one-two", n, sizes, seed)
           for seed in range(4) for n, sizes in adv_specs]
    assert sum(cover_cost(inst, approx_onetwo(inst, tie_break="adversarial")[0])
               for inst in adv) == 167

"""Logarithmic-ratio pipeline for asymmetric metric instances.

Loop: start from a minimum directed 2-factor; while some cycle still splits
a terminal group, pick representatives through a minimal edge cover of the
cycle-sharing graph, solve a minimum directed 2-factor on the representative
sub-digraph, overlay it on the current cover (the union is strongly
Eulerian) and shortcut back to a directed 2-factor.

Invariants asserted on every iteration: the representative set hits every
offending cycle, never meets a group in exactly one vertex, and leaves at
least half the offending cycles with a single representative; the overlay
is balanced at every vertex (the textbook component-splitting condition
can fail on these overlays and is not required); the shortcut keeps the
component structure and never adds weight; the number of offending cycles
shrinks by a factor of at least 3/4; and the iteration count stays within
ceil(log_{4/3} n) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CycleCover, Instance, Weight, arcs_weight, components,
                   cycle_cost, euler_shortcut, make_cover, validate_solution)
from .errors import SmcError, ValidationError
from .matching import minimal_edge_cover
from .twofactor import directed_2factor_cycles, min_weight_directed_2factor


def _group_contacts(inst: Instance, cover: CycleCover
                    ) -> list[tuple[dict[int, int], bool]]:
    """Per cycle: its lowest vertex in each group it meets (by group index),
    and whether it splits a group, i.e. meets one without holding all of it."""
    group_of = inst.group_of
    contacts = []
    for cyc in cover.cycles:
        lowest: dict[int, int] = {}
        held: dict[int, int] = {}
        for v in sorted(cyc):
            gi = group_of[v]
            lowest.setdefault(gi, v)
            held[gi] = held.get(gi, 0) + 1
        splits = any(k < len(inst.groups[gi]) for gi, k in held.items())
        contacts.append((lowest, splits))
    return contacts


def eta(inst: Instance, cover: CycleCover) -> int:
    """Number of cycles that split some terminal group."""
    return sum(splits for _lowest, splits in _group_contacts(inst, cover))


@dataclass(frozen=True)
class RepresentativeSet:
    vertices: frozenset[int]
    lonely_cycles: tuple[int, ...]


def representatives(inst: Instance, cover: CycleCover, *,
                    contacts: list[tuple[dict[int, int], bool]] | None = None
                    ) -> RepresentativeSet:
    """Representative vertices chosen through a minimal edge cover.

    Nodes of the auxiliary graph are the cycles that split a group; two
    cycles are adjacent when one group meets both.  For each cover edge one
    terminal of a shared group is taken on each side.  ``contacts`` is
    ``_group_contacts(inst, cover)``, if the caller has it already.
    """
    if contacts is None:
        contacts = _group_contacts(inst, cover)
    offending = [ci for ci, (_lowest, splits) in enumerate(contacts) if splits]
    if not offending:
        raise ValidationError("no cycle splits a group: nothing to represent")

    lowest = [low for low, _splits in contacts]
    # two cycles are adjacent when some group meets both; scanning the
    # groups in index order, the first to pair them is their lowest shared
    meeting: list[list[int]] = [[] for _ in inst.groups]
    for ci in offending:
        for gi in lowest[ci]:
            meeting[gi].append(ci)
    shared_group: dict[tuple[int, int], int] = {}
    for gi, cycles in enumerate(meeting):
        for k, ci in enumerate(cycles):
            for cj in cycles[k + 1:]:
                shared_group.setdefault((ci, cj), gi)
    aux_edges = sorted(shared_group)
    cover_edges = minimal_edge_cover(aux_edges, vertices=offending)

    chosen: set[int] = set()
    per_cycle: dict[int, set[int]] = {ci: set() for ci in offending}
    for a, b in sorted(cover_edges):
        gi = shared_group.get((a, b), shared_group.get((b, a)))
        ra = lowest[a][gi]
        rb = lowest[b][gi]
        chosen.add(ra)
        chosen.add(rb)
        per_cycle[a].add(ra)
        per_cycle[b].add(rb)

    for ci in offending:
        if not per_cycle[ci]:
            raise SmcError(f"offending cycle {ci} received no representative")
    for g in inst.groups:
        if len(chosen.intersection(g)) == 1:
            raise SmcError(f"group {g} meets the representative set in one vertex")
    lonely = tuple(ci for ci in offending if len(per_cycle[ci]) == 1)
    if 2 * len(lonely) < len(offending):
        raise SmcError("fewer than half the offending cycles are lonely")
    return RepresentativeSet(vertices=frozenset(chosen), lonely_cycles=lonely)


@dataclass(frozen=True)
class StronglyEulerianDigraph:
    """Arc multiset with in-degree = out-degree at every vertex, so that
    each weakly connected component is strongly connected and Eulerian.

    The overlays the pipeline builds need not satisfy the textbook
    component-splitting condition (removing v frees exactly k(v) - 1
    components): an inner 2-factor can pair two representatives of one
    outer cycle.  The shortcut needs balance only, and that is what
    :meth:`check` asserts.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]

    def degrees(self) -> tuple[list[int], list[int]]:
        indeg = [0] * self.n
        outdeg = [0] * self.n
        for u, v in self.arcs:
            outdeg[u] += 1
            indeg[v] += 1
        return indeg, outdeg

    def weight(self, inst: Instance) -> Weight:
        return arcs_weight(inst, self.arcs)

    def check(self) -> list[int]:
        """Balance at every vertex: each component is then Eulerian.
        Returns each vertex's out-degree, which equals its in-degree."""
        indeg, outdeg = self.degrees()
        for v in range(self.n):
            if indeg[v] != outdeg[v]:
                raise SmcError(f"vertex {v} is unbalanced")
        return outdeg


def directed_shortcut(d: StronglyEulerianDigraph, inst: Instance) -> CycleCover:
    """Collapse every component of a balanced digraph to one directed cycle.

    Walks :func:`core.euler_shortcut`'s tour of each component and skips
    revisited vertices; every skip splices two arcs (u1,v),(v,w2) into
    (u1,w2) along the tour, so the component structure is preserved and,
    under the triangle inequality, the weight never grows.
    """
    outdeg = d.check()
    cycles = euler_shortcut(d.n, d.arcs, directed=True)
    # each walk holds exactly one component's vertices: the cycles are
    # well formed and disjoint, and the component structure is unchanged
    if [sorted(c) for c in cycles] != [c for c in components(d.n, d.arcs)
                                       if outdeg[c[0]]]:
        raise SmcError("tour missed part of its component")
    if any(len(c) < 2 for c in cycles):
        raise SmcError("component has a single vertex")
    if sum(cycle_cost(inst, c) for c in cycles) > d.weight(inst):
        raise SmcError("shortcut increased the weight")
    return make_cover(cycles, directed=True)


def iteration_bound(n: int) -> int:
    """ceil(log base 4/3 of n) plus one, computed exactly."""
    k = 0
    while 4 ** k < n * 3 ** k:
        k += 1
    return k + 1


@dataclass(frozen=True)
class AsymmetricStages:
    iterations: int
    bound: int
    etas: tuple[int, ...]               # before each iteration, then 0
    inner_weights: tuple[Weight, ...]   # weight of each representative 2-factor
    representative_sets: tuple[frozenset[int], ...]
    cover: CycleCover


def approx_asymmetric(inst: Instance) -> tuple[CycleCover, AsymmetricStages]:
    """Iterated representative rounds on top of a minimum directed 2-factor."""
    if inst.symmetric:
        raise ValidationError("asymmetric pipeline needs a directed instance")
    cover = min_weight_directed_2factor(inst)
    bound = iteration_bound(inst.n)
    contacts = _group_contacts(inst, cover)
    etas = [sum(splits for _lowest, splits in contacts)]
    inner_weights: list[Weight] = []
    rep_sets: list[frozenset[int]] = []
    iterations = 0
    while etas[-1] > 0:
        iterations += 1
        if iterations > bound:
            raise SmcError(f"exceeded the iteration bound {bound}")
        reps = representatives(inst, cover, contacts=contacts)
        rep_sets.append(reps.vertices)
        order = sorted(reps.vertices)
        if len(order) < 2:
            raise SmcError("representative set smaller than 2")
        inner = directed_2factor_cycles(inst, order)
        overlay = [(cyc[i - 1], cyc[i]) for cyc in inner
                   for i in range(len(cyc))]
        inner_weights.append(arcs_weight(inst, overlay))
        overlay += [(cyc[i - 1], cyc[i]) for cyc in cover.cycles
                    for i in range(len(cyc))]
        dig = StronglyEulerianDigraph(n=inst.n, arcs=tuple(sorted(overlay)))
        cover = directed_shortcut(dig, inst)
        contacts = _group_contacts(inst, cover)
        new_eta = sum(splits for _lowest, splits in contacts)
        if 4 * new_eta > 3 * etas[-1]:
            raise SmcError(f"offending-cycle count fell only {etas[-1]} -> {new_eta}")
        etas.append(new_eta)
    report = validate_solution(inst, cover)
    if not report.feasible:
        raise SmcError(f"asymmetric pipeline produced infeasible cover: "
                       f"{report.violations}")
    stages = AsymmetricStages(iterations=iterations, bound=bound,
                              etas=tuple(etas),
                              inner_weights=tuple(inner_weights),
                              representative_sets=tuple(rep_sets),
                              cover=cover)
    return cover, stages


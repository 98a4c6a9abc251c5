"""Approximation pipeline for {1,2}-weight instances.

Stages: a minimum 2-factor massaged into a special form (at most one cycle
with a 2-edge, and no 1-edge from a 2-edge endpoint of that cycle into a
pure cycle), a bipartite attachment graph between vertices and pure cycles
that split some group, a maximum matching of it, the derived cycle digraph
D and its spanning subgraph D' (depth-1 in-trees, 3-node directed paths,
isolated nodes), then two joining phases.

Cost audits mirror the accounting the ratio argument relies on: phase-1
closing edges are booked at weight 2 even when they are 1-edges ("virtual"
2-edges), each in-tree merge adds at most 1, each path merge at most 2, and
the final phase adds at most one unit per isolated pure unmatched cycle.
The audits run on every call and raise on violation instead of returning a
bad cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import (CycleCover, Instance, Weight, WeightClass,
                   count_weight2_edges, cover_cost, make_cover,
                   validate_solution)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import max_cardinality_matching
from .twofactor import (TwoFactorRequest, min_weight_2factor,
                        min_weight_triangle_free_2factor)

ADVERSARIAL_MAX_RUNS = 20000


class _WCycle:
    """Mutable cycle with bookkeeping for 'considered weight-2' edges."""

    __slots__ = ("verts", "is_pair", "virtual2")

    def __init__(self, verts: Sequence[int], is_pair: bool = False,
                 virtual2: set[frozenset[int]] | None = None):
        self.verts = list(verts)
        self.is_pair = is_pair
        self.virtual2 = virtual2 if virtual2 is not None else set()

    def positional_edges(self) -> list[tuple[int, int]]:
        L = len(self.verts)
        return [(self.verts[p], self.verts[(p + 1) % L]) for p in range(L)]

    def virtual_w(self, inst: Instance, a: int, b: int) -> Weight:
        return 2 if frozenset((a, b)) in self.virtual2 else inst.w(a, b)

    def has_2edge(self, inst: Instance) -> bool:
        if self.virtual2:
            return True
        return any(inst.w(a, b) == 2 for a, b in self.positional_edges())

    def is_pure(self, inst: Instance) -> bool:
        return all(inst.w(a, b) == 1 for a, b in self.positional_edges())


def _open_cycle(verts: Sequence[int], u: int, x: int) -> list[int]:
    """Path from u to x left by deleting one cycle edge {u,x}."""
    L = len(verts)
    if L == 2:
        return [u, x]
    iu = verts.index(u)
    if verts[(iu + 1) % L] == x:
        seq = list(verts[(iu + 1) % L:]) + list(verts[:(iu + 1) % L])
        return list(reversed(seq))
    ix = verts.index(x)
    if verts[(ix + 1) % L] != u:
        raise SmcError(f"{u} and {x} are not adjacent on the cycle")
    return list(verts[(ix + 1) % L:]) + list(verts[:(ix + 1) % L])


def _neighbors_on(cycle: _WCycle, v: int) -> list[int]:
    L = len(cycle.verts)
    if L == 2:
        other = cycle.verts[0] if cycle.verts[1] == v else cycle.verts[1]
        return [other, other]
    i = cycle.verts.index(v)
    return [cycle.verts[(i - 1) % L], cycle.verts[(i + 1) % L]]


def _to_cover(cycles: Iterable[_WCycle]) -> CycleCover:
    cs = list(cycles)
    return make_cover([c.verts for c in cs], directed=False,
                      pair_flags=[c.is_pair for c in cs])


# ---------------------------------------------------------------------------
# the special 2-factor


@dataclass(frozen=True)
class SpecialTwoFactor:
    cover: CycleCover
    pure: tuple[bool, ...]

    def nonpure_index(self) -> int | None:
        for i, p in enumerate(self.pure):
            if not p:
                return i
        return None


def _merge_two_nonpure(inst: Instance, x: _WCycle, y: _WCycle) -> _WCycle:
    """Remove one 2-edge from each cycle, reconnect into a single cycle."""

    def first_2edge(c: _WCycle) -> tuple[int, int]:
        for a, b in c.positional_edges():
            if inst.w(a, b) == 2:
                return a, b
        raise SmcError("nonpure cycle without a 2-edge")

    ax, bx = first_2edge(x)
    ay, by = first_2edge(y)
    px = _open_cycle(x.verts, ax, bx)  # path ax .. bx
    py = _open_cycle(y.verts, ay, by)
    cands = []
    for q in (py, list(reversed(py))):
        added = inst.w(px[-1], q[0]) + inst.w(q[-1], px[0])
        cands.append((added, px + q))
    cands.sort(key=lambda t: (t[0], t[1]))
    added, verts = cands[0]
    removed = inst.w(ax, bx) + inst.w(ay, by)
    if added > removed:
        raise SmcError("joining two nonpure cycles increased the weight")
    return _WCycle(verts)


def _property2_violation(inst: Instance, nonpure: _WCycle,
                         pure_cycles: list[_WCycle]
                         ) -> tuple[int, int, int, int] | None:
    """A 2-edge xy of the nonpure cycle with a 1-edge yz into a pure cycle."""
    members: dict[int, int] = {}
    for ci, c in enumerate(pure_cycles):
        for v in c.verts:
            members[v] = ci
    for a, b in nonpure.positional_edges():
        if inst.w(a, b) != 2:
            continue
        for x, y in ((a, b), (b, a)):
            for z in sorted(members):
                if inst.w(y, z) == 1:
                    return x, y, z, members[z]
    return None


def special_2factor(inst: Instance, base: CycleCover | None = None
                    ) -> SpecialTwoFactor:
    """Minimum 2-factor with the two structural properties of the pipeline.

    Starts from a minimum-weight 2-factor (or the provided one), joins
    nonpure cycles pairwise, then applies the 2-edge/1-edge exchange until
    no 1-edge leaves a 2-edge endpoint of the nonpure cycle into a pure
    cycle.  Neither step increases the weight; both shrink the cycle count.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("special 2-factor needs {1,2} weights")
    if base is None:
        if inst.pair_groups():
            base = min_weight_2factor(TwoFactorRequest(inst, allow_pair_2cycles=True))
        else:
            base = min_weight_2factor(TwoFactorRequest(inst))
    start_weight = cover_cost(inst, base)
    work = [_WCycle(list(c), is_pair=f)
            for c, f in zip(base.cycles, base.pair_flags)]

    while True:
        nonpure = sorted((c for c in work if not c.is_pure(inst)),
                         key=lambda c: min(c.verts))
        if len(nonpure) < 2:
            break
        merged = _merge_two_nonpure(inst, nonpure[0], nonpure[1])
        work = [c for c in work if c is not nonpure[0] and c is not nonpure[1]]
        work.append(merged)

    while True:
        nonpure = [c for c in work if not c.is_pure(inst)]
        if not nonpure:
            break
        npc = nonpure[0]
        pure_cycles = [c for c in work if c is not npc]
        hit = _property2_violation(inst, npc, pure_cycles)
        if hit is None:
            break
        x, y, z, ci = hit
        pc = pure_cycles[ci]
        w_ = min(set(_neighbors_on(pc, z)), key=lambda t: (inst.w(x, t), t))
        removed = inst.w(x, y) + inst.w(w_, z)
        added = inst.w(y, z) + inst.w(x, w_)
        if added > removed:
            raise SmcError("property exchange increased the weight")
        merged = _WCycle(_open_cycle(npc.verts, x, y)
                         + _open_cycle(pc.verts, z, w_))
        work = [c for c in work if c is not npc and c is not pc]
        work.append(merged)

    work.sort(key=lambda c: min(c.verts))
    cover = _to_cover(work)
    if cover_cost(inst, cover) != start_weight:
        raise SmcError("special 2-factor drifted from the minimum weight")
    pure = tuple(c.is_pure(inst) for c in work)
    if sum(1 for p in pure if not p) > 1:
        raise SmcError("more than one nonpure cycle survived")
    npi = next((i for i, p in enumerate(pure) if not p), None)
    if npi is not None:
        others = [c for i, c in enumerate(work) if i != npi]
        if _property2_violation(inst, work[npi], others) is not None:
            raise SmcError("a 2-edge endpoint still reaches a pure cycle by a 1-edge")
    return SpecialTwoFactor(cover=cover, pure=pure)


# ---------------------------------------------------------------------------
# attachment structures


def _respects(inst: Instance, verts: Iterable[int]) -> bool:
    vs = set(verts)
    for g in inst.groups:
        got = len(vs.intersection(g))
        if 0 < got < len(g):
            return False
    return True


def build_B(inst: Instance, factor: SpecialTwoFactor) -> list[tuple[int, int]]:
    """Bipartite edges (vertex, cycle index).

    Right side: pure cycles that split some group.  Edge v-C when v lies
    outside C and some u in C has w(u,v) = 1.  Pair 2-cycles keep their
    group whole, so they never show up as non-isolated right nodes.
    """
    edges = []
    for ci, cyc in enumerate(factor.cover.cycles):
        if not factor.pure[ci] or _respects(inst, cyc):
            continue
        inside = set(cyc)
        for v in range(inst.n):
            if v in inside:
                continue
            if any(inst.w(u, v) == 1 for u in cyc):
                edges.append((v, ci))
    return edges


def maximum_b_matching(b_edges: Sequence[tuple[int, int]]
                       ) -> list[tuple[int, int]]:
    """Maximum matching of B as (cycle, vertex) pairs."""
    mate = max_cardinality_matching([(("v", v), ("c", ci)) for v, ci in b_edges])
    out = []
    for a, b in mate:
        v = a[1] if a[0] == "v" else b[1]
        ci = a[1] if a[0] == "c" else b[1]
        out.append((ci, v))
    return sorted(out)


@dataclass(frozen=True)
class AttachmentDigraph:
    arcs: tuple[tuple[int, int], ...]            # cycle -> cycle, out-degree <= 1
    dprime: tuple[tuple[int, int], ...]          # spanning subgraph arcs
    matched_vertex: tuple[tuple[int, int], ...]  # (cycle, attachment vertex)
    n_cycles: int

    def out_map(self) -> dict[int, int]:
        return {a: b for a, b in self.arcs}

    def dprime_components(self) -> list[list[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.n_cycles)}
        for a, b in self.dprime:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[int] = set()
        comps = []
        for s in range(self.n_cycles):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for v in sorted(adj[u]):
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def isolated_nodes(self) -> set[int]:
        touched = {v for arc in self.dprime for v in arc}
        return {i for i in range(self.n_cycles) if i not in touched}


def _component_shape(arcs_in_comp: list[tuple[int, int]], nodes: list[int]) -> str:
    if not arcs_in_comp:
        return "isolated" if len(nodes) == 1 else "broken"
    outdeg = {v: 0 for v in nodes}
    indeg = {v: 0 for v in nodes}
    head: dict[int, int] = {}
    for a, b in arcs_in_comp:
        outdeg[a] += 1
        indeg[b] += 1
        head[a] = b
    if any(d > 1 for d in outdeg.values()):
        return "broken"
    roots = [v for v in nodes if outdeg[v] == 0]
    if len(roots) != 1:
        return "broken"
    root = roots[0]
    if all(head.get(v) == root for v in nodes if v != root):
        return "in-tree"
    if len(nodes) == 3 and len(arcs_in_comp) == 2:
        start = [v for v in nodes if indeg[v] == 0 and outdeg[v] == 1]
        if len(start) == 1 and head.get(head.get(start[0])) == root:
            return "path"
    return "broken"


def build_D_and_Dprime(inst: Instance, factor: SpecialTwoFactor,
                       matching: Iterable[tuple[int, int]],
                       break_choice: dict[int, tuple[int, int]] | None = None
                       ) -> AttachmentDigraph:
    """Cycle digraph from the matching, plus its special spanning subgraph.

    ``matching`` holds (cycle, matched vertex) pairs.  ``break_choice``
    optionally forces, per component, which arc of the component's directed
    cycle is dropped (used by the adversarial tie-break search); the default
    removes the arc entering the smallest node on that cycle.
    """
    cycles = factor.cover.cycles
    cycle_of: dict[int, int] = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            cycle_of[v] = ci
    matched = sorted(matching)
    out: dict[int, int] = {}
    for ci, v in matched:
        if ci in out:
            raise SmcError("cycle matched twice")
        if v in cycles[ci]:
            raise SmcError("cycle matched to its own vertex")
        out[ci] = cycle_of[v]
    for ci in out:
        if not factor.pure[ci]:
            raise SmcError("nonpure cycle must be unmatched")
        if len(cycles[ci]) == 2:
            raise SmcError("length-2 cycle must be unmatched")

    n_cycles = len(cycles)
    comp_id = list(range(n_cycles))

    def find(x: int) -> int:
        while comp_id[x] != x:
            comp_id[x] = comp_id[comp_id[x]]
            x = comp_id[x]
        return x

    for a, b in out.items():
        comp_id[find(a)] = find(b)
    comps: dict[int, list[int]] = {}
    for i in range(n_cycles):
        comps.setdefault(find(i), []).append(i)

    dprime: set[tuple[int, int]] = set()
    for nodes in sorted(comps.values()):
        if len(nodes) == 1:
            continue
        local_out = {v: out[v] for v in nodes if v in out}
        broken_arc: tuple[int, int] | None = None
        if all(v in local_out for v in nodes):
            # functional component: exactly one directed cycle to break
            cur = min(nodes)
            order: dict[int, int] = {}
            while cur not in order:
                order[cur] = len(order)
                cur = local_out[cur]
            cyc_nodes = [v for v in order if order[v] >= order[cur]]
            choice = (break_choice or {}).get(min(nodes))
            if choice is not None:
                a, b = choice
                if a not in cyc_nodes or local_out.get(a) != b:
                    raise SmcError("break choice is not an arc of the cycle")
                broken_arc = choice
            else:
                smallest = min(cyc_nodes)
                pred = next(v for v in cyc_nodes if local_out[v] == smallest)
                broken_arc = (pred, smallest)
            del local_out[broken_arc[0]]

        children: dict[int, list[int]] = {v: [] for v in nodes}
        for a, b in local_out.items():
            children[b].append(a)
        covered: set[int] = set()

        def peel(v: int) -> None:
            for ch in sorted(children[v]):
                peel(ch)
            pending = [ch for ch in sorted(children[v]) if ch not in covered]
            if pending:
                for ch in pending:
                    dprime.add((ch, v))
                    covered.add(ch)
                covered.add(v)

        for r in sorted(v for v in nodes if v not in local_out):
            peel(r)

        if broken_arc is not None and broken_arc[0] not in covered:
            a, b = broken_arc
            b_out = next(((x, y) for x, y in dprime if x == b), None)
            if b_out is None:
                dprime.add((a, b))  # b roots a star; a joins as a leaf
            else:
                root = b_out[1]
                star_leaves = [x for x, y in dprime if y == root]
                if star_leaves == [b]:
                    dprime.add((a, b))  # 3-node path a -> b -> root
                else:
                    dprime.discard((b, root))
                    dprime.add((a, b))  # a and b form their own star

    dig = AttachmentDigraph(arcs=tuple(sorted(out.items())),
                            dprime=tuple(sorted(dprime)),
                            matched_vertex=tuple(matched),
                            n_cycles=n_cycles)
    _assert_dprime_shape(dig)
    return dig


def _assert_dprime_shape(dig: AttachmentDigraph) -> None:
    out = dig.out_map()
    touched = {v for arc in dig.dprime for v in arc}
    for v in range(dig.n_cycles):
        if v in out and v not in touched:
            raise SmcError(f"node {v} has out-degree 1 but is isolated in D'")
    arcs = set(dig.arcs)
    for a, b in dig.dprime:
        if (a, b) not in arcs:
            raise SmcError("D' contains an arc outside D")
    for comp in dig.dprime_components():
        comp_arcs = [(a, b) for a, b in dig.dprime if a in comp]
        if _component_shape(comp_arcs, comp) == "broken":
            raise SmcError(f"D' component {comp} is not a star, path or node")


# ---------------------------------------------------------------------------
# phase 1: join cycles inside each D' component


def _merge_star(inst: Instance, root: _WCycle,
                leaves: list[tuple[_WCycle, int, int]], audit: dict,
                worst: bool = False) -> _WCycle:
    """Merge depth-1 in-tree leaves into the root cycle.

    ``leaves`` holds (leaf cycle, attachment vertex v on root, witness u on
    leaf, w(u,v)=1).  Attachment vertices adjacent along the root merge in
    pairs through the root edge between them, the rest alone; every merge
    books a virtual cost increase of at most 1, the closing edge counting
    as weight 2.
    """
    rv = root.verts
    L = len(rv)
    pos_of = {v: i for i, v in enumerate(rv)}
    start_pos = pos_of[min(v for _leaf, v, _u in leaves)]
    items = sorted(((pos_of[v], leaf, v, u) for leaf, v, u in leaves),
                   key=lambda t: (t[0] - start_pos) % L)

    removals: dict[int, tuple] = {}
    paired = [False] * len(items)
    i = 0
    while i < len(items):
        if i + 1 < len(items) and (items[i][0] + 1) % L == items[i + 1][0]:
            removals[items[i][0]] = ("pair", items[i], items[i + 1])
            paired[i] = paired[i + 1] = True
            i += 2
        else:
            i += 1
    if (len(items) >= 2 and not paired[0] and not paired[-1]
            and (items[-1][0] + 1) % L == items[0][0]
            and items[-1][0] not in removals):
        removals[items[-1][0]] = ("pair", items[-1], items[0])
        paired[0] = paired[-1] = True
    for flag, (p, leaf, v, u) in zip(paired, items):
        if flag:
            continue
        succ_w = inst.w(rv[p], rv[(p + 1) % L])
        pred_pos = (p - 1) % L
        pred_w = inst.w(rv[pred_pos], rv[p])
        use_succ = succ_w >= pred_w
        if pred_pos in removals:
            use_succ = True
        if p in removals:
            use_succ = False
        if use_succ:
            if p in removals:
                raise SmcError("conflicting root edge removals")
            removals[p] = ("single-succ", (p, leaf, v, u))
        else:
            if pred_pos in removals:
                raise SmcError("conflicting root edge removals")
            removals[pred_pos] = ("single-pred", (p, leaf, v, u))

    out: list[int] = []
    marks: set[frozenset[int]] = set(root.virtual2)
    for p in range(L):
        out.append(rv[p])
        plan = removals.get(p)
        if plan is None:
            continue
        a, b = rv[p], rv[(p + 1) % L]
        removed_root = root.virtual_w(inst, a, b)
        marks.discard(frozenset((a, b)))
        sign = -1 if worst else 1
        if plan[0] == "pair":
            (_p1, leaf, v, u), (_p2, leaf2, v2, u2) = plan[1], plan[2]
            best = None
            for x in sorted(set(_neighbors_on(leaf, u))):
                for x2 in sorted(set(_neighbors_on(leaf2, u2))):
                    gain = inst.w(x, x2) - inst.w(u, x) - inst.w(u2, x2)
                    cand = (sign * gain, x, x2)
                    if best is None or cand < best:
                        best = cand
            _w, x, x2 = best
            out.extend(_open_cycle(leaf.verts, u, x))
            out.extend(reversed(_open_cycle(leaf2.verts, u2, x2)))
            marks.add(frozenset((x, x2)))
            delta = (inst.w(v, u) + 2 + inst.w(u2, v2)
                     - removed_root - inst.w(u, x) - inst.w(u2, x2))
        elif plan[0] == "single-succ":
            _p, leaf, v, u = plan[1]
            x = min(set(_neighbors_on(leaf, u)),
                    key=lambda t: (sign * (inst.w(t, b) - inst.w(u, t)), t))
            out.extend(_open_cycle(leaf.verts, u, x))
            marks.add(frozenset((x, b)))
            delta = inst.w(v, u) + 2 - removed_root - inst.w(u, x)
        else:  # single-pred: the attachment vertex is b
            _p, leaf, v, u = plan[1]
            x = min(set(_neighbors_on(leaf, u)),
                    key=lambda t: (sign * (inst.w(t, a) - inst.w(u, t)), t))
            out.extend(reversed(_open_cycle(leaf.verts, u, x)))
            marks.add(frozenset((x, a)))
            delta = inst.w(u, v) + 2 - removed_root - inst.w(u, x)
        if delta > 1:
            raise SmcError("in-tree merge exceeded the unit cost budget")
        audit["phase1_delta"] += delta
    if len(set(out)) != len(out):
        raise SmcError("star merge produced a repeated vertex")
    return _WCycle(out, virtual2=marks)


def _cb_open_variants(cb: _WCycle, v1: int, u2: int):
    """Ways to open the middle cycle into a path from v1 to u2.

    Keeping either arc between v1 and u2 is legal.  The dropped arc loses
    its end edges: a single shared edge when that arc has length one
    (yielding (path_a, removed_pairs, [])), otherwise one edge at each end,
    leaving a leftover path that must be stitched back with a second
    closing edge.
    """
    verts = cb.verts
    L = len(verts)
    i1 = verts.index(v1)
    i2 = verts.index(u2)
    variants = []
    for step in (1, -1):
        span = ((i2 - i1) * step) % L
        path_a = [verts[(i1 + step * k) % L] for k in range(span + 1)]
        if L - span == 1:
            variants.append((path_a, [(v1, u2)], []))
            continue
        y1 = verts[(i1 - step) % L]
        y2 = verts[(i2 + step) % L]
        p2_len = L - span - 1
        path_p2 = [verts[(i2 + step * (1 + k)) % L] for k in range(p2_len)]
        variants.append((path_a, [(y1, v1), (u2, y2)], path_p2))
    return variants


def _merge_path(inst: Instance, ca: _WCycle, cb: _WCycle, cc: _WCycle,
                e1: tuple[int, int], e2: tuple[int, int], audit: dict,
                worst: bool = False) -> _WCycle:
    """Merge a 3-node D' path: arcs ca->cb (1-edge u1v1), cb->cc (u2v2).

    All legal openings of the three cycles are enumerated; the default picks
    the cheapest, the adversarial mode the costliest.  Every variant stays
    within the 2-unit budget, closing edges booked at weight 2.
    """
    u1, v1 = e1
    u2, v2 = e2
    cands = []
    for x1 in sorted(set(_neighbors_on(ca, u1))):
        ra = list(reversed(_open_cycle(ca.verts, u1, x1)))  # x1 .. u1
        for x2 in sorted(set(_neighbors_on(cc, v2))):
            pc = _open_cycle(cc.verts, v2, x2)  # v2 .. x2
            base_removed = inst.w(u1, x1) + cc.virtual_w(inst, v2, x2)
            if v1 == u2:
                m = v1
                nb = _neighbors_on(cb, m)
                pb = _rotate_path(cb, m)  # succ(m) .. pred(m)
                verts = ra + [m] + pc + pb
                mark_edges = [(pc[-1], pb[0]), (pb[-1], ra[0])]
                removed = base_removed + inst.w(m, nb[0]) + inst.w(m, nb[1])
                added = inst.w(u1, m) + inst.w(m, v2) + 4
                cands.append((added - removed, verts, mark_edges))
                continue
            for path_a, rm_pairs, path_p2 in _cb_open_variants(cb, v1, u2):
                removed = base_removed + sum(inst.w(a, b) for a, b in rm_pairs)
                if path_p2:
                    verts = ra + path_a + pc + path_p2
                    mark_edges = [(pc[-1], path_p2[0]), (path_p2[-1], ra[0])]
                    added = inst.w(u1, v1) + inst.w(u2, v2) + 4
                else:
                    verts = ra + path_a + pc
                    mark_edges = [(pc[-1], ra[0])]
                    added = inst.w(u1, v1) + inst.w(u2, v2) + 2
                cands.append((added - removed, verts, mark_edges))
    key = (lambda t: (-t[0], t[1])) if worst else (lambda t: (t[0], t[1]))
    delta, verts, mark_edges = min(cands, key=key)
    if delta > 2:
        raise SmcError("path merge exceeded the 2-unit cost budget")
    if len(set(verts)) != len(verts):
        raise SmcError("path merge produced a repeated vertex")
    Lv = len(verts)
    edge_set = {frozenset((verts[p], verts[(p + 1) % Lv])) for p in range(Lv)}
    marks = {m for m in (ca.virtual2 | cb.virtual2 | cc.virtual2)
             if m in edge_set}
    marks.update(frozenset(e) for e in mark_edges)
    audit["phase1_delta"] += delta
    return _WCycle(verts, virtual2=marks)


def _rotate_path(cb: _WCycle, m: int) -> list[int]:
    """Vertices of cb minus m, walked along the cycle from succ(m)."""
    verts = cb.verts
    L = len(verts)
    i = verts.index(m)
    return [verts[(i + k) % L] for k in range(1, L)]


def join_component_cycles(inst: Instance, factor: SpecialTwoFactor,
                          dig: AttachmentDigraph, audit: dict,
                          worst: bool = False) -> list[_WCycle]:
    """Phase 1: merge the factor's cycles along each D' component."""
    cycles = [_WCycle(list(c), is_pair=f)
              for c, f in zip(factor.cover.cycles, factor.cover.pair_flags)]
    matched_v = dict(dig.matched_vertex)

    def witness(ci: int, v: int) -> int:
        cands = [u for u in cycles[ci].verts if inst.w(u, v) == 1]
        if not cands:
            raise SmcError("matched pair lost its 1-edge witness")
        return min(cands)

    out: list[_WCycle] = []
    for comp in dig.dprime_components():
        comp_arcs = sorted((a, b) for a, b in dig.dprime if a in comp)
        if not comp_arcs:
            out.append(cycles[comp[0]])
            continue
        shape = _component_shape(comp_arcs, comp)
        if shape == "in-tree":
            root = next(v for v in comp if all(a != v for a, _b in comp_arcs))
            leaves = []
            for a, _b in comp_arcs:
                v = matched_v[a]
                leaves.append((cycles[a], v, witness(a, v)))
            out.append(_merge_star(inst, cycles[root], leaves, audit, worst))
        elif shape == "path":
            head = {a: b for a, b in comp_arcs}
            indeg0 = next(v for v in comp
                          if v not in {b for _a, b in comp_arcs} and v in head)
            a, b, c = indeg0, head[indeg0], head[head[indeg0]]
            va, vb = matched_v[a], matched_v[b]
            e1 = (witness(a, va), va)
            e2 = (witness(b, vb), vb)
            out.append(_merge_path(inst, cycles[a], cycles[b], cycles[c],
                                   e1, e2, audit, worst))
        else:
            raise SmcError("unexpected D' component shape")
    return out


# ---------------------------------------------------------------------------
# phase 2: join cycles that still share a terminal group


def _removal_candidates(inst: Instance, c: _WCycle) -> list[tuple]:
    """Cycle edges best removed first: real 2-edges, then virtual, then rest."""
    cands = []
    for a, b in c.positional_edges():
        virt = c.virtual_w(inst, a, b)
        cands.append((-virt, -inst.w(a, b), min(a, b), max(a, b), (a, b)))
    cands.sort()
    return cands


def join_disrespecting_cycles(inst: Instance, cycles: list[_WCycle],
                              audit: dict, worst: bool = False) -> list[_WCycle]:
    """Phase 2: merge cycle pairs sharing a split group, 2-edge pairs first.

    Joining two cycles that both hold a (real or virtual) 2-edge is free in
    the virtual accounting; one 2-edge costs at most 1; two pure cycles cost
    at most 2.  The audited total stays within one unit per isolated pure
    cycle counted in c_p.
    """
    work = list(cycles)
    while True:
        homes: dict[int, set[int]] = {}
        for idx, c in enumerate(work):
            for v in c.verts:
                gi = inst.group_of[v]
                homes.setdefault(gi, set()).add(idx)
        offending = sorted((gi, idxs) for gi, idxs in homes.items()
                           if len(idxs) > 1)
        if not offending:
            return work
        pairs = set()
        for _gi, idxs in offending:
            for i, j in combinations(sorted(idxs), 2):
                pairs.add((i, j))

        def priority(t: tuple[int, int]) -> tuple:
            i, j = t
            two = work[i].has_2edge(inst), work[j].has_2edge(inst)
            return (-(two[0] + two[1]), i, j)

        i, j = min(pairs, key=priority)
        ci, cj = work[i], work[j]
        ei = _removal_candidates(inst, ci)[0][-1]
        ej = _removal_candidates(inst, cj)[0][-1]
        pi = _open_cycle(ci.verts, *ei)
        pj = _open_cycle(cj.verts, *ej)
        sign = -1 if worst else 1
        best = None
        for q in (pj, list(reversed(pj))):
            added = inst.w(pi[-1], q[0]) + inst.w(q[-1], pi[0])
            if best is None or (sign * added, q) < best:
                best = (sign * added, q)
        added, q = best[0] * sign, best[1]
        removed = ci.virtual_w(inst, *ei) + cj.virtual_w(inst, *ej)
        delta = added - removed
        both = ci.has_2edge(inst) + cj.has_2edge(inst)
        limit = {2: 0, 1: 1, 0: 2}[both]
        if delta > limit:
            raise SmcError("phase-2 merge exceeded its cost budget")
        audit["phase2_delta"] += delta
        verts = pi + q
        edge_set = {frozenset((verts[p], verts[(p + 1) % len(verts)]))
                    for p in range(len(verts))}
        marks = {m for m in (ci.virtual2 | cj.virtual2) if m in edge_set}
        merged = _WCycle(verts, virtual2=marks)
        work = [c for k, c in enumerate(work) if k not in (i, j)]
        work.append(merged)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class OneTwoStages:
    factor: SpecialTwoFactor
    b_edges: tuple[tuple[int, int], ...]
    matching: tuple[tuple[int, int], ...]
    digraph: AttachmentDigraph
    c_p: int
    factor_weight: Weight
    factor_two_edges: int
    phase1_delta: Weight
    phase2_delta: Weight
    cover: CycleCover


def _run_join_phases(inst: Instance, factor: SpecialTwoFactor,
                     matching: list[tuple[int, int]],
                     break_choice: dict[int, tuple[int, int]] | None = None,
                     worst: bool = False,
                     triangle_free_factor: bool = False) -> OneTwoStages:
    dig = build_D_and_Dprime(inst, factor, matching, break_choice)
    isolated = dig.isolated_nodes()
    c_p = sum(1 for ci in isolated
              if factor.pure[ci]
              and not _respects(inst, factor.cover.cycles[ci]))
    audit = {"phase1_delta": 0, "phase2_delta": 0}
    merged = join_component_cycles(inst, factor, dig, audit, worst)
    final = join_disrespecting_cycles(inst, merged, audit, worst)
    cover = _to_cover(sorted(final, key=lambda c: min(c.verts)))

    factor_weight = cover_cost(inst, factor.cover)
    e2 = count_weight2_edges(inst, factor.cover)
    if audit["phase2_delta"] > c_p:
        raise SmcError("phase-2 total exceeded the isolated-pure-cycle count")
    # aggregate charge audit: every isolated offending pure cycle holds at
    # least min_len uncharged vertices and one vertex per 2-edge of the
    # factor goes uncharged, so the phase-1 increase fits within
    # charge_cap * (n - min_len*c_p - e2)
    min_len = 4 if triangle_free_factor else 3
    charge_cap = Fraction(1, 6) if triangle_free_factor else Fraction(2, 9)
    chargeable = inst.n - min_len * c_p - e2
    if Fraction(audit["phase1_delta"]) > charge_cap * chargeable:
        raise SmcError("phase-1 total exceeded the charge budget")

    cost = cover_cost(inst, cover)
    if cost > factor_weight + audit["phase1_delta"] + audit["phase2_delta"]:
        raise SmcError("final cost above the audited bound")
    # assembled inequality chain, in integers
    if not triangle_free_factor:
        if 9 * cost > 11 * inst.n + 7 * e2 + 3 * c_p:
            raise SmcError("final cost above the 11/9 inequality chain")
    else:
        if 6 * cost > 7 * inst.n + 5 * e2 + 2 * c_p:
            raise SmcError("final cost above the 7/6 inequality chain")
    report = validate_solution(inst, cover)
    if not report.feasible:
        raise SmcError(f"pipeline produced infeasible cover: {report.violations}")
    return OneTwoStages(factor=factor, b_edges=tuple(build_B(inst, factor)),
                        matching=tuple(sorted(matching)), digraph=dig,
                        c_p=c_p, factor_weight=factor_weight,
                        factor_two_edges=e2,
                        phase1_delta=audit["phase1_delta"],
                        phase2_delta=audit["phase2_delta"], cover=cover)


def approx_onetwo(inst: Instance, variant: str = "ratio-11-9",
                  tie_break: str = "lex") -> tuple[CycleCover, OneTwoStages]:
    """Special 2-factor, attachment matching, and the two joining phases.

    ``variant='ratio-7-6'`` starts from a minimum triangle-free 2-factor
    and requires every group to have at least 4 vertices.  With
    ``tie_break='adversarial'`` the optimizer enumerates, at desk scale,
    every optimal 2-factor, every maximum matching of B and every way of
    breaking the directed cycles of D, returning the worst final cover; the
    default resolves all ties deterministically.
    """
    if inst.weight_class is not WeightClass.ONE_TWO:
        raise ValidationError("the {1,2} pipeline needs one-two weights")
    if variant not in ("ratio-11-9", "ratio-7-6"):
        raise ValidationError(f"unknown variant {variant!r}")
    if variant == "ratio-7-6":
        if any(len(g) < 4 for g in inst.groups):
            raise ValidationError("the 7/6 variant needs every group of size >= 4")

    tf = variant == "ratio-7-6"
    if tie_break == "lex":
        factor = special_2factor(inst, base=_base_factor(inst, variant))
        matching = maximum_b_matching(build_B(inst, factor))
        stages = _run_join_phases(inst, factor, matching, triangle_free_factor=tf)
        return stages.cover, stages
    if tie_break != "adversarial":
        raise ValidationError(f"unknown tie break {tie_break!r}")

    worst: OneTwoStages | None = None
    runs = 0
    for base in _enumerate_min_2factors(inst, variant):
        factor = special_2factor(inst, base=base)
        b_edges = build_B(inst, factor)
        for matching in _enumerate_maximum_matchings(b_edges):
            for break_choice in _enumerate_break_choices(inst, factor, matching):
                runs += 1
                if runs > ADVERSARIAL_MAX_RUNS:
                    raise BudgetExceededError(
                        "adversarial tie-break search exceeded its run budget")
                stages = _run_join_phases(inst, factor, matching, break_choice,
                                          worst=True, triangle_free_factor=tf)
                if worst is None or cover_cost(inst, stages.cover) > cover_cost(
                        inst, worst.cover):
                    worst = stages
    if worst is None:
        raise SmcError("adversarial search produced no candidate cover")
    return worst.cover, worst


def _base_factor(inst: Instance, variant: str) -> CycleCover:
    allow = bool(inst.pair_groups())
    if variant == "ratio-7-6":
        req = TwoFactorRequest(inst, triangle_free=True, allow_pair_2cycles=allow) \
            if allow else TwoFactorRequest(inst, triangle_free=True)
        return min_weight_triangle_free_2factor(req)
    req = TwoFactorRequest(inst, allow_pair_2cycles=allow) if allow \
        else TwoFactorRequest(inst)
    return min_weight_2factor(req)


def _enumerate_min_2factors(inst: Instance, variant: str) -> list[CycleCover]:
    """All minimum-weight (triangle-free for 7/6) 2-factors, desk scale."""
    from .oracle import enumerate_optimal_2factors
    return enumerate_optimal_2factors(
        inst, triangle_free=(variant == "ratio-7-6"),
        allow_pair_2cycles=bool(inst.pair_groups()))


def _enumerate_maximum_matchings(b_edges: list[tuple[int, int]]
                                 ) -> list[list[tuple[int, int]]]:
    """Every maximum matching of the bipartite graph B."""
    target = len(maximum_b_matching(b_edges))
    if target == 0:
        return [[]]
    by_cycle: dict[int, list[int]] = {}
    for v, ci in b_edges:
        by_cycle.setdefault(ci, []).append(v)
    cycle_ids = sorted(by_cycle)
    found: set[frozenset[tuple[int, int]]] = set()

    def rec(k: int, used: set[int], acc: list[tuple[int, int]]) -> None:
        if len(acc) + (len(cycle_ids) - k) < target:
            return
        if k == len(cycle_ids):
            if len(acc) == target:
                found.add(frozenset(acc))
            return
        ci = cycle_ids[k]
        for v in sorted(by_cycle[ci]):
            if v not in used:
                used.add(v)
                acc.append((ci, v))
                rec(k + 1, used, acc)
                acc.pop()
                used.remove(v)
        rec(k + 1, used, acc)

    rec(0, set(), [])
    return [sorted(m) for m in sorted(found, key=sorted)]


def _enumerate_break_choices(inst: Instance, factor: SpecialTwoFactor,
                             matching: list[tuple[int, int]]
                             ) -> list[dict[int, tuple[int, int]] | None]:
    """Per functional component of D, each cycle arc as the break candidate."""
    cycles = factor.cover.cycles
    cycle_of: dict[int, int] = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            cycle_of[v] = ci
    out = {ci: cycle_of[v] for ci, v in matching}
    comp_id = list(range(len(cycles)))

    def find(x: int) -> int:
        while comp_id[x] != x:
            comp_id[x] = comp_id[comp_id[x]]
            x = comp_id[x]
        return x

    for a, b in out.items():
        comp_id[find(a)] = find(b)
    comps: dict[int, list[int]] = {}
    for i in range(len(cycles)):
        comps.setdefault(find(i), []).append(i)

    per_comp: list[tuple[int, list[tuple[int, int]]]] = []
    for nodes in sorted(comps.values()):
        if len(nodes) < 2 or not all(v in out for v in nodes):
            continue
        cur = min(nodes)
        order: dict[int, int] = {}
        while cur not in order:
            order[cur] = len(order)
            cur = out[cur]
        cyc_nodes = [v for v in order if order[v] >= order[cur]]
        per_comp.append((min(nodes), [(v, out[v]) for v in cyc_nodes]))

    if not per_comp:
        return [None]
    choices: list[dict[int, tuple[int, int]]] = [{}]
    for key, arcs in per_comp:
        nxt = []
        for c in choices:
            for arc in arcs:
                d = dict(c)
                d[key] = arc
                nxt.append(d)
        choices = nxt
    return choices

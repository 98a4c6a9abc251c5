"""Desk-scale exact solvers used as ground truth by the test suites.

Budgets are hard errors, never silent truncation: every solver refuses
inputs beyond its cap.  Two independent routes exist for the multicycle
optimum (group clustering with Held-Karp, and raw permutation enumeration)
so the oracles can cross-check each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from random import Random

from .core import (CycleCover, Instance, Weight, cover_cost,
                   generate_instance, make_cover, validate_solution)
from .errors import BudgetExceededError, SmcError, ValidationError
from .matching import min_weight_perfect_matching


@dataclass(frozen=True)
class OracleBudget:
    """Hard input caps per solver plus an optional wall-clock ceiling."""

    smc_max_n: int = 12
    smc_directed_max_n: int = 8
    twofactor_max_n: int = 9
    twofactor_directed_max_n: int = 7
    snd_max_n: int = 7
    steiner_forest_max_n: int = 8
    time_limit_s: float | None = None

    def deadline(self) -> float | None:
        if self.time_limit_s is None:
            return None
        return time.monotonic() + self.time_limit_s


DEFAULT_BUDGET = OracleBudget()


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("oracle time ceiling exceeded")


# ---------------------------------------------------------------------------
# Steiner multicycle optimum


def _group_partitions(k: int):
    """All partitions of range(k) into nonempty clusters."""
    if k == 0:
        yield []
        return
    for rest in _group_partitions(k - 1):
        v = k - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [v]] + rest[i + 1:]
        yield rest + [[v]]


def _min_hamiltonian(inst: Instance, verts: tuple[int, ...],
                     deadline: float | None) -> tuple[Weight, list[int]]:
    """Cheapest single cycle through all of ``verts`` (pair 2-cycle at s=2)."""
    s = len(verts)
    if s == 2:
        u, v = verts
        cost = inst.w(u, v) + inst.w(v, u)
        return cost, [u, v]
    start = verts[0]
    others = verts[1:]
    m = s - 1
    full = (1 << m) - 1
    dp: list[dict[int, Weight]] = [dict() for _ in range(1 << m)]
    parent: list[dict[int, int]] = [dict() for _ in range(1 << m)]
    for j in range(m):
        dp[1 << j][j] = inst.w(start, others[j])
    for mask in range(1, full + 1):
        _check_deadline(deadline)
        row = dp[mask]
        for j, cost in row.items():
            vj = others[j]
            rest = full & ~mask
            k = rest
            while k:
                low = k & -k
                t = low.bit_length() - 1
                k ^= low
                cand = cost + inst.w(vj, others[t])
                cur = dp[mask | low].get(t)
                if cur is None or cand < cur:
                    dp[mask | low][t] = cand
                    parent[mask | low][t] = j
    best = None
    best_j = -1
    for j, cost in dp[full].items():
        total = cost + inst.w(others[j], start)
        if best is None or total < best:
            best = total
            best_j = j
    order = []
    mask, j = full, best_j
    while j is not None and mask:
        order.append(others[j])
        pj = parent[mask].get(j)
        mask &= ~(1 << j)
        j = pj
    order.reverse()
    return best, [start] + order


def brute_force_smc(inst: Instance, budget: OracleBudget = DEFAULT_BUDGET
                    ) -> tuple[Weight, CycleCover]:
    """Exact multicycle optimum.

    Every feasible cover's cycles are unions of whole terminal groups, so
    the optimum is the best way to cluster groups, with one cheapest cycle
    per cluster.
    """
    directed = not inst.symmetric
    cap = budget.smc_directed_max_n if directed else budget.smc_max_n
    if inst.n > cap:
        raise BudgetExceededError(f"smc oracle capped at n={cap}, got {inst.n}")
    deadline = budget.deadline()

    cycle_cache: dict[tuple[int, ...], tuple[Weight, list[int]]] = {}

    def cluster_cycle(groups_idx: tuple[int, ...]) -> tuple[Weight, list[int]]:
        verts = tuple(sorted(v for gi in groups_idx for v in inst.groups[gi]))
        hit = cycle_cache.get(verts)
        if hit is None:
            hit = _min_hamiltonian(inst, verts, deadline)
            cycle_cache[verts] = hit
        return hit

    best_cost: Weight | None = None
    best_cycles: list[list[int]] | None = None
    for partition in _group_partitions(len(inst.groups)):
        total: Weight = 0
        cycles = []
        for cluster in partition:
            cost, order = cluster_cycle(tuple(sorted(cluster)))
            total += cost
            cycles.append(order)
        if best_cost is None or total < best_cost:
            best_cost = total
            best_cycles = cycles
    flags = [not directed and len(c) == 2 for c in best_cycles]
    cover = make_cover(best_cycles, directed=directed, pair_flags=flags)
    report = validate_solution(inst, cover)
    if not report.feasible:
        raise ValidationError(f"oracle produced infeasible cover: {report.violations}")
    if cover_cost(inst, cover) != best_cost:
        raise SmcError("oracle cover cost differs from its enumerated optimum")
    return best_cost, cover


def brute_force_smc_permutation(inst: Instance, budget: OracleBudget = DEFAULT_BUDGET
                                ) -> Weight:
    """Independent multicycle optimum via raw permutation enumeration (n <= 7)."""
    if inst.n > 7:
        raise BudgetExceededError("permutation oracle capped at n=7")
    directed = not inst.symmetric
    pair_set = {frozenset(p) for p in inst.pair_groups()}
    group_of = inst.group_of
    best: Weight | None = None
    for perm in permutations(range(inst.n)):
        cost: Weight = 0
        ok = True
        seen = [False] * inst.n
        for start in range(inst.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            cur = perm[start]
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                cur = perm[cur]
            if len(cyc) == 1:
                ok = False
                break
            if len(cyc) == 2 and not directed and frozenset(cyc) not in pair_set:
                ok = False
                break
            home = {group_of[v] for v in cyc}
            if any(not set(inst.groups[g]) <= set(cyc) for g in home):
                ok = False
                break
            for i in range(len(cyc)):
                cost += inst.w(cyc[i], cyc[(i + 1) % len(cyc)])
        if ok and (best is None or cost < best):
            best = cost
    if best is None:
        raise ValidationError("no feasible cover found by permutation oracle")
    return best


# ---------------------------------------------------------------------------
# minimum-weight 2-factor (all variants)


def brute_force_2factor(inst: Instance, triangle_free: bool = False,
                        directed: bool = False, allow_pair_2cycles: bool = False,
                        budget: OracleBudget = DEFAULT_BUDGET) -> Weight:
    """Exact minimum over all (triangle-free) 2-factors by cycle enumeration."""
    cap = budget.twofactor_directed_max_n if directed else budget.twofactor_max_n
    if inst.n > cap:
        raise BudgetExceededError(f"2-factor oracle capped at n={cap}, got {inst.n}")
    if directed == inst.symmetric:
        raise ValidationError("direction flag does not match the instance")
    deadline = budget.deadline()
    n = inst.n
    pair_set = {frozenset(p) for p in inst.pair_groups()} if allow_pair_2cycles else set()
    min_incident = [min(min(inst.w(v, u), inst.w(u, v))
                        for u in range(n) if u != v) for v in range(n)]

    best: list[Weight | None] = [None]

    def lb(mask: int) -> Weight:
        total: Weight = 0
        while mask:
            low = mask & -mask
            total += min_incident[low.bit_length() - 1]
            mask ^= low
        return total

    def close_ok(length: int) -> bool:
        if directed:
            return length >= 2
        if length == 2:
            return False  # pair closure handled separately
        if triangle_free and length == 3:
            return False
        return length >= 3

    def rec(uncov: int, acc: Weight) -> None:
        _check_deadline(deadline)
        if best[0] is not None and acc + lb(uncov) >= best[0]:
            return
        if uncov == 0:
            best[0] = acc
            return
        anchor = (uncov & -uncov).bit_length() - 1

        def grow(path: list[int], pmask: int, cost: Weight) -> None:
            rest = uncov & ~pmask
            if best[0] is not None and acc + cost + lb(rest) >= best[0]:
                return
            last = path[-1]
            length = len(path)
            if length == 2 and not directed and frozenset(path) in pair_set:
                rec(rest, acc + cost + inst.w(last, anchor))
            if close_ok(length) and (directed or length == 2 or path[1] < last):
                rec(rest, acc + cost + inst.w(last, anchor))
            k = rest
            while k:
                low = k & -k
                v = low.bit_length() - 1
                k ^= low
                grow(path + [v], pmask | low, cost + inst.w(last, v))

        grow([anchor], 1 << anchor, 0)

    rec((1 << n) - 1, 0)
    if best[0] is None:
        raise ValidationError("no 2-factor under the requested constraints")
    return best[0]


def enumerate_optimal_2factors(inst: Instance, triangle_free: bool = False,
                               allow_pair_2cycles: bool = False,
                               budget: OracleBudget = DEFAULT_BUDGET,
                               limit: int = 20000) -> list[CycleCover]:
    """Every undirected 2-factor attaining the minimum weight (desk scale).

    Supports the adversarial tie-break searches; enumeration order is
    canonical (each cycle anchored at its smallest vertex, orientation
    fixed), so the result is deterministic and duplicate-free.
    """
    if inst.n > budget.twofactor_max_n + 3:
        raise BudgetExceededError("optimal 2-factor enumeration capped at "
                                  f"n={budget.twofactor_max_n + 3}")
    if not inst.symmetric:
        raise ValidationError("2-factor enumeration handles symmetric instances")
    best = brute_force_2factor(inst, triangle_free=triangle_free,
                               allow_pair_2cycles=allow_pair_2cycles,
                               budget=OracleBudget(
                                   twofactor_max_n=budget.twofactor_max_n + 3,
                                   time_limit_s=budget.time_limit_s))
    n = inst.n
    pair_set = ({frozenset(p) for p in inst.pair_groups()}
                if allow_pair_2cycles else set())
    out: list[CycleCover] = []

    def rec(uncov: int, acc: Weight, cycles: list[tuple[tuple[int, ...], bool]]):
        if acc > best:
            return
        if uncov == 0:
            if acc == best:
                if len(out) >= limit:
                    raise BudgetExceededError("too many optimal 2-factors")
                out.append(make_cover([c for c, _f in cycles], directed=False,
                                      pair_flags=[f for _c, f in cycles]))
            return
        anchor = (uncov & -uncov).bit_length() - 1

        def grow(path: list[int], pmask: int, cost: Weight) -> None:
            if acc + cost > best:
                return
            rest = uncov & ~pmask
            last = path[-1]
            length = len(path)
            if length == 2 and frozenset(path) in pair_set:
                rec(rest, acc + cost + inst.w(last, anchor),
                    cycles + [(tuple(path), True)])
            if length >= 3 and path[1] < last and not (triangle_free and length == 3):
                rec(rest, acc + cost + inst.w(last, anchor),
                    cycles + [(tuple(path), False)])
            k = rest
            while k:
                low = k & -k
                v = low.bit_length() - 1
                k ^= low
                grow(path + [v], pmask | low, cost + inst.w(last, v))

        grow([anchor], 1 << anchor, 0)

    rec((1 << n) - 1, 0, [])
    return out


# ---------------------------------------------------------------------------
# survivable network design optimum


def _min_2ecss(inst: Instance, verts: tuple[int, ...],
               deadline: float | None) -> Weight:
    """Cheapest 2-edge-connected spanning sub-multigraph (multiplicity <= 2)."""
    s = len(verts)
    if s == 2:
        return 2 * inst.w(verts[0], verts[1])
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted(((inst.w(u, v), index[u], index[v])
                    for i, u in enumerate(verts) for v in verts[i + 1:]))
    m = len(edges)

    # doubled minimum spanning tree as the initial upper bound
    in_tree = [False] * s
    in_tree[0] = True
    ub: Weight = 0
    for _ in range(s - 1):
        cand = min((w, a, b) for (w, a, b) in edges
                   if in_tree[a] != in_tree[b])
        ub += 2 * cand[0]
        in_tree[cand[1]] = in_tree[cand[2]] = True
    best: list[Weight] = [ub]

    suffix_min_at = [[None] * (m + 1) for _ in range(s)]
    for i in range(m - 1, -1, -1):
        w, a, b = edges[i]
        for x in range(s):
            nxt = suffix_min_at[x][i + 1]
            here = w if x in (a, b) else None
            suffix_min_at[x][i] = here if nxt is None or (
                here is not None and here < nxt) else nxt

    def feasible(mult: list[int]) -> bool:
        # every proper cut must be crossed by >= 2 edge copies
        for wmask in range(1, 1 << (s - 1)):
            crossing = 0
            for k in range(m):
                if not mult[k]:
                    continue
                _, a, b = edges[k]
                ina = wmask >> a & 1 if a < s - 1 else 0
                inb = wmask >> b & 1 if b < s - 1 else 0
                if ina != inb:
                    crossing += mult[k]
                    if crossing >= 2:
                        break
            if crossing < 2:
                return False
        return True

    mult = [0] * m
    deg = [0] * s

    def lower(acc2: Weight, idx: int) -> Weight:
        # twice the admissible completion bound, to stay in integers
        extra: Weight = 0
        for x in range(s):
            need = 2 - deg[x]
            if need > 0:
                cheap = suffix_min_at[x][idx]
                if cheap is None:
                    return None  # cannot finish degrees: dead branch
                extra += need * cheap
        return acc2 + extra

    def rec(idx: int, acc: Weight) -> None:
        _check_deadline(deadline)
        if acc >= best[0]:
            return
        if all(d >= 2 for d in deg) and feasible(mult):
            best[0] = acc
            return
        if idx == m:
            return
        low = lower(2 * acc, idx)
        if low is None or low >= 2 * best[0]:
            return
        w, a, b = edges[idx]
        for choice in (1, 2, 0):
            mult[idx] = choice
            deg[a] += choice
            deg[b] += choice
            rec(idx + 1, acc + choice * w)
            deg[a] -= choice
            deg[b] -= choice
            mult[idx] = 0

    rec(0, 0)
    return best[0]


def brute_force_snd(inst: Instance, budget: OracleBudget = DEFAULT_BUDGET) -> Weight:
    """Exact optimum for the derived {0,2} survivable network design instance.

    Deleting bridges from any feasible solution keeps it feasible, so the
    optimum decomposes over clusterings of the terminal groups with one
    2-edge-connected sub-multigraph per cluster.
    """
    if inst.n > budget.snd_max_n:
        raise BudgetExceededError(f"snd oracle capped at n={budget.snd_max_n}")
    if not inst.symmetric:
        raise ValidationError("snd oracle handles symmetric instances only")
    deadline = budget.deadline()
    cache: dict[tuple[int, ...], Weight] = {}

    def cluster_cost(groups_idx: tuple[int, ...]) -> Weight:
        verts = tuple(sorted(v for gi in groups_idx for v in inst.groups[gi]))
        if verts not in cache:
            cache[verts] = _min_2ecss(inst, verts, deadline)
        return cache[verts]

    best: Weight | None = None
    for partition in _group_partitions(len(inst.groups)):
        total: Weight = 0
        for cluster in partition:
            total += cluster_cost(tuple(sorted(cluster)))
        if best is None or total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# Steiner forest optimum and its primal-dual 2-approximation


def _mst_cost(inst: Instance, verts: tuple[int, ...]) -> tuple[Weight, list[tuple[int, int]]]:
    s = len(verts)
    in_tree = {verts[0]}
    cost: Weight = 0
    tree: list[tuple[int, int]] = []
    while len(in_tree) < s:
        w, u, v = min((inst.w(u, v), u, v)
                      for u in in_tree for v in verts if v not in in_tree)
        cost += w
        tree.append((u, v))
        in_tree.add(v)
    return cost, tree


def brute_force_steiner_forest(inst: Instance,
                               budget: OracleBudget = DEFAULT_BUDGET
                               ) -> tuple[Weight, set[tuple[int, int]]]:
    """Exact Steiner forest optimum (components are unions of groups)."""
    if inst.n > budget.steiner_forest_max_n:
        raise BudgetExceededError(
            f"steiner forest oracle capped at n={budget.steiner_forest_max_n}")
    if not inst.symmetric:
        raise ValidationError("steiner forest oracle handles symmetric instances only")
    best: Weight | None = None
    best_edges: set[tuple[int, int]] = set()
    for partition in _group_partitions(len(inst.groups)):
        total: Weight = 0
        edges: set[tuple[int, int]] = set()
        for cluster in partition:
            verts = tuple(sorted(v for gi in cluster for v in inst.groups[gi]))
            cost, tree = _mst_cost(inst, verts)
            total += cost
            edges.update((min(u, v), max(u, v)) for u, v in tree)
        if best is None or total < best:
            best = total
            best_edges = edges
    return best, best_edges


def _forest_feasible(inst: Instance, edges: set[tuple[int, int]]) -> bool:
    parent = list(range(inst.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return all(len({find(v) for v in g}) == 1 for g in inst.groups)


def approx_steiner_forest(inst: Instance) -> set[tuple[int, int]]:
    """Primal-dual 2-approximate Steiner forest (uniform moat growth).

    Grows duals of every active component simultaneously, merges along the
    first tight edge, then prunes unnecessary edges in reverse order.
    """
    if not inst.symmetric:
        raise ValidationError("steiner forest approximation handles symmetric instances")
    n = inst.n
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    potential = [Fraction(0)] * n
    picked: list[tuple[int, int]] = []

    def active_roots() -> set[int]:
        members: dict[int, set[int]] = {}
        for v in range(n):
            members.setdefault(find(v), set()).add(v)
        act = set()
        for root, verts in members.items():
            for g in inst.groups:
                got = len(verts.intersection(g))
                if 0 < got < len(g):
                    act.add(root)
                    break
        return act

    while True:
        act = active_roots()
        if not act:
            break
        best_eps: Fraction | None = None
        best_edge: tuple[int, int] | None = None
        for u in range(n):
            for v in range(u + 1, n):
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                speed = (ru in act) + (rv in act)
                if speed == 0:
                    continue
                eps = Fraction(inst.w(u, v) - potential[u] - potential[v], speed)
                if eps < 0:
                    eps = Fraction(0)
                if best_eps is None or eps < best_eps or (
                        eps == best_eps and (u, v) < best_edge):
                    best_eps = eps
                    best_edge = (u, v)
        for v in range(n):
            if find(v) in act:
                potential[v] += best_eps
        u, v = best_edge
        picked.append(best_edge)
        comp[find(u)] = find(v)

    kept = set(picked)
    for e in reversed(picked):
        trial = kept - {e}
        if _forest_feasible(inst, trial):
            kept = trial
    if not _forest_feasible(inst, kept):
        raise SmcError("pruned Steiner forest leaves a group disconnected")
    return kept


# ---------------------------------------------------------------------------
# probe: matchings on odd-degree vertices of Steiner forests


@dataclass(frozen=True)
class ProbeRow:
    seed: int
    n: int
    group_sizes: tuple[int, ...]
    opt_smc: Weight
    w_matching_exact_forest: Weight
    w_matching_approx_forest: Weight

    @property
    def ratio_exact(self) -> Fraction:
        return Fraction(self.w_matching_exact_forest) / Fraction(self.opt_smc)

    @property
    def ratio_approx(self) -> Fraction:
        return Fraction(self.w_matching_approx_forest) / Fraction(self.opt_smc)

    @property
    def counterexample(self) -> bool:
        return (self.w_matching_exact_forest > self.opt_smc
                or self.w_matching_approx_forest > self.opt_smc)


@dataclass(frozen=True)
class ProbeReport:
    rows: tuple[ProbeRow, ...]

    @property
    def counterexamples(self) -> tuple[ProbeRow, ...]:
        return tuple(r for r in self.rows if r.counterexample)


def _odd_degree_vertices(n: int, edges: set[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [v for v in range(n) if deg[v] % 2 == 1]


def _matching_weight_on(inst: Instance, verts: list[int]) -> Weight:
    if not verts:
        return 0
    edges = [(u, v, inst.w(u, v)) for i, u in enumerate(verts)
             for v in verts[i + 1:]]
    mate = min_weight_perfect_matching(edges, vertices=verts)
    return sum(inst.w(u, v) for u, v in mate)


def matching_vs_opt_probe(seed: int, trials: int,
                          budget: OracleBudget = DEFAULT_BUDGET) -> ProbeReport:
    """Search for an instance whose forest-odd-vertex matching beats opt.

    For each random metric instance: matching weight on the odd-degree set
    of an exact Steiner forest, and of a 2-approximate one, both compared
    against the exact multicycle optimum.  Each trial also re-verifies the
    survivable-network side chain w(M) <= w(J) <= w(G')/2 on the pruned
    2-approximate subgraph.
    """
    from .metric import approx_metric

    rng = Random(seed)
    rows = []
    for t in range(trials):
        n = rng.choice((4, 5, 6, 7, 8))
        sizes = []
        left = n
        while left >= 2:
            if left in (2, 3):
                s = left
            else:
                s = rng.randint(2, min(4, left - 2)) if left >= 4 else left
                if left - s == 1:
                    s += 1
            sizes.append(s)
            left -= s
        inst = generate_instance("euclidean", n, sizes, seed=rng.randrange(1 << 30))
        opt, _ = brute_force_smc(inst, budget)
        _, exact_forest = brute_force_steiner_forest(inst, budget)
        approx_forest = approx_steiner_forest(inst)
        w_exact = _matching_weight_on(inst, _odd_degree_vertices(inst.n, exact_forest))
        w_approx = _matching_weight_on(inst, _odd_degree_vertices(inst.n, approx_forest))

        _cover, stages = approx_metric(inst)
        w_matching_t = _matching_weight_on(inst, list(stages.odd_vertices))
        chain_ok = (w_matching_t <= stages.join_weight
                    and 2 * Fraction(stages.join_weight)
                    <= Fraction(stages.pruned.weight(inst)))
        if not chain_ok:
            raise ValidationError("matching/T-join/subgraph chain failed")

        rows.append(ProbeRow(seed=seed, n=n, group_sizes=tuple(sizes),
                             opt_smc=opt,
                             w_matching_exact_forest=w_exact,
                             w_matching_approx_forest=w_approx))
    return ProbeReport(rows=tuple(rows))

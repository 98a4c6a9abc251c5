"""Seeded instance passes for the four benchmark workloads.

A run solves pass 0, 1, 2, ... of its workload; pass ``i`` is a fixed mix
of fresh instances made from the workload, the seed and ``i`` alone, in
random order, so no instance is solved twice in a run and the solves of a
pass cut short are still a sample of the mix.  Each item carries the
instance as file text (what the solver is given), the generator's weight
matrix (the benchmark's reference for costs), the algorithm to run and
whether the exact oracle checks the ratio.

Why each workload exists (one dominant layer each, plus the small-input
regime):

* ``metric-lp``: metric3 at n = 9 spends most of its time in the exact
  rational simplex under the cut LP.
* ``onetwo-factor``: onetwo119 at n = 36 spends nearly all of its time
  in blossom matching on the n^2-node 2-factor degree gadget; no LP runs.
* ``asym-files``: asym-log at n = 200 on clustered instances, where the
  O(n^3) triangle check in ``validate_instance`` dominates and the
  representative loop runs several rounds.
* ``desk-sweep``: hundreds of small instances of all three classes, each
  checked against the brute-force oracle, the per-call-overhead regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from smcycle import core
from smcycle.core import Instance, WeightClass

WORKLOADS = ("metric-lp", "onetwo-factor", "asym-files", "desk-sweep")


@dataclass(frozen=True)
class Item:
    text: str
    weights: tuple[tuple[int, ...], ...]
    algo: str          # metric3 | onetwo119 | onetwo76 | asym-log
    oracle: bool       # compare against brute_force_smc
    n: int


def as_items(generated: list[tuple[Instance, str, bool]]) -> list[Item]:
    """Write each generated instance as the file text the solver reads."""
    return [Item(text=core.format_instance(inst), weights=inst.weights,
                 algo=algo, oracle=oracle, n=inst.n)
            for inst, algo, oracle in generated]


def _threes(n: int) -> list[int]:
    """Groups of about 3: a remainder of 1 widens one group, 2 adds a pair."""
    sizes = [3] * (n // 3)
    if n % 3 == 1:
        sizes[-1] = 4
    elif n % 3 == 2:
        sizes.append(2)
    return sizes


def _mixed_sizes(rng: Random, n: int) -> list[int]:
    """Random group sizes 2-6, as in the acceptance suite."""
    sizes = []
    left = n
    while left:
        if left in (2, 3):
            take = left
        elif left == 4:
            take = rng.choice((2, 4))
        else:
            take = rng.randint(2, min(6, left))
            if left - take == 1:
                take += 1
        sizes.append(take)
        left -= take
    return sizes


def floyd_warshall(w: list[list[int]]) -> None:
    """Close ``w`` under shortest paths in place (row-wise relaxation)."""
    n = len(w)
    for k in range(n):
        row_k = w[k]
        for i in range(n):
            w_ik = w[i][k]
            w[i] = [a if a <= w_ik + b else w_ik + b
                    for a, b in zip(w[i], row_k)]


_KERNEL_RNG = Random(0)
KERNEL_MATRIX = tuple(tuple(0 if i == j else _KERNEL_RNG.randrange(1, 1000)
                            for j in range(40)) for i in range(40))


def calibration_kernel() -> Fraction:
    """Fixed pure-Python work (integer closure, Fraction sums) of the kind
    the solver does.  It is benchmark code, so no change to the solver
    makes it faster or slower; only the machine does."""
    w = [list(row) for row in KERNEL_MATRIX]
    floyd_warshall(w)
    return sum(Fraction(sum(row), len(row)) for row in w)


# every group takes one vertex from each of GROUP_SIZE distinct clusters
CLUSTER_SIZE = 5
GROUP_SIZE = 4
# Arc weight ranges.  A path of two arcs weighs at least 20 when both lie
# inside a cluster and at least 210 otherwise, more than any single arc it
# could replace, so the triangle inequality holds without a closure.
INSIDE = (10, 20)       # arcs inside a cluster
ACROSS = (200, 210)     # arcs between clusters


def clustered_asymmetric(n: int, rng: Random) -> Instance:
    """Directed metric with cheap arcs inside clusters, groups across them.

    The minimum directed 2-factor stays inside clusters, so nearly every
    cycle splits a group (eta0 in the tens) and the representative loop
    runs several rounds.  ``n`` is a multiple of GROUP_SIZE.  The benchmark
    only builds the Instance here and leaves validation to
    ``parse_instance`` in the solve.
    """
    clusters = n // CLUSTER_SIZE
    perm = list(range(n))
    rng.shuffle(perm)
    cluster_of = [0] * n
    for slot, v in enumerate(perm):
        cluster_of[v] = slot % clusters
    w = tuple(tuple(0 if i == j
                    else rng.randrange(*INSIDE)
                    if cluster_of[i] == cluster_of[j]
                    else rng.randrange(*ACROSS)
                    for j in range(n)) for i in range(n))
    # consecutive slots of perm lie in distinct clusters
    groups = sorted(tuple(sorted(perm[a:a + GROUP_SIZE]))
                    for a in range(0, n, GROUP_SIZE))
    return Instance(n=n, weights=w, symmetric=False,
                    weight_class=WeightClass.ASYMMETRIC_METRIC,
                    groups=tuple(groups))


def _seed(rng: Random) -> int:
    return rng.randrange(1 << 30)


def generate(workload: str, seed: int, index: int
             ) -> list[tuple[Instance, str, bool]]:
    """Pass ``index`` of the workload as (instance, algorithm, oracle check),
    shuffled into solve order; the same arguments give the same pass."""
    rng = Random(f"{workload}/{seed}/{index}")
    pool: list[tuple[Instance, str, bool]] = []
    if workload == "metric-lp":
        # one size: larger n runs longer LPs but gives too few solves in
        # a run for a steady median, and mixed sizes widen its spread
        for _ in range(200):
            inst = core.generate_instance("euclidean", 9, _threes(9),
                                          _seed(rng))
            pool.append((inst, "metric3", False))
    elif workload == "onetwo-factor":
        # one size; onetwo76 is left to desk-sweep, since its
        # triangle-free 2-factor stops at n = 12 and a mix of fast and slow
        # solves would tilt with where a pass is cut short
        for _ in range(10):
            inst = core.generate_instance("one-two", 30, [3] * 10, _seed(rng))
            pool.append((inst, "onetwo119", False))
    elif workload == "asym-files":
        # one size, so that a pass cut short does not tilt the mix
        for _ in range(12):
            pool.append((clustered_asymmetric(160, rng), "asym-log", False))
    elif workload == "desk-sweep":
        # per block: 3 metric3, 4 onetwo119, 1 onetwo76, 2 asym-log; the
        # fixed mix puts the median solve inside the onetwo119 cluster.
        # Sizes cycle rather than being drawn, so every pass holds each
        # size equally often and only the instances differ between seeds.
        for block in range(60):
            for j in range(3):
                n = 5 + (3 * block + j) % 5
                inst = core.generate_instance("euclidean", n,
                                              _mixed_sizes(rng, n), _seed(rng))
                pool.append((inst, "metric3", True))
            for j in range(4):
                n = 5 + (4 * block + j) % 5
                sizes = _mixed_sizes(rng, n)
                while min(sizes) >= 4:
                    sizes = _mixed_sizes(rng, n)
                inst = core.generate_instance("one-two", n, sizes, _seed(rng))
                pool.append((inst, "onetwo119", True))
            n = 8 + block % 2
            inst = core.generate_instance("one-two", n, [4, n - 4], _seed(rng))
            pool.append((inst, "onetwo76", True))
            for j in range(2):
                # the directed oracle stops at n = 8
                n = 4 + (2 * block + j) % 4
                inst = core.generate_instance("asymmetric", n,
                                              _mixed_sizes(rng, n), _seed(rng))
                pool.append((inst, "asym-log", True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(pool)
    return pool

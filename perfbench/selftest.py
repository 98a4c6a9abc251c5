"""Self-test of the benchmark: tracer bindings and the workload design.

    python3 perfbench/selftest.py [workload ...]

Checks that the tracer wraps every module binding of a traced function and
puts the originals back, then makes one traced run per workload (seed 1,
1 s) and checks that every layer records calls on the workload it is
mapped to, that the traced and untraced passes give the same
cover_cost_sum, and that each workload's dominant layer takes the share of
self time it was chosen for.  Exits 1 on the first failed check.  Takes a
few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = 1

# layer -> workloads on which it must record at least one call
LAYER_WORKLOADS = {
    "simplex.solve_min_lp": ("metric-lp", "desk-sweep"),
    "snd.solve_cut_lp": ("metric-lp", "desk-sweep"),
    "snd.jain_round": ("metric-lp", "desk-sweep"),
    "snd.prune_bridges": ("metric-lp", "desk-sweep"),
    "metric.min_t_join": ("metric-lp", "desk-sweep"),
    "metric.double_and_shortcut": ("metric-lp", "desk-sweep"),
    # metric-lp T-joins are mostly empty, so only some seeds match there
    "matching.min_weight_perfect_matching": ("onetwo-factor", "desk-sweep"),
    "matching.min_cost_bipartite_perfect_matching": ("asym-files",),
    "matching.max_cardinality_matching": ("asym-files", "onetwo-factor"),
    "matching.minimal_edge_cover": ("asym-files",),
    "twofactor.min_weight_2factor": ("onetwo-factor",),
    "twofactor.min_weight_triangle_free_2factor": ("desk-sweep",),
    "twofactor.min_weight_directed_2factor": ("asym-files",),
    "onetwo.special_2factor": ("onetwo-factor",),
    "onetwo.maximum_b_matching": ("onetwo-factor",),
    "onetwo.build_D_and_Dprime": ("onetwo-factor",),
    "onetwo.join_component_cycles": ("onetwo-factor",),
    "onetwo.join_disrespecting_cycles": ("onetwo-factor",),
    "asymmetric.representatives": ("asym-files",),
    "asymmetric.directed_shortcut": ("asym-files",),
    "core.parse_instance": ("asym-files", "desk-sweep"),
    "core.validate_instance": ("asym-files", "desk-sweep"),
    "core.validate_solution": ("asym-files", "desk-sweep"),
    "oracle.brute_force_smc": ("desk-sweep",),
}

# layer -> workloads on which it must record no call
NO_CALLS = {
    "simplex.solve_min_lp": ("onetwo-factor", "asym-files"),
    "oracle.brute_force_smc": ("metric-lp", "onetwo-factor", "asym-files"),
}

# workload -> (layer, least share of the traced solve time spent in it)
DOMINANT = {
    "metric-lp": ("simplex.solve_min_lp", 0.6),
    "onetwo-factor": ("matching.min_weight_perfect_matching", 0.8),
    "asym-files": ("core.validate_instance", 0.6),
}


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        sys.exit(1)


def check_bindings() -> None:
    import smcycle.asymmetric
    import smcycle.metric
    import smcycle.onetwo
    import smcycle.oracle
    from tracer import TARGETS, Tracer, smcycle_modules

    def bindings():
        out = {}
        for module, function in TARGETS:
            original = getattr(sys.modules[f"smcycle.{module}"], function)
            for mod in smcycle_modules():
                for attr, value in vars(mod).items():
                    if value is original:
                        out[(mod.__name__, attr)] = value
        return out

    before = bindings()
    check(before[("smcycle.metric", "jain_round")]
          is smcycle.snd.jain_round, "metric binds snd.jain_round")
    with Tracer():
        unwrapped = [key for key, fn in before.items()
                     if getattr(sys.modules[key[0]], key[1]) is fn]
        check(not unwrapped, f"all {len(before)} bindings wrapped "
                             f"(left alone: {unwrapped})")
    restored = all(getattr(sys.modules[m], a) is fn
                   for (m, a), fn in before.items())
    check(restored, "every original binding restored")


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    check(proc.returncode == 0, f"{workload}: traced run exits 0"
                                f"{'' if proc.returncode == 0 else proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record_path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1.json"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: {result['attempted']} solves, all verified")
    return record


def check_workload(workload: str, record: dict) -> None:
    calls = record["samples"]["calls"]
    metrics = record["metrics"]
    for layer, workloads in LAYER_WORKLOADS.items():
        if workload in workloads:
            check(calls[layer] >= 1,
                  f"{workload}: {layer} called {calls[layer]} times")
    for layer, workloads in NO_CALLS.items():
        if workload in workloads:
            check(calls[layer] == 0,
                  f"{workload}: {layer} not called ({calls[layer]})")
    sums = record["cover_cost_sum"]
    check(sums["traced"] == sums["untraced"],
          f"{workload}: cover_cost_sum traced {sums['traced']} == "
          f"untraced {sums['untraced']}")
    if workload in DOMINANT:
        layer, least = DOMINANT[workload]
        share = metrics[f"{layer}.self_s"] / metrics["trace.solve_s"]
        check(share >= least,
              f"{workload}: {layer} takes {share:.0%} of self time "
              f"(at least {least:.0%})")
    if workload == "asym-files":
        rounds = [row["rounds"] for row in record["instances"]]
        check(min(rounds) >= 2, f"{workload}: rounds per instance {rounds}")
    print(f"      {workload}: tracing overhead "
          f"{metrics['trace.overhead']:+.1%} of solves_per_s", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import TARGETS, layer_name
    from workloads import WORKLOADS

    mapped = {w for ws in LAYER_WORKLOADS.values() for w in ws}
    check(set(LAYER_WORKLOADS) == {layer_name(m, f) for m, f in TARGETS}
          and mapped <= set(WORKLOADS), "every traced layer is mapped")
    check_bindings()
    for workload in args.workloads or WORKLOADS:
        check_workload(workload, traced_run(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""smcycle benchmark: exact solves of one workload, checked and timed.

    python3 perfbench/run.py --workload metric-lp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``.  Load model: closed loop, one caller, one thread.  Each solve
starts from ``parse_instance`` on the instance text and ends after the cover
has been validated and costed (and, on desk-sweep, checked against the
exact oracle); the next solve starts only when it has finished.  A run
solves the seeded passes 0, 1, 2, ... of fresh instances (see
``workloads.generate``) until ``--seconds`` have passed, pass 0 always in
full; no instance is solved twice, so no state kept between solves is timed
as a gain the one-instance-per-process CLI would not see.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pass 0
untraced, then traced passes from pass 0 for the rest of ``--seconds``, and
reports the per-layer metrics; the two must give the same cover costs on
pass 0.
End-to-end timings are rescaled to a reference machine speed that an
interleaved calibration kernel measures (see ``Calibration``).  The metric
names and units printed are the ones listed in BENCHMARK.json.
The last line of standard output is one JSON object; a fuller record (and,
when traced, every span) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MAX_LOGGED_FAILURES = 3
# The reported times are rescaled to the machine speed at which the
# calibration kernel takes CALIBRATION_REF_S; a sample is the median of
# CALIBRATION_RUNS kernel runs, taken at most every CALIBRATION_EVERY_S
# between solves and around each set-up.
CALIBRATION_REF_S = 0.007
CALIBRATION_RUNS = 3
CALIBRATION_EVERY_S = 0.25

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import smcycle.metric, smcycle.onetwo, smcycle.asymmetric, "
                "smcycle.oracle; print(time.perf_counter() - t)")

PAPER_BOUNDS = {"metric3": Fraction(3), "onetwo119": Fraction(11, 9),
                "onetwo76": Fraction(7, 6)}


class CheckFailed(Exception):
    """A solve returned a cover that fails one of the benchmark's checks."""


def reference_cost(weights, cover):
    """Cover cost from the generator's weights, independent of the solver."""
    total = 0
    for cyc, pair in zip(cover.cycles, cover.pair_flags):
        if pair:
            total += 2 * weights[cyc[0]][cyc[1]]
        else:
            total += sum(weights[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    return total


def solve(item):
    """One solve as ``smcycle solve`` (and ``compare --oracle``) runs it.

    Returns (cost, rounds, eta0); the last two are None off asym-log.
    Functions are looked up on their modules at call time so that the
    tracer's wrappers are the ones called.
    """
    from smcycle import asymmetric, core, metric, onetwo, oracle

    inst = core.parse_instance(item.text)
    rounds = eta0 = None
    if item.algo == "metric3":
        cover, _ = metric.approx_metric(inst)
    elif item.algo == "onetwo119":
        cover, _ = onetwo.approx_onetwo(inst, "ratio-11-9")
    elif item.algo == "onetwo76":
        cover, _ = onetwo.approx_onetwo(inst, "ratio-7-6")
    else:
        cover, stages = asymmetric.approx_asymmetric(inst)
        rounds, eta0 = stages.iterations, stages.etas[0]
    report = core.validate_solution(inst, cover)
    if not report.feasible:
        raise CheckFailed(f"infeasible cover: {report.violations}")
    cost = core.cover_cost(inst, cover)
    if cost != reference_cost(item.weights, cover):
        raise CheckFailed(f"cover_cost {cost} differs from the recomputed "
                          f"{reference_cost(item.weights, cover)}")
    if item.oracle:
        opt, _ = oracle.brute_force_smc(inst)
        bound = PAPER_BOUNDS.get(item.algo,
                                 Fraction(asymmetric.iteration_bound(inst.n)))
        if not opt <= cost <= bound * opt:
            raise CheckFailed(f"cost {cost} against optimum {opt} breaks "
                              f"the ratio bound {bound}")
    return cost, rounds, eta0


class Calibration:
    """Machine speed, sampled with the calibration kernel during a run.

    On a shared machine the speed of identical work swings by tens of
    percent within seconds.  Each timed span is rescaled by the kernel
    samples taken just before and just after it, which removes much of
    that swing from the comparison between runs; the unscaled values are
    kept in the record.
    """

    def __init__(self) -> None:
        from workloads import calibration_kernel

        self._kernel = calibration_kernel
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        runs = []
        start = perf_counter()
        for _ in range(CALIBRATION_RUNS):
            t0 = perf_counter()
            self._kernel()
            runs.append(perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.samples.append(statistics.median(runs))

    def tick(self) -> None:
        if perf_counter() - self.ends[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns the time from t0 to t1 into reference time,
        from the last sample before t0 and the first after t1."""
        before = bisect_right(self.ends, t0) - 1
        after = bisect_left(self.starts, t1)
        kernel = (self.samples[before] + self.samples[after]) / 2
        return CALIBRATION_REF_S / kernel


class Run:
    """Solves of one measured loop: times, failures and pass-0 results."""

    def __init__(self, workload: str, seed: int, first_pass):
        self.workload = workload
        self.seed = seed
        self.first_pass = first_pass
        self.spans: list[tuple[float, float]] = []   # (start, end) per solve
        self.failed = 0
        # pass 0, per instance: (cost, rounds, eta0); cost None if it failed
        self.first: list[tuple] = []
        self.rounds: list[tuple[int, int]] = []   # every asym-log solve
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_LOGGED_FAILURES:
            self.errors.append(message)
            print(message, file=sys.stderr)

    def loop(self, seconds: float, tracer=None,
             calibration: Calibration | None = None) -> "Run":
        """Solve pass after pass for ``seconds``, pass 0 in full."""
        from workloads import as_items, generate

        start = perf_counter()
        for index in count():
            pool = (self.first_pass if index == 0 else
                    as_items(generate(self.workload, self.seed, index)))
            for position, item in enumerate(pool):
                if calibration is not None:
                    calibration.tick()
                solve_id = len(self.spans)
                t0 = perf_counter()
                try:
                    if tracer is None:
                        result = solve(item)
                    else:
                        with tracer.solve(solve_id):
                            result = solve(item)
                except Exception:  # a failed solve is counted, never fatal
                    result = (None, None, None)
                    self.fail(f"solve {solve_id} (pass {index}, instance "
                              f"{position}, {item.algo}) failed:\n"
                              + traceback.format_exc())
                t1 = perf_counter()
                self.spans.append((t0, t1))
                if index == 0:
                    self.first.append(result)
                if result[1] is not None:
                    self.rounds.append(result[1:])
                if index and t1 - start >= seconds:
                    return self
            if t1 - start >= seconds:
                return self

    @property
    def solves(self) -> int:
        return len(self.spans)

    def times(self, calibration: Calibration | None = None) -> list[float]:
        """Solve times, in reference time when a calibration is given."""
        return [(t1 - t0) * (calibration.scale(t0, t1) if calibration else 1)
                for t0, t1 in self.spans]

    def solves_per_s(self, calibration: Calibration | None = None) -> float:
        """Verified solves per second of solving."""
        return (self.solves - self.failed) / sum(self.times(calibration))

    def first_costs(self) -> list:
        return [cost for cost, _, _ in self.first]

    def cover_cost_sum(self):
        """Exact sum of the pass-0 cover costs, fixed by the seed."""
        return sum(cost for cost in self.first_costs() if cost is not None)


def import_seconds() -> float:
    """Import time of the solver modules, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup(workload: str, seed: int, calibration: Calibration):
    """Set up several times; the median time and pass 0 as file text.

    The timed part is the library's: importing the solver in a fresh
    interpreter and ``format_instance`` writing pass 0 as the text a user's
    instance files hold.  Generating the instances is the benchmark's own
    input making and is not timed.
    """
    from workloads import as_items, generate

    samples, spans = [], []
    pool = None
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        start = perf_counter()
        imported = import_seconds()
        generated = generate(workload, seed, 0)
        t0 = perf_counter()
        again = as_items(generated)
        spans.append((start, perf_counter()))
        samples.append(imported + spans[-1][1] - t0)
        if pool is None:
            pool = again
        elif again != pool:
            raise CheckFailed("the same seed generated a different pass")
    calibration.sample()
    scaled = [value * calibration.scale(*span)
              for value, span in zip(samples, spans)]
    return pool, statistics.median(scaled), samples


def smcycle_version() -> str:
    import tomllib
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return "unknown"


def environment(args) -> dict:
    import networkx
    return {"python": platform.python_version(),
            "networkx": networkx.__version__,
            "smcycle": smcycle_version(),
            "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def timings(run: Run, calibration: Calibration | None) -> dict:
    times = run.times(calibration)
    out = {"solves_per_s": run.solves_per_s(calibration),
           "solve_s_p50": statistics.median(times)}
    if run.solves >= 100:  # ten solves beyond the 90th percentile
        out["solve_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return out


def end_to_end(run: Run, setup_s: float, setup_samples: list[float],
               calibration: Calibration) -> tuple[dict, dict]:
    metrics = timings(run, calibration)
    unscaled = timings(run, None)
    unscaled["setup_s"] = statistics.median(setup_samples)
    scales = [calibration.scale(*span) for span in run.spans]
    metrics.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cover_cost_sum=run.cover_cost_sum(),
        unscaled=unscaled, speed_scale=statistics.median(scales))
    samples = {"solves": run.solves, "pass0_instances": len(run.first),
               "solves_per_s": run.solves, "solve_s_p50": run.solves,
               "solve_s_p90": run.solves, "setup_s": SETUP_REPEATS,
               "peak_rss_mb": 1, "cover_cost_sum": len(run.first),
               "calibration": len(calibration.samples)}
    return metrics, samples


def per_layer(plain: Run, traced: Run, tracer) -> tuple[dict, dict]:
    from tracer import TARGETS, layer_name

    summary = tracer.summary()
    solves = summary["solve"]["calls"]
    metrics: dict[str, float] = {}
    calls = {}
    for module, function in TARGETS:
        name = layer_name(module, function)
        row = summary.get(name, {"calls": 0, "self_ns": 0})
        calls[name] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_ns"] / 1e9 / solves
        metrics[f"{name}.calls"] = row["calls"] / solves
    metrics.update(tracer.probe_means())
    cut_lps = calls["snd.solve_cut_lp"]
    metrics["snd.lp_per_cut_lp"] = (calls["simplex.solve_min_lp"] / cut_lps
                                    if cut_lps else 0)
    rounds = traced.rounds
    metrics["asymmetric.rounds"] = (statistics.mean(r for r, _ in rounds)
                                    if rounds else 0)
    metrics["asymmetric.eta0"] = (statistics.mean(e for _, e in rounds)
                                  if rounds else 0)
    metrics["trace.solve_s"] = summary["solve"]["total_ns"] / 1e9 / solves
    metrics["trace.solves_per_s"] = traced.solves_per_s()
    metrics["trace.untraced_solves_per_s"] = plain.solves_per_s()
    metrics["trace.overhead"] = (plain.solves_per_s()
                                 / traced.solves_per_s() - 1)
    samples = {"solves": solves, "untraced_solves": plain.solves,
               "calls": calls}
    return metrics, samples


def instances(pool, run: Run) -> list[dict]:
    """Pass 0, one row per instance in solve order."""
    out = []
    for item, (cost, rounds, eta0) in zip(pool, run.first):
        row = {"n": item.n, "algo": item.algo, "cost": str(cost)}
        if rounds is not None:
            row["rounds"], row["eta0"] = rounds, eta0
        out.append(row)
    return out


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smcycle" / "__init__.py").is_file():
        print(f"no smcycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smcycle
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(smcycle.__file__).resolve().parent != SRC / "smcycle":
        print(f"imported smcycle from {smcycle.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    declared = declared_metrics(args.trace)

    correct = True
    calibration = Calibration()
    pool, setup_s, setup_samples = setup(args.workload, args.seed, calibration)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": environment(args),
              "setup_s_samples": setup_samples}
    if args.trace:
        start = perf_counter()
        plain = Run(args.workload, args.seed, pool).loop(0)
        tracer = Tracer()
        with tracer:
            traced = Run(args.workload, args.seed, pool).loop(
                args.seconds - (perf_counter() - start), tracer)
        runs = [plain, traced]
        metrics, samples = per_layer(plain, traced, tracer)
        record["cover_cost_sum"] = {"untraced": str(plain.cover_cost_sum()),
                                    "traced": str(traced.cover_cost_sum())}
        if plain.first_costs() != traced.first_costs():
            correct = False
            print("traced and untraced passes gave different cover costs",
                  file=sys.stderr)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = spans_path.name
    else:
        run = Run(args.workload, args.seed, pool).loop(
            args.seconds, calibration=calibration)
        calibration.sample()
        runs = [run]
        metrics, samples = end_to_end(run, setup_s, setup_samples,
                                      calibration)
        record["cover_cost_sum"] = str(run.cover_cost_sum())
    record["instances"] = instances(pool, runs[-1])

    attempted = sum(r.solves for r in runs)
    failed = sum(r.failed for r in runs)
    correct = correct and failed == 0
    record.update(metrics=metrics, samples=samples, correct=correct,
                  attempted=attempted, failed=failed,
                  errors=[e for r in runs for e in r.errors])
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

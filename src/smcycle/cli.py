"""Command-line interface: generate, solve, compare, probe.

Exit codes: 0 feasible/pass, 1 infeasible or assertion failure, 2 usage
or file-format error, 3 budget exceeded.  Every solution is re-validated
before it is written; all randomness flows from the explicit --seed flag,
so identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import sys
import time
from fractions import Fraction
from pathlib import Path

from .asymmetric import approx_asymmetric, iteration_bound
from .core import (Instance, cover_cost, format_instance, format_solution,
                   generate_instance, parse_instance, validate_solution)
from .errors import BudgetExceededError, FormatError, SmcError, ValidationError
from .metric import approx_metric, doubled_subgraph_baseline
from .onetwo import approx_onetwo
from .oracle import OracleBudget, brute_force_smc, matching_vs_opt_probe

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ALGORITHMS = ("metric3", "onetwo119", "onetwo76", "asym-log", "prior-sf4")

COMPARE_COLUMNS = ("instance", "n", "groups", "algorithm", "cost",
                   "oracle_cost", "ratio", "paper_bound", "pass",
                   "iterations", "wall_time_s")

PROBE_COLUMNS = ("seed", "n", "groups", "opt_smc", "w_matching_exact_forest",
                 "w_matching_approx_forest", "ratio_exact", "ratio_approx",
                 "counterexample")


def _parse_groups_spec(spec: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in spec.replace("+", ",").split(",") if tok]
    except ValueError as exc:
        raise ValidationError(f"bad groups spec {spec!r}") from exc
    if not sizes:
        raise ValidationError("empty groups spec")
    return sizes


def _normalize_kind(kind: str) -> str:
    return {"onetwo": "one-two"}.get(kind, kind)


def _groups_label(inst: Instance) -> str:
    return ",".join(str(len(g)) for g in inst.groups)


def _run_algorithm(name: str, inst: Instance, tie_break: str,
                   trace: list[str] | None):
    """Returns (cover, iterations-or-None, paper bound as a Fraction)."""
    if name == "metric3":
        cover, stages = approx_metric(inst, trace=trace)
        if trace is not None:
            _dump_metric_stages(trace, inst, stages)
        return cover, None, Fraction(3)
    if name == "onetwo119":
        cover, stages = approx_onetwo(inst, "ratio-11-9", tie_break=tie_break)
        if trace is not None:
            _dump_onetwo_stages(trace, inst, stages)
        return cover, None, Fraction(11, 9)
    if name == "onetwo76":
        cover, stages = approx_onetwo(inst, "ratio-7-6", tie_break=tie_break)
        if trace is not None:
            _dump_onetwo_stages(trace, inst, stages)
        return cover, None, Fraction(7, 6)
    if name == "asym-log":
        cover, stages = approx_asymmetric(inst, trace=trace)
        return cover, stages.iterations, Fraction(iteration_bound(inst.n))
    if name == "prior-sf4":
        return doubled_subgraph_baseline(inst), None, Fraction(4)
    raise ValidationError(f"unknown algorithm {name!r}")


def _dump_metric_stages(trace: list[str], inst: Instance, stages) -> None:
    trace.append("stage snd-subgraph")
    for u, v, c in stages.snd_subgraph.edges:
        trace.append(f"  {u} {v} copy{c}")
    trace.append("stage pruned")
    for u, v, c in stages.pruned.edges:
        trace.append(f"  {u} {v} copy{c}")
    trace.append(f"stage odd-set {' '.join(map(str, stages.odd_vertices))}")
    trace.append("stage t-join")
    for u, v in sorted(stages.join.edges):
        trace.append(f"  {u} {v}")
    trace.append("stage eulerian")
    for u, v, c in stages.pruned.edges:
        trace.append(f"  {u} {v} copy{c}")
    for u, v in sorted(stages.join.edges):
        trace.append(f"  {u} {v} join")
    trace.append(f"stage eulerian-weight {stages.eulerian_weight}")
    trace.append("stage cover")
    trace.append(format_solution(stages.cover).rstrip("\n"))


def _dump_onetwo_stages(trace: list[str], inst: Instance, stages) -> None:
    trace.append("stage special-2factor")
    trace.append(format_solution(stages.factor.cover).rstrip("\n"))
    trace.append(f"stage b-edges {sorted(stages.b_edges)}")
    trace.append(f"stage matching {sorted(stages.matching)}")
    trace.append(f"stage d-arcs {sorted(stages.digraph.arcs)}")
    trace.append(f"stage dprime {sorted(stages.digraph.dprime)}")
    trace.append(f"stage c_p {stages.c_p} phase1 {stages.phase1_delta} "
                 f"phase2 {stages.phase2_delta}")
    trace.append("stage cover")
    trace.append(format_solution(stages.cover).rstrip("\n"))


def cmd_gen(args) -> int:
    sizes = _parse_groups_spec(args.groups)
    inst = generate_instance(_normalize_kind(args.kind), args.n, sizes,
                             seed=args.seed)
    text = format_instance(inst)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}: n={inst.n} class={inst.weight_class.value} "
          f"groups={_groups_label(inst)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = parse_instance(Path(args.infile).read_text(encoding="utf-8"))
    trace: list[str] | None = [] if args.dump_stages else None
    cover, iterations, bound = _run_algorithm(args.algo, inst,
                                              args.tie_break, trace)
    report = validate_solution(inst, cover)
    cost = cover_cost(inst, cover)
    if args.out and report.feasible:
        Path(args.out).write_text(format_solution(cover), encoding="utf-8")
    if trace is not None:
        dump_path = (f"{args.out}.stages" if args.out else None)
        payload = "\n".join(trace) + "\n"
        if dump_path:
            Path(dump_path).write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
    iter_part = f" iterations={iterations}" if iterations is not None else ""
    print(f"algorithm={args.algo} cost={cost} "
          f"feasible={'yes' if report.feasible else 'no'} "
          f"cycles={len(cover.cycles)}{iter_part}")
    if not report.feasible:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {a!r}")
    paths = sorted(globmod.glob(args.instances))
    budget = OracleBudget() if args.budget_n is None else OracleBudget(
        smc_max_n=args.budget_n, smc_directed_max_n=args.budget_n)
    rows = []
    all_pass = True
    for path in paths:
        inst = parse_instance(Path(path).read_text(encoding="utf-8"))
        oracle_cost = None
        if args.oracle:
            oracle_cost, _ = brute_force_smc(inst, budget)
        for algo in algos:
            t0 = time.perf_counter()
            cover, iterations, bound = _run_algorithm(inst=inst, name=algo,
                                                      tie_break=args.tie_break,
                                                      trace=None)
            wall = time.perf_counter() - t0
            report = validate_solution(inst, cover)
            if not report.feasible:
                raise SmcError(f"{algo} produced an infeasible cover on {path}")
            cost = cover_cost(inst, cover)
            ratio = ""
            passed = ""
            if oracle_cost is not None:
                frac = Fraction(cost) / Fraction(oracle_cost)
                ratio = str(frac)
                ok = frac <= bound
                passed = "yes" if ok else "no"
                all_pass = all_pass and ok
            rows.append({
                "instance": Path(path).name,
                "n": inst.n,
                "groups": _groups_label(inst),
                "algorithm": algo,
                "cost": str(cost),
                "oracle_cost": "" if oracle_cost is None else str(oracle_cost),
                "ratio": ratio,
                "paper_bound": str(bound),
                "pass": passed,
                "iterations": "" if iterations is None else str(iterations),
                "wall_time_s": f"{wall:.6f}",
            })
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    if args.oracle and rows:
        for algo in algos:
            ratios = [Fraction(r["ratio"]) for r in rows
                      if r["algorithm"] == algo and r["ratio"]]
            if ratios:
                mean = sum(ratios, Fraction(0)) / len(ratios)
                print(f"mean ratio {algo}: {mean} (~{float(mean):.4f})")
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_probe(args) -> int:
    budget = OracleBudget()
    report = matching_vs_opt_probe(seed=args.seed, trials=args.trials,
                                   budget=budget)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=PROBE_COLUMNS)
        writer.writeheader()
        for row in report.rows:
            writer.writerow({
                "seed": row.seed,
                "n": row.n,
                "groups": ",".join(str(s) for s in row.group_sizes),
                "opt_smc": str(row.opt_smc),
                "w_matching_exact_forest": str(row.w_matching_exact_forest),
                "w_matching_approx_forest": str(row.w_matching_approx_forest),
                "ratio_exact": str(row.ratio_exact),
                "ratio_approx": str(row.ratio_approx),
                "counterexample": "yes" if row.counterexample else "no",
            })
    bad = report.counterexamples
    print(f"wrote {args.out}: {len(report.rows)} trials, "
          f"{len(bad)} counterexamples")
    return EXIT_FAIL if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcycle",
        description="Steiner multicycle approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("kind", choices=("euclidean", "onetwo", "one-two",
                                        "asymmetric"))
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("groups", help="comma-separated group sizes, e.g. 3,6")
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance")
    p_solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--out")
    p_solve.add_argument("--tie-break", choices=("lex", "adversarial"),
                         default="lex")
    p_solve.add_argument("--dump-stages", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="ratio report over instance files")
    p_cmp.add_argument("--algo", required=True,
                       help="comma-separated algorithm names")
    p_cmp.add_argument("--in", dest="instances", required=True,
                       help="glob over instance files")
    p_cmp.add_argument("--out", required=True, help="CSV output path")
    p_cmp.add_argument("--oracle", action="store_true")
    p_cmp.add_argument("--tie-break", choices=("lex", "adversarial"),
                       default="lex")
    p_cmp.add_argument("--budget-n", type=int, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_probe = sub.add_parser("probe", help="forest-matching counterexample probe")
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--trials", type=int, required=True)
    p_probe.add_argument("--out", required=True)
    p_probe.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

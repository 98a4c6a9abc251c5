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

from .asymmetric import AsymmetricStages, approx_asymmetric, iteration_bound
from .core import (Instance, cover_cost, format_instance, format_solution,
                   generate_instance, parse_instance, validate_solution)
from .errors import BudgetExceededError, FormatError, SmcError, ValidationError
from .metric import MetricStages, approx_metric, doubled_subgraph_baseline
from .onetwo import OneTwoStages, approx_onetwo
from .oracle import brute_force_smc, matching_vs_opt_probe

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


def _read_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_instance(text)


def _groups_label(inst: Instance) -> str:
    return ",".join(str(len(g)) for g in inst.groups)


def _run_algorithm(name: str, inst: Instance, tie_break: str):
    """Returns (cover, stage record or None, paper bound as a Fraction)."""
    if name == "metric3":
        return (*approx_metric(inst), Fraction(3))
    if name == "onetwo119":
        return (*approx_onetwo(inst, "ratio-11-9", tie_break=tie_break),
                Fraction(11, 9))
    if name == "onetwo76":
        return (*approx_onetwo(inst, "ratio-7-6", tie_break=tie_break),
                Fraction(7, 6))
    if name == "asym-log":
        return (*approx_asymmetric(inst), Fraction(iteration_bound(inst.n)))
    if name == "prior-sf4":
        return doubled_subgraph_baseline(inst), None, Fraction(4)
    raise ValidationError(f"unknown algorithm {name!r}")


def _stage_lines(inst: Instance, stages) -> list[str]:
    """The --dump-stages text of a stage record; none without a record."""
    if isinstance(stages, MetricStages):
        join = sorted(stages.join.edges)
        lines = [f"round {k}: lp={value} fixing {list(fixed)}"
                 for k, (value, fixed) in enumerate(stages.rounds, 1)]
        lines.append(f"G'={stages.snd_subgraph.weight(inst)} "
                     f"pruned={stages.pruned.weight(inst)} "
                     f"T={len(stages.odd_vertices)} J={stages.join_weight} "
                     f"cover={cover_cost(inst, stages.cover)}")
        for title, g in (("snd-subgraph", stages.snd_subgraph),
                         ("pruned", stages.pruned)):
            lines.append(f"stage {title}")
            lines += [f"  {u} {v} copy{c}" for u, v, c in g.edges]
        lines.append(f"stage odd-set {' '.join(map(str, stages.odd_vertices))}")
        lines.append("stage t-join")
        lines += [f"  {u} {v}" for u, v in join]
        lines.append("stage eulerian")
        lines += [f"  {u} {v} copy{c}" for u, v, c in stages.pruned.edges]
        lines += [f"  {u} {v} join" for u, v in join]
        lines.append(f"stage eulerian-weight {stages.eulerian_weight}")
    elif isinstance(stages, OneTwoStages):
        lines = ["stage special-2factor",
                 format_solution(stages.factor.cover).rstrip("\n"),
                 f"stage b-edges {sorted(stages.b_edges)}",
                 f"stage matching {sorted(stages.matching)}",
                 f"stage d-arcs {sorted(stages.digraph.arcs)}",
                 f"stage dprime {sorted(stages.digraph.dprime)}",
                 f"stage c_p {stages.c_p} phase1 {stages.phase1_delta} "
                 f"phase2 {stages.phase2_delta}"]
    elif isinstance(stages, AsymmetricStages):
        lines = [f"iter {k}: |R|={len(reps)} inner={inner} eta={eta}"
                 for k, (reps, inner, eta) in enumerate(zip(
                     stages.representative_sets, stages.inner_weights,
                     stages.etas[1:]), 1)]
    else:
        return []
    return lines + ["stage cover", format_solution(stages.cover).rstrip("\n")]


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
    inst = _read_instance(args.infile)
    cover, stages, _bound = _run_algorithm(args.algo, inst, args.tie_break)
    report = validate_solution(inst, cover)
    if args.out and report.feasible:
        Path(args.out).write_text(format_solution(cover), encoding="utf-8")
    if args.dump_stages:
        payload = "\n".join(_stage_lines(inst, stages)) + "\n"
        if args.out:
            Path(f"{args.out}.stages").write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
    iterations = getattr(stages, "iterations", None)
    iter_part = f" iterations={iterations}" if iterations is not None else ""
    print(f"algorithm={args.algo} cost={report.cost} "
          f"feasible={'yes' if report.feasible else 'no'} "
          f"cycles={len(cover.cycles)}{iter_part}")
    if not report.feasible:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    if not algos:
        raise ValidationError(f"--algo {args.algo!r} names no algorithm")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {a!r}")
    if args.budget_n is not None and args.budget_n < 2:
        raise ValidationError(f"--budget-n must be >= 2 (an instance has at "
                              f"least two vertices), got {args.budget_n}")
    paths = sorted(globmod.glob(args.instances))
    if args.oracle and not paths:
        raise ValidationError(f"no instance file matches {args.instances!r}: "
                              "--oracle has nothing to check")
    rows = []
    all_pass = True
    for path in paths:
        inst = _read_instance(path)
        oracle_cost = None
        if args.oracle:
            oracle_cost, _ = brute_force_smc(inst, args.budget_n)
        for algo in algos:
            t0 = time.perf_counter()
            cover, stages, bound = _run_algorithm(algo, inst, args.tie_break)
            wall = time.perf_counter() - t0
            iterations = getattr(stages, "iterations", None)
            report = validate_solution(inst, cover)
            if not report.feasible:
                raise SmcError(f"{algo} produced an infeasible cover on {path}")
            cost = report.cost
            ratio = ""
            passed = ""
            if oracle_cost is not None:
                if oracle_cost > 0:
                    ratio = str(Fraction(cost) / Fraction(oracle_cost))
                ok = cost <= bound * oracle_cost
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
    if args.trials < 0:
        raise ValidationError(f"--trials must be >= 0, got {args.trials}")
    report = matching_vs_opt_probe(seed=args.seed, trials=args.trials)
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

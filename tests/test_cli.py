from __future__ import annotations

import csv
from pathlib import Path

import pytest

from smcycle.cli import (COMPARE_COLUMNS, EXIT_BUDGET, EXIT_FAIL, EXIT_OK,
                         EXIT_USAGE, PROBE_COLUMNS, main)
from smcycle.asymmetric import approx_asymmetric
from smcycle.core import (format_instance, format_solution, generate_instance,
                          parse_instance, parse_solution, validate_solution)
from smcycle.metric import approx_metric


def run(argv):
    return main(argv)


def test_gen_round_trip(tmp_path):
    out = tmp_path / "a.smc"
    assert run(["gen", "onetwo", "9", "3,6", "1", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    inst = parse_instance(text)
    assert inst.n == 9
    assert sorted(len(g) for g in inst.groups) == [3, 6]
    from smcycle.core import format_instance
    assert format_instance(inst) == text


def test_gen_seeds_differ(tmp_path):
    a = tmp_path / "a.smc"
    b = tmp_path / "b.smc"
    c = tmp_path / "c.smc"
    run(["gen", "euclidean", "8", "2,2,4", "7", "--out", str(a)])
    run(["gen", "euclidean", "8", "2,2,4", "7", "--out", str(b)])
    run(["gen", "euclidean", "8", "2,2,4", "8", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_bad_groups(tmp_path):
    out = tmp_path / "x.smc"
    assert run(["gen", "onetwo", "7", "3,3", "1", "--out", str(out)]) == EXIT_USAGE


def test_solve_metric_pair(tmp_path):
    inst_path = tmp_path / "pair.smc"
    inst_path.write_text("smc 1\nn 2\nmode symmetric\nclass metric\n"
                         "groups 1\n0 1\n0 7\n7 0\n")
    sol = tmp_path / "pair.sol"
    code = run(["solve", "--algo", "metric3", "--in", str(inst_path),
                "--out", str(sol)])
    assert code == EXIT_OK
    cover = parse_solution(sol.read_text())
    inst = parse_instance(inst_path.read_text())
    assert validate_solution(inst, cover).feasible


def test_solve_all_algorithms(tmp_path):
    onetwo = tmp_path / "ot.smc"
    run(["gen", "onetwo", "8", "4,4", "3", "--out", str(onetwo)])
    asym = tmp_path / "as.smc"
    run(["gen", "asymmetric", "6", "3,3", "3", "--out", str(asym)])
    for algo, path in (("metric3", onetwo), ("onetwo119", onetwo),
                       ("onetwo76", onetwo), ("prior-sf4", onetwo),
                       ("asym-log", asym)):
        sol = tmp_path / f"{algo}.sol"
        assert run(["solve", "--algo", algo, "--in", str(path),
                    "--out", str(sol)]) == EXIT_OK
        directed = algo == "asym-log"
        cover = parse_solution(sol.read_text(), directed=directed)
        inst = parse_instance(path.read_text())
        assert validate_solution(inst, cover).feasible


def test_solve_precondition_mismatch(tmp_path):
    onetwo = tmp_path / "ot.smc"
    run(["gen", "onetwo", "8", "2,6", "3", "--out", str(onetwo)])
    assert run(["solve", "--algo", "onetwo76", "--in", str(onetwo)]) == EXIT_USAGE


def test_solve_reports_a_malformed_cover(tmp_path, capsys, monkeypatch):
    # a cycle that repeats a vertex is reported, not raised on while pricing
    from smcycle import cli
    from smcycle.core import make_cover

    path = tmp_path / "ot.smc"
    run(["gen", "onetwo", "6", "3,3", "3", "--out", str(path)])
    monkeypatch.setattr(cli, "_run_algorithm", lambda name, inst, tie_break: (
        make_cover([[0, 1, 2, 1], [3, 4, 5]]), None, None))
    sol = tmp_path / "bad.sol"
    assert run(["solve", "--algo", "metric3", "--in", str(path),
                "--out", str(sol)]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "feasible=no" in out
    assert "violation: cycle 0 repeats a vertex" in err.splitlines()
    assert not sol.exists()


def test_solve_dump_stages(tmp_path):
    onetwo = tmp_path / "ot.smc"
    run(["gen", "onetwo", "7", "3,4", "5", "--out", str(onetwo)])
    sol = tmp_path / "ot.sol"
    assert run(["solve", "--algo", "onetwo119", "--in", str(onetwo),
                "--out", str(sol), "--dump-stages"]) == EXIT_OK
    stages = Path(str(sol) + ".stages").read_text()
    assert "stage special-2factor" in stages
    assert "stage dprime" in stages

    euc = tmp_path / "eu.smc"
    run(["gen", "euclidean", "6", "3,3", "5", "--out", str(euc)])
    sol2 = tmp_path / "eu.sol"
    assert run(["solve", "--algo", "metric3", "--in", str(euc),
                "--out", str(sol2), "--dump-stages"]) == EXIT_OK
    stages2 = Path(str(sol2) + ".stages").read_text()
    for marker in ("stage snd-subgraph", "stage pruned", "stage odd-set",
                   "stage t-join", "stage eulerian", "stage cover"):
        assert marker in stages2

    asym = tmp_path / "as2.smc"
    run(["gen", "asymmetric", "6", "3,3", "5", "--out", str(asym)])
    sol3 = tmp_path / "as2.sol"
    assert run(["solve", "--algo", "asym-log", "--in", str(asym),
                "--out", str(sol3), "--dump-stages"]) == EXIT_OK


GOLDEN = Path(__file__).resolve().parent / "golden_stages"

# (algorithm, generator kind, n, group sizes, seed) of each golden dump
GOLDEN_CASES = [
    ("onetwo119", "one-two", 9, [3, 3, 3], 5),
    ("onetwo119", "one-two", 12, [3, 3, 3, 3], 3),
    ("onetwo76", "one-two", 8, [4, 4], 3),
    ("onetwo76", "one-two", 12, [4, 4, 4], 3),
    ("metric3", "euclidean", 9, [3, 3, 3], 1),
    ("metric3", "euclidean", 11, [6, 3, 2], 120),
    ("metric3", "euclidean", 11, [2, 4, 5], 237420),
    ("metric3", "one-two", 6, [3, 3], 180015),
    ("asym-log", "asymmetric", 6, [3, 3], 5),
    ("asym-log", "asymmetric", 16, [2, 3, 3, 4, 4], 19),
]


def metric_golden_rounds(lines):
    """The golden metric3 dumps come from a trace of the separation loop:
    an ``lp rows=R value=V`` line per LP solve and ``round k: fixing E``
    after the LP of round k.  The stage record keeps one line per round,
    ``round k: lp=V fixing E``, with the value of that LP."""
    out, value = [], None
    for line in lines:
        if line.startswith("lp rows="):
            value = line.split("value=")[1]
        elif line.startswith("round "):
            head, fixing = line.split(": fixing ")
            out.append(f"{head}: lp={value} fixing {fixing}")
        else:
            out.append(line)
    return out


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=lambda c: f"{c[0]}-n{c[2]}-s{c[4]}")
def test_dump_stages_golden(tmp_path, capsys, case):
    algo, kind, n, sizes, seed = case
    inst = generate_instance(kind, n, sizes, seed=seed)
    path = tmp_path / "i.smc"
    path.write_text(format_instance(inst))
    sol = tmp_path / "i.sol"
    assert run(["solve", "--algo", algo, "--in", str(path), "--out", str(sol),
                "--dump-stages"]) == EXIT_OK
    dump = Path(f"{sol}.stages").read_text()
    golden = (GOLDEN / f"{algo}-{kind}-n{n}-{'-'.join(map(str, sizes))}"
              f"-s{seed}.stages").read_text()
    lines = dump.rstrip("\n").split("\n")
    if algo.startswith("onetwo"):
        assert dump == golden
    elif algo == "metric3":
        _cover, stages = approx_metric(inst)
        rounds = [line for line in lines if line.startswith("round ")]
        assert lines[:len(stages.rounds)] == rounds
        assert len(rounds) == len(stages.rounds) >= 1
        assert lines == metric_golden_rounds(golden.rstrip("\n").split("\n"))
    else:
        cover, stages = approx_asymmetric(inst)
        iters = [line for line in lines if line.startswith("iter ")]
        assert lines[:stages.iterations] == iters
        assert len(iters) == stages.iterations
        assert dump == (golden.lstrip("\n") + "stage cover\n"
                        + format_solution(cover))
        assert f"iterations={stages.iterations}" in capsys.readouterr().out


def test_compare_reads_iterations_from_the_record(tmp_path):
    for algo, kind, sizes, seed, iterations in (
            ("asym-log", "asymmetric", [2, 3, 3, 4, 4], 19, "2"),
            ("metric3", "euclidean", [3, 3, 3], 1, "")):
        inst = generate_instance(kind, sum(sizes), sizes, seed=seed)
        (tmp_path / f"{algo}.smc").write_text(format_instance(inst))
        out = tmp_path / f"{algo}.csv"
        assert run(["compare", "--algo", algo, "--in",
                    str(tmp_path / f"{algo}.smc"), "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            assert [r["iterations"] for r in csv.DictReader(fh)] == [iterations]


def test_compare_csv_stable(tmp_path):
    for seed in (1, 2, 3):
        run(["gen", "onetwo", "7", "3,4", str(seed),
             "--out", str(tmp_path / f"i{seed}.smc")])
    out = tmp_path / "report.csv"
    code = run(["compare", "--algo", "metric3,onetwo119", "--in",
                str(tmp_path / "i*.smc"), "--out", str(out), "--oracle"])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0]) == list(COMPARE_COLUMNS)
    for row in rows:
        assert row["pass"] == "yes"
        assert row["ratio"]
    # golden check on everything except the timing column
    out2 = tmp_path / "report2.csv"
    run(["compare", "--algo", "metric3,onetwo119", "--in",
         str(tmp_path / "i*.smc"), "--out", str(out2), "--oracle"])
    with open(out2) as fh:
        rows2 = list(csv.DictReader(fh))
    stripped = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    stripped2 = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows2]
    assert stripped == stripped2


def test_compare_zero_optimum(tmp_path, capsys):
    zero = tmp_path / "zero.smc"
    zero.write_text("smc 1\nn 4\nmode symmetric\nclass metric\ngroups 2\n"
                    "0 1\n2 3\n" + "0 0 0 0\n" * 4)
    out = tmp_path / "z.csv"
    assert run(["compare", "--algo", "metric3", "--in", str(zero),
                "--out", str(out), "--oracle"]) == EXIT_OK
    with open(out) as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["cost"], row["oracle_cost"], row["ratio"], row["pass"]) == (
        "0", "0", "", "yes")
    assert "mean ratio" not in capsys.readouterr().out


def test_compare_empty_glob(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["compare", "--algo", "metric3", "--in",
                str(tmp_path / "nothing*.smc"), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(COMPARE_COLUMNS)


def test_compare_empty_glob_with_oracle_exits_usage(tmp_path, capsys):
    # an oracle check over no instance checks nothing, so it cannot pass
    out = tmp_path / "x.csv"
    assert run(["compare", "--algo", "metric3", "--in",
                str(tmp_path / "nomatch*.smc"), "--out", str(out),
                "--oracle"]) == EXIT_USAGE
    assert "nothing to check" in capsys.readouterr().err
    assert not out.exists()


def test_compare_budget_exceeded(tmp_path):
    big = tmp_path / "big.smc"
    run(["gen", "euclidean", "9", "4,5", "1", "--out", str(big)])
    out = tmp_path / "r.csv"
    code = run(["compare", "--algo", "metric3", "--in", str(big),
                "--out", str(out), "--oracle", "--budget-n", "8"])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("algo", [",", " , ", ""])
def test_compare_without_algorithm_exits_usage(tmp_path, capsys, algo):
    inst = tmp_path / "i.smc"
    run(["gen", "euclidean", "5", "2,3", "1", "--out", str(inst)])
    out = tmp_path / "r.csv"
    assert run(["compare", "--algo", algo, "--in", str(inst),
                "--out", str(out)]) == EXIT_USAGE
    assert "names no algorithm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["-1", "0", "1"])
def test_compare_budget_below_two_exits_usage(tmp_path, capsys, budget):
    inst = tmp_path / "i.smc"
    run(["gen", "euclidean", "5", "2,3", "1", "--out", str(inst)])
    out = tmp_path / "r.csv"
    assert run(["compare", "--algo", "metric3", "--in", str(inst),
                "--out", str(out), "--oracle", "--budget-n", budget]) \
        == EXIT_USAGE
    assert "--budget-n must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_probe_cli(tmp_path):
    out = tmp_path / "probe.csv"
    assert run(["probe", "--seed", "9", "--trials", "0",
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines == [",".join(PROBE_COLUMNS)]
    out2 = tmp_path / "probe2.csv"
    assert run(["probe", "--seed", "9", "--trials", "3",
                "--out", str(out2)]) in (EXIT_OK, EXIT_FAIL)
    out3 = tmp_path / "probe3.csv"
    run(["probe", "--seed", "9", "--trials", "3", "--out", str(out3)])
    assert out2.read_bytes() == out3.read_bytes()
    # the written rows parse back into the same report values
    from smcycle.oracle import matching_vs_opt_probe
    report = matching_vs_opt_probe(seed=9, trials=3)
    with open(out2) as fh:
        parsed = list(csv.DictReader(fh))
    assert [int(r["opt_smc"]) for r in parsed] == [row.opt_smc
                                                   for row in report.rows]
    assert [r["counterexample"] == "yes" for r in parsed] == [
        row.counterexample for row in report.rows]


def test_probe_negative_trials_exits_usage(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["probe", "--seed", "1", "--trials", "-1",
                "--out", str(out)]) == EXIT_USAGE
    assert "--trials must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_adversarial_tie_break_flag(tmp_path):
    # the tightness fixture through the CLI: cost 11 with adversarial ties
    from smcycle.core import WeightClass, format_instance, validate_instance
    ones = {(i, (i + 1) % 9) for i in range(9)} | {(0, 2), (3, 5), (6, 8)}
    key = {frozenset(e) for e in ones}
    w = [[0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(i + 1, 9):
            w[i][j] = w[j][i] = 1 if frozenset((i, j)) in key else 2
    inst = validate_instance(9, w, True, WeightClass.ONE_TWO,
                             [[1, 4, 7], [0, 2, 3, 5, 6, 8]])
    path = tmp_path / "tight.smc"
    path.write_text(format_instance(inst))
    sol = tmp_path / "tight.sol"
    assert run(["solve", "--algo", "onetwo119", "--in", str(path),
                "--out", str(sol), "--tie-break", "adversarial"]) == EXIT_OK
    cover = parse_solution(sol.read_text())
    from smcycle.core import cover_cost
    assert cover_cost(inst, cover) == 11


@pytest.mark.parametrize("old, new", [
    ("smc 1", "smc 2"), ("n 2", "n abc"), ("0 1\n0 7", "0 x\n0 7"),
    ("0 7\n7 0", "0 1/0\n1/0 0")],
    ids=["header", "vertex-count", "group-token", "zero-denominator"])
def test_malformed_instance_exits_usage(tmp_path, capsys, old, new):
    path = tmp_path / "bad.smc"
    path.write_text("smc 1\nn 2\nmode symmetric\nclass metric\n"
                    "groups 1\n0 1\n0 7\n7 0\n".replace(old, new))
    assert run(["solve", "--algo", "metric3", "--in", str(path)]) == EXIT_USAGE
    assert "format error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("0 7\n7 0", "0 \u0667\n7 0", "bad weight token"),
    ("0 7\n7 0", "0 7\n+7 0", "bad weight token"),
    ("0 7\n7 0", "0 7\n7_0 0", "bad weight token"),
    ("n 2", "n -1", "bad vertex count"),
    ("groups 1", "groups -2", "bad group count"),
    # over Python's 4,300-digit int-string limit
    ("0 7\n7 0", "0 1{z}\n1{z} 0".format(z="0" * 5000), "bad weight token"),
    ("n 2", "n 1" + "0" * 5000, "bad vertex count")],
    ids=["arabic-indic", "plus", "underscore", "negative-n",
         "negative-groups", "oversized-weight", "oversized-n"])
def test_tokens_outside_the_grammar_exit_usage(tmp_path, capsys, old, new,
                                               message):
    path = tmp_path / "bad.smc"
    path.write_text("smc 1\nn 2\nmode symmetric\nclass metric\n"
                    "groups 1\n0 1\n0 7\n7 0\n".replace(old, new),
                    encoding="utf-8")
    assert run(["solve", "--algo", "metric3", "--in", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "format error" in err and message in err


def test_metric3_above_cut_cap_exits_budget(tmp_path, capsys):
    from smcycle.snd import CUT_ENUMERATION_MAX_N
    n = CUT_ENUMERATION_MAX_N + 1
    path = tmp_path / "big.smc"
    assert run(["gen", "euclidean", str(n), "3,3,3,4,4", "1",
                "--out", str(path)]) == EXIT_OK
    assert run(["solve", "--algo", "metric3", "--in", str(path)]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_non_utf8_instance_exits_usage(tmp_path, capsys):
    path = tmp_path / "utf16.smc"
    path.write_bytes(b"\xff\xfe" + "smc 1\n".encode("utf-16-le"))
    assert run(["solve", "--algo", "metric3", "--in", str(path)]) == EXIT_USAGE
    assert "format error" in capsys.readouterr().err
    out = tmp_path / "c.csv"
    assert run(["compare", "--algo", "metric3", "--in", str(path),
                "--out", str(out)]) == EXIT_USAGE


def test_prior_sf4_refuses_asymmetric(tmp_path, capsys):
    asym = tmp_path / "as.smc"
    run(["gen", "asymmetric", "6", "3,3", "1", "--out", str(asym)])
    assert run(["solve", "--algo", "prior-sf4", "--in", str(asym)]) == EXIT_USAGE
    assert "symmetric instance" in capsys.readouterr().err


@pytest.mark.parametrize("mode, rows", [
    ("symmetric", "0 1 -1\n1 0 1\n-1 1 0\n"),
    ("symmetric", "0 1 2\n1 0 1\n-2 1 0\n"),
    ("asymmetric", "0 1 2\n1 0 -1\n2 -1 0\n")],
    ids=["mirrored", "one-sided", "asymmetric-mode"])
def test_negative_one_two_weight_exits_usage(tmp_path, capsys, mode, rows):
    path = tmp_path / "neg.smc"
    path.write_text(f"smc 1\nn 3\nmode {mode}\nclass onetwo\ngroups 1\n"
                    f"0 1 2\n{rows}")
    assert run(["solve", "--algo", "onetwo119", "--in", str(path)]) == EXIT_USAGE
    assert "negative weight" in capsys.readouterr().err

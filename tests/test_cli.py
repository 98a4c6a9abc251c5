from __future__ import annotations

import csv
from pathlib import Path

import pytest

from smcycle.cli import (COMPARE_COLUMNS, EXIT_BUDGET, EXIT_FAIL, EXIT_OK,
                         EXIT_USAGE, PROBE_COLUMNS, main)
from smcycle.core import parse_instance, parse_solution, validate_solution


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


def test_compare_empty_glob(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["compare", "--algo", "metric3", "--in",
                str(tmp_path / "nothing*.smc"), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(COMPARE_COLUMNS)


def test_compare_budget_exceeded(tmp_path):
    big = tmp_path / "big.smc"
    run(["gen", "euclidean", "9", "4,5", "1", "--out", str(big)])
    out = tmp_path / "r.csv"
    code = run(["compare", "--algo", "metric3", "--in", str(big),
                "--out", str(out), "--oracle", "--budget-n", "8"])
    assert code == EXIT_BUDGET


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


def test_metric3_above_cut_cap_exits_budget(tmp_path, capsys):
    from smcycle.snd import CUT_ENUMERATION_MAX_N
    n = CUT_ENUMERATION_MAX_N + 1
    path = tmp_path / "big.smc"
    assert run(["gen", "euclidean", str(n), "3,3,3,4,4", "1",
                "--out", str(path)]) == EXIT_OK
    assert run(["solve", "--algo", "metric3", "--in", str(path)]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err

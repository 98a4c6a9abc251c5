"""Checks on the library source itself."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import smcycle
from smcycle.core import CycleCover, format_instance, generate_instance

SOURCES = sorted(Path(smcycle.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants raise SmcError instead
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_core_holds_the_only_union_find():
    # one copy of each graph primitive: every union-find goes through
    # core.find
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == "find"]
    assert [f.split(":")[0] for f in found] == ["core.py"], found


def test_core_holds_the_only_arc_weight_sum():
    # one copy of the cycle weight: every sum of w(u, v) over an arc, edge
    # or path list goes through core.arcs_weight
    found = []
    for path in SOURCES:
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "sum"
                  and node.args
                  and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                  and isinstance(node.args[0].elt, ast.Call)
                  and isinstance(node.args[0].elt.func, ast.Attribute)
                  and node.args[0].elt.func.attr == "w"]
    assert found == []


def mentions(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` reads a name in ``names`` or a ``weights`` field."""
    return any(isinstance(sub, ast.Name) and sub.id in names
               or isinstance(sub, ast.Attribute) and sub.attr == "weights"
               for sub in ast.walk(node))


def weight_1_scans(tree: ast.AST) -> list[int]:
    """Lines of the loops and comprehensions that test values read from a
    ``weights`` matrix for equality with 1, the way a weight-1 edge list or
    bitmask is built.  Within each function, a name bound to a value read
    from ``weights``, directly or through other such names, reads it too."""
    found = set()
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        tainted = {"weights"}
        while True:
            bound = {t.id for node in ast.walk(scope)
                     if isinstance(node, (ast.Assign, ast.For,
                                          ast.comprehension))
                     and mentions(node.value if isinstance(node, ast.Assign)
                                  else node.iter, tainted)
                     for target in (node.targets
                                    if isinstance(node, ast.Assign)
                                    else [node.target])
                     for t in ast.walk(target) if isinstance(t, ast.Name)}
            if bound <= tainted:
                break
            tainted |= bound
        found |= {node.lineno for node in ast.walk(scope)
                  if isinstance(node, loops)
                  for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
                  and any(isinstance(op, ast.Eq) for op in cmp.ops)
                  and any(isinstance(c, ast.Constant) and c.value == 1
                          for c in cmp.comparators + [cmp.left])
                  and mentions(cmp, tainted)}
    return sorted(found)


def test_core_holds_the_only_weight_1_graph():
    # the weight-1 graph of a {1,2} instance is Instance.one_masks, built
    # once in core; no other module scans the weight matrix for 1s to build
    # its own edge list or bitmasks
    found = [f"{path.name}:{line}" for path in SOURCES if path.name != "core.py"
             for line in weight_1_scans(ast.parse(path.read_text()))]
    assert found == []
    # what it catches: the edge list both {1,2} routes used to build
    assert weight_1_scans(ast.parse(
        "def scans(inst, n, active, pairs):\n"
        "    w = inst.weights\n"
        "    edges = [(i, j) for i in range(n) for j in range(i + 1, n)\n"
        "             if w[i][j] == 1]\n"
        "    rows = [inst.weights[v] for v in active]\n"
        "    for i, row in enumerate(rows):\n"
        "        mask = sum(1 << j for j, x in enumerate(row) if x == 1)\n"
        "    ok = [inst.w(u, v) == 1 for u, v in pairs]\n")) == [3, 6, 7]


def weight_tests(tree: ast.AST) -> list[int]:
    """Lines that compare a ``.w(...)`` call with the constant 1 or 2."""
    def is_w_call(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "w")

    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare)
                   and any(map(is_w_call, [node.left, *node.comparators]))
                   and any(isinstance(c, ast.Constant) and c.value in (1, 2)
                           for c in [node.left, *node.comparators])})


def test_weight_1_tests_read_the_masks():
    # outside core, a {1,2} weight test reads Instance.one_masks, one bit,
    # instead of comparing a pairwise weight with 1 or 2
    found = [f"{path.name}:{line}" for path in SOURCES if path.name != "core.py"
             for line in weight_tests(ast.parse(path.read_text()))]
    assert found == []
    # what it catches: the pair tests the {1,2} join phases used to make
    assert weight_tests(ast.parse(
        "def tests(inst, c, u, v, a, b, masks):\n"
        "    pure = all(inst.w(a, b) == 1 for a, b in c)\n"
        "    if inst.w(a, b) != 2:\n"
        "        return 2 == inst.w(u, v)\n"
        "    cost = inst.w(u, v) + 1 < 3\n"
        "    return masks[u] >> v & 1\n")) == [2, 3, 4]


# standard-library names added after Python 3.10, the oldest version
# pyproject.toml supports, in the modules a library like this one might use
NEWER_THAN_3_10 = {
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum",
             "global_enum", "member", "nonmember", "property", "verify"},
    "hashlib": {"file_digest"},
    "itertools": {"batched"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self",
               "TypeVarTuple", "Unpack", "assert_never", "assert_type",
               "dataclass_transform", "override", "reveal_type"},
}
MODULES_NEWER_THAN_3_10 = {"tomllib", "wsgiref.types"}
BUILTINS_NEWER_THAN_3_10 = {"BaseExceptionGroup", "ExceptionGroup"}


def newer_stdlib_uses(tree: ast.AST) -> list[int]:
    """Lines that import or read a standard-library name that Python 3.10
    lacks, as ``from m import name``, ``m.name`` or a bare builtin."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name in MODULES_NEWER_THAN_3_10
                   for alias in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module in MODULES_NEWER_THAN_3_10
                    or any(alias.name in NEWER_THAN_3_10.get(node.module, ())
                           for alias in node.names)):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.attr in NEWER_THAN_3_10.get(
                        modules.get(node.value.id), ())):
                found.add(node.lineno)
        elif isinstance(node, ast.Name):
            if node.id in BUILTINS_NEWER_THAN_3_10:
                found.add(node.lineno)
    return sorted(found)


def test_library_runs_on_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10: the library's syntax
    # parses as 3.10's and it uses no standard-library name added later
    # (an ImportError there would stop every command at start-up)
    found = []
    for path in SOURCES:
        source = path.read_text()
        ast.parse(source, filename=str(path), feature_version=(3, 10))
        found += [f"{path.name}:{line}"
                  for line in newer_stdlib_uses(ast.parse(source))]
    assert found == []
    # what it catches
    assert newer_stdlib_uses(ast.parse(
        "import math as m, operator\n"
        "from operator import call, itemgetter\n"
        "import tomllib\n"
        "x = m.cbrt(8) + m.sqrt(4)\n"
        "y = operator.call(len, 'ab')\n"
        "raise ExceptionGroup('e', [])\n")) == [2, 3, 4, 5, 6]


def functions_taking(tree: ast.AST, names: set[str]) -> list[str]:
    """Names of the functions that take a parameter named in ``names``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(arg.arg in names for arg in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs, node.args.vararg, node.args.kwarg)
                    if arg is not None)]


def test_no_function_takes_a_trace_list():
    # a pipeline returns its stage record and --dump-stages renders it, so
    # no function threads a list of trace strings through its callees
    found = []
    for path in SOURCES:
        found += [f"{path.name}:{name}" for name
                  in functions_taking(ast.parse(path.read_text()), {"trace"})]
    assert found == []
    # what it catches: parameters, not a function named trace
    assert functions_taking(ast.parse(
        "def f(inst, trace=None): pass\n"
        "def g(*, trace): pass\n"
        "def h(x, /, trace): pass\n"
        "def trace(v): pass\n"), {"trace"}) == ["f", "g", "h"]


def test_oracles_take_no_budget_or_clock():
    # each oracle states its own cap on n, and only brute_force_smc's can
    # be set; no solver takes a budget object or a wall-clock deadline
    found = []
    for path in SOURCES:
        found += [f"{path.name}:{name}" for name in functions_taking(
            ast.parse(path.read_text()),
            {"budget", "deadline", "time_limit_s"})]
    assert found == []
    oracle = next(path for path in SOURCES if path.name == "oracle.py")
    assert not any(imports(node, "time")
                   for node in ast.walk(ast.parse(oracle.read_text())))


def imports(node: ast.AST, module: str) -> bool:
    """Whether ``node`` imports ``module`` or a submodule of it."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == module for name in names)


def test_only_matching_imports_networkx():
    # networkx stays behind the matching layer: every other module goes
    # through smcycle.matching
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [path.name for node in ast.walk(tree)
                  if imports(node, "networkx")]
    assert found == ["matching.py"], found


def test_networkx_backs_only_the_weighted_perfect_matching():
    # inside matching, networkx serves min_weight_perfect_matching alone;
    # every other matching runs on the own blossom.  Importing networkx
    # takes most of the package's start-up time, so only that function
    # imports it, on first use
    path = next(p for p in SOURCES if p.name == "matching.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        if (isinstance(top, ast.FunctionDef)
                and top.name == "min_weight_perfect_matching"):
            continue
        found += [f"matching.py:{node.lineno}" for node in ast.walk(top)
                  if imports(node, "networkx")
                  or isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("nx", "networkx")]
    assert found == [], found


def module_defs(tree: ast.Module) -> dict[str, ast.AST]:
    """The functions, classes and names that a module defines at its top
    level, each with the statement that defines it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defs.update((t.id, node) for target in targets
                        for t in ast.walk(target) if isinstance(t, ast.Name))
    return defs


def reached(defs: dict[str, ast.AST], roots: set[str]) -> set[str]:
    """The names of ``defs`` that ``roots`` reach, each definition reaching
    the names of ``defs`` that it reads."""
    seen: set[str] = set()
    stack = list(roots & defs.keys())
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack += [sub.id for sub in ast.walk(defs[name])
                      if isinstance(sub, ast.Name) and sub.id in defs]
    return seen


def oracle_imports(tree: ast.AST) -> list[ast.ImportFrom | ast.Import]:
    """The statements of a package module that import ``smcycle.oracle`` or
    a name from it."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name == "smcycle.oracle" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and ((node.level, node.module) in ((1, "oracle"),
                                               (0, "smcycle.oracle"))
                 or node.level == 1 and node.module is None
                 and any(alias.name == "oracle" for alias in node.names))]


def test_oracle_holds_only_what_the_cli_runs():
    # no public API exists only for tests: every public name of
    # smcycle.oracle is reached from a name that cli imports, and only cli
    # imports the module; test-only references live in tests/reference.py
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    assert [name for name, tree in trees.items()
            if oracle_imports(tree)] == ["cli.py"]
    roots = {alias.name for node in oracle_imports(trees["cli.py"])
             for alias in node.names}
    defs = module_defs(trees["oracle.py"])
    public = {name for name in defs if not name.startswith("_")}
    assert public - reached(defs, roots) == set()
    # what it catches: a public function that nothing the roots reach reads
    defs = module_defs(ast.parse(
        "LIMIT = 3\n"
        "def used(x):\n    return _helper(x) + LIMIT\n"
        "def _helper(x):\n    return x\n"
        "def orphan(x):\n    return used(x)\n"))
    assert reached(defs, {"used"}) == {"used", "_helper", "LIMIT"}
    assert {"LIMIT", "used", "orphan"} - reached(defs, {"used"}) == {"orphan"}
    assert [node.lineno for node in oracle_imports(ast.parse(
        "from .oracle import a\nfrom . import oracle\n"
        "import smcycle.oracle\nfrom smcycle.oracle import b\n"
        "from .oracles import c\nimport oracle\n"))] == [1, 2, 3, 4]


def test_test_references_are_not_in_the_library():
    # a reference moved into the tests leaves no copy under src/
    reference = Path(__file__).resolve().parent / "reference.py"
    moved = set(module_defs(ast.parse(reference.read_text())))
    assert {"brute_force_2factor", "gadget_2factor"} <= moved
    defined = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= set(module_defs(tree))
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))}
    assert moved & defined == set()


def loads_module(module: str, script: str, *args: str) -> tuple[bool, str]:
    """Run ``script`` in a fresh interpreter that imports smcycle from this
    tree; whether ``module`` was imported by the end, and what it
    printed."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(smcycle.__file__).resolve().parent.parent))
    probe = script + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    return loaded == "True", "\n".join(printed)


IMPORT_ALL = ("import smcycle, smcycle.cli, smcycle.metric, smcycle.onetwo, "
              "smcycle.asymmetric, smcycle.oracle")


def test_importing_the_package_leaves_networkx_unloaded():
    loaded, _ = loads_module("networkx", IMPORT_ALL)
    assert not loaded


def test_importing_the_package_leaves_json_unloaded():
    # json reads an int weight block and is imported on first use; at
    # import it would add to every start-up
    loaded, _ = loads_module("json", IMPORT_ALL)
    assert not loaded
    loaded, _ = loads_module(
        "json",
        IMPORT_ALL + "\nsmcycle.core._parse_int_block(['0 17', '17 0'], 2)")
    assert loaded


SOLVE = "import sys\nfrom smcycle import cli\nprint(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize("algo, kind, groups", [
    ("asym-log", "asymmetric", [3, 3, 4]),
    ("onetwo119", "one-two", [3, 3, 4]),
    ("onetwo76", "one-two", [4, 6]),
    ("prior-sf4", "euclidean", [3, 3, 4])],
    ids=["asym-log", "onetwo119", "onetwo76", "prior-sf4"])
def test_solve_without_a_weighted_matching_leaves_networkx_unloaded(
        tmp_path, algo, kind, groups):
    path = tmp_path / "inst.smc"
    path.write_text(format_instance(generate_instance(kind, 10, groups, 3)))
    loaded, printed = loads_module("networkx", SOLVE, "solve", "--algo",
                                   algo, "--in", str(path))
    *report, code = printed.splitlines()
    assert code == "0" and "feasible=yes" in report[-1]
    assert not loaded


def test_metric3_t_join_loads_networkx(tmp_path):
    # six odd vertices after pruning, so the T-join runs the weighted
    # blossom; the output was recorded before networkx moved into it
    path = tmp_path / "inst.smc"
    out = tmp_path / "inst.sol"
    inst = generate_instance("euclidean", 11, [6, 3, 2], 120)
    path.write_text(format_instance(inst))
    loaded, printed = loads_module("networkx", SOLVE, "solve", "--algo",
                                   "metric3", "--in", str(path), "--out",
                                   str(out))
    assert printed == "algorithm=metric3 cost=1872 feasible=yes cycles=1\n0"
    assert out.read_text() == "0 1 5 2 9 7 8 6 10 4 3\n"
    assert loaded


def none_cells(tree: ast.AST) -> list[int]:
    """Lines that put None into the cells of a matrix, the way a cost
    matrix used to forbid cells: ``m[i][j] = None``, or a nested
    comprehension whose cell is ``None if ... else ...``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if (isinstance(node.value, ast.Constant)
                    and node.value.value is None
                    and any(isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Subscript)
                            for t in node.targets)):
                found.append(node.lineno)
        elif (isinstance(node, ast.ListComp)
              and isinstance(node.elt, ast.ListComp)):
            cell = node.elt.elt
            if isinstance(cell, ast.IfExp) and any(
                    isinstance(side, ast.Constant) and side.value is None
                    for side in (cell.body, cell.orelse)):
                found.append(node.lineno)
    return found


def test_no_cost_matrix_has_none_cells():
    # the assignment takes a dense matrix: its one caller writes the
    # self-arc penalty on the diagonal instead of forbidding the cells
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in none_cells(ast.parse(path.read_text()))]
    assert found == []
    # what it catches: the diagonal the directed 2-factor used to forbid
    assert none_cells(ast.parse(
        "def forbid(costs, k, n):\n"
        "    for i in range(k):\n"
        "        costs[i][i] = None\n"
        "    return [[None if i == j else 1 for j in range(n)]\n"
        "            for i in range(n)]\n")) == [3, 4]


def test_tracer_targets_exist():
    # perfbench/tracer.py wraps each (module, function) of TARGETS with
    # getattr, so a renamed function breaks the traced benchmark runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)]
                   == ["TARGETS"])
    assert targets
    missing = [f"{module}.{function}" for module, function in targets
               if not hasattr(importlib.import_module(f"smcycle.{module}"),
                              function)]
    assert missing == []


def test_tracer_sees_every_asymmetric_layer():
    # an asym-log solve reaches each layer the tracer wraps for it through
    # the binding the tracer patches, so none of them reads 0 calls
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(bench))
    # the tracer looks up every module it wraps
    for module in ("metric", "onetwo", "oracle", "asymmetric"):
        importlib.import_module(f"smcycle.{module}")
    from smcycle import asymmetric, core

    text = format_instance(workloads.clustered_asymmetric(40, Random(3)))
    with tracer.Tracer() as t:
        with t.solve(0):
            _cover, stages = asymmetric.approx_asymmetric(
                core.parse_instance(text))
    assert stages.iterations >= 2
    calls = {name: row["calls"] for name, row in t.summary().items()}
    assert {layer: calls.get(layer, 0) for layer in (
        "core.parse_instance", "core.validate_instance",
        "core.validate_solution", "twofactor.min_weight_directed_2factor",
        "matching.min_cost_bipartite_perfect_matching",
        "matching.minimal_edge_cover", "asymmetric.representatives",
        "asymmetric.directed_shortcut")} == {
        "core.parse_instance": 1, "core.validate_instance": 1,
        "core.validate_solution": 1,
        "twofactor.min_weight_directed_2factor": 1,
        "matching.min_cost_bipartite_perfect_matching":
            1 + stages.iterations,
        "matching.minimal_edge_cover": stages.iterations,
        "asymmetric.representatives": stages.iterations,
        "asymmetric.directed_shortcut": stages.iterations}


def test_each_solve_checks_its_cover_shape_once(monkeypatch):
    # validate_solution prices the cover it checks, and each pipeline checks
    # its final cover once; onetwo also checks the special 2-factor's input
    # and output, which it changes.  directed_shortcut finds the components
    # of its overlay once and learns all else from its walks
    from smcycle import asymmetric, core, metric, onetwo, oracle

    checks = []
    structural = core._structural_violations

    def check_spy(inst, cover):
        checks.append(cover)
        return structural(inst, cover)

    splits = []
    components = asymmetric.components

    def components_spy(n, edges):
        splits.append(n)
        return components(n, edges)

    monkeypatch.setattr(core, "_structural_violations", check_spy)
    monkeypatch.setattr(asymmetric, "components", components_spy)

    def count(solve, inst):
        checks.clear()
        solve(inst)
        return len(checks)

    for seed in range(4):
        inst = generate_instance("euclidean", 8, [2, 3, 3], seed=seed)
        assert count(metric.approx_metric, inst) == 1
        assert count(metric.doubled_subgraph_baseline, inst) == 1
        assert count(oracle.brute_force_smc, inst) == 1
        inst = generate_instance("one-two", 9, [3, 3, 3], seed=seed)
        assert count(onetwo.approx_onetwo, inst) == 3

    # the adversarial tie-break checks each optimal base factor's special
    # 2-factor, and each candidate's final cover once, pricing the
    # candidate from that check: 6 base factors and 74 candidates here
    runs = []
    join = onetwo._run_join_phases

    def join_spy(*args, **kwargs):
        runs.append(args)
        return join(*args, **kwargs)

    monkeypatch.setattr(onetwo, "_run_join_phases", join_spy)
    inst = generate_instance("one-two", 9, [3, 3, 3], seed=4)
    assert count(lambda inst: onetwo.approx_onetwo(
        inst, tie_break="adversarial"), inst) == 2 * 6 + 74
    assert len(runs) == 74

    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    checks.clear()
    splits.clear()
    _cover, stages = asymmetric.approx_asymmetric(
        workloads.clustered_asymmetric(40, Random(3)))
    assert (len(checks), len(splits), stages.iterations) == (1, 3, 3)


def calls_all(func: ast.AST, names: set[str]) -> bool:
    """Whether ``func`` calls every function named in ``names``."""
    called = {sub.func.id if isinstance(sub.func, ast.Name) else
              getattr(sub.func, "attr", None)
              for sub in ast.walk(func) if isinstance(sub, ast.Call)}
    return names <= called


def test_no_function_validates_and_prices_a_cover():
    # validate_solution returns the cost of the cover it checks, so a
    # function that also calls cover_cost checks the same cover twice
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and calls_all(node, {"validate_solution", "cover_cost"})]
    assert found == []


def test_benchmark_reference_cost_matches_cover_cost():
    # perfbench/run.py checks each solve's cover_cost against its own
    # reference_cost, which reads cover.pair_flags: covers with pair
    # 2-cycles from metric3, onetwo119 and the oracle, and an asym-log one
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        run = importlib.import_module("run")
    finally:
        sys.path.remove(str(bench))
    from smcycle.asymmetric import approx_asymmetric
    from smcycle.core import WeightClass, cover_cost, validate_instance
    from smcycle.metric import approx_metric
    from smcycle.onetwo import approx_onetwo
    from smcycle.oracle import brute_force_smc

    # two pairs and a triple far apart on a line, at Fraction positions
    groups = [[0, 1], [2, 3], [4, 5, 6]]
    points = [Fraction(p, 3) for p in (0, 1, 300, 302, 600, 601, 603)]
    line = validate_instance(7, [[abs(p - q) for q in points] for p in points],
                             True, WeightClass.GENERAL_METRIC, groups)
    # 1-edges exactly inside the groups
    group_of = {v: g for g, group in enumerate(groups) for v in group}
    ones = validate_instance(7, [[0 if u == v else 1 + (group_of[u] != group_of[v])
                                  for v in range(7)] for u in range(7)],
                             True, WeightClass.ONE_TWO, groups)
    covers = [(line, approx_metric(line)[0]), (ones, approx_onetwo(ones)[0]),
              (line, brute_force_smc(line)[1]), (ones, brute_force_smc(ones)[1])]
    assert all(cover.pair_flags == (True, True, False) for _inst, cover in covers)
    asym = generate_instance("asymmetric", 8, [2, 2, 4], seed=1)
    covers.append((asym, approx_asymmetric(asym)[0]))
    for inst, cover in covers:
        assert run.reference_cost(inst.weights, cover) == cover_cost(inst, cover)


def test_pair_2cycles_are_decided_by_the_cover():
    # CycleCover derives its pair flags: no constructor takes them, and no
    # cycle object of the library carries one
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a name, an attribute, a parameter or a string such as a slot
            names = [getattr(node, key, None)
                     for key in ("id", "attr", "arg", "value")]
            if ("is_pair" in names
                    or isinstance(node, ast.keyword) and node.arg == "pair_flags"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert [f.name for f in dataclasses.fields(CycleCover)] == [
        "cycles", "directed"]


# The library's hard size caps.  ROADMAP treats each as a performance
# defect, so a new one is added here on purpose or not at all; a
# pipeline that outgrows its cap drops off this list.
SIZE_CAPS = {"oracle.SMC_TABLE_MAX_N", "snd.CUT_ENUMERATION_MAX_N"}


def test_size_caps_are_the_listed_ones():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found |= {f"{path.stem}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_MAX_N")}
    assert found == SIZE_CAPS

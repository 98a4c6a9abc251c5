"""Checks on the library source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import smcycle

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


def test_only_matching_imports_networkx():
    # networkx stays behind the matching layer: every other module goes
    # through smcycle.matching
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                found.append(path.name)
    assert found == ["matching.py"], found


def test_networkx_backs_only_the_weighted_perfect_matching():
    # inside matching, networkx serves min_weight_perfect_matching alone;
    # every other matching runs on the own blossom
    path = next(p for p in SOURCES if p.name == "matching.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        if (isinstance(top, ast.FunctionDef)
                and top.name == "min_weight_perfect_matching"):
            continue
        found += [f"matching.py:{node.lineno}" for node in ast.walk(top)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("nx", "networkx")]
    assert found == [], found


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

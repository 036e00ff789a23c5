"""The package's public surface: every name in __all__ exists, and once; one
function names every reduction profile."""

import ast
from collections import Counter
from pathlib import Path

import cmreduce


def test_all_names_resolve_once():
    names = cmreduce.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(cmreduce, n)] == []
    namespace = {}
    exec("from cmreduce import *", namespace)
    assert set(names) <= set(namespace)


def test_only_the_classifier_builds_a_reduction_profile():
    def builds(node):
        return sum(isinstance(n, ast.Call) and "ReductionProfile" in ast.unparse(n.func)
                   for n in ast.walk(node))

    total = inside = 0
    for path in Path(cmreduce.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += builds(tree)
        inside += sum(builds(n) for n in ast.walk(tree)
                      if isinstance(n, ast.FunctionDef) and n.name == "classify_group_scheme")
    assert total == inside >= 1

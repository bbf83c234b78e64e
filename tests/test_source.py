"""Checks on the package source itself."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamelift

PACKAGE_DIR = Path(tamelift.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a re-check written as one
    # would silently vanish; the package raises InternalConsistencyError
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


@pytest.mark.parametrize("argv", [
    ["selftest", "--only", "2,5"],
    ["lift", "--group", "GL2", "--q", "3", "--f", "2", "--w", "s0",
     "--vbar", "1,3"],
], ids=["selftest", "lift"])
def test_optimized_run_prints_the_same(argv):
    # the static scan above covers assert statements only; this runs the
    # package under -O and compares stdout and exit code byte for byte
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "tamelift", *argv],
                       env=env, capture_output=True, timeout=120)
        for flags in ([], ["-O"]))
    assert plain.returncode == 0 and plain.stdout
    assert ((optimized.returncode, optimized.stdout)
            == (plain.returncode, plain.stdout))


def test_no_fractions_imports_in_package():
    # the package computes over Z and Z/N only; Fraction references live
    # in the tests
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_determinant_in_package():
    # the Hermite form decides invertibility and rank, and the Smith form
    # solves; a determinant would be a third elimination beside them
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [name for alias in node.names
                         for name in (alias.name, alias.asname)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            else:
                continue
            if "det" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_level_caches_in_package():
    # tables derived from a datum live in its memo (root_datum.per_datum)
    # and are freed with it; nothing is cached for the whole process, where
    # a float or bool key equal to an integer one could fill an entry that
    # integer data then reads
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = (decorator.func if isinstance(decorator, ast.Call)
                          else decorator)
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in ("lru_cache", "cache"):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_integer_kernels_sum_no_generator_expressions():
    # sum(map(operator.mul, ...)) runs the products in C; a generator
    # expression inside sum runs them one Python frame step at a time
    root_datum = ast.parse((PACKAGE_DIR / "root_datum.py").read_text())
    kernels = [ast.parse((PACKAGE_DIR / "lattice.py").read_text())] + [
        node for node in ast.walk(root_datum)
        if isinstance(node, ast.FunctionDef) and node.name == "root_pairings"]
    assert len(kernels) == 2
    offenders = [node.lineno for tree in kernels for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "sum"
                 and any(isinstance(arg, ast.GeneratorExp)
                         for arg in node.args)]
    assert offenders == []


def _references(tree, name):
    return [node.lineno for node in ast.walk(tree)
            if getattr(node, "attr", None) == name
            or getattr(node, "id", None) == name
            or (isinstance(node, ast.Constant) and node.value == name)]


def test_plan_tuple_constructor_is_called_only_by_checked_lift():
    # CrysCharTuple._from_plan skips the entry checks of __post_init__;
    # _checked_lift re-verifies every tuple it builds, so no public entry
    # point may reach the constructor any other way
    references = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if found := _references(tree, "_from_plan"):
            references[path.name] = found
    lift_tree = ast.parse((PACKAGE_DIR / "crystalline_lift.py").read_text())
    [checked_lift] = [node for node in ast.walk(lift_tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_checked_lift"]
    inside = _references(checked_lift, "_from_plan")
    assert len(inside) == 1
    assert references == {"crystalline_lift.py": inside}

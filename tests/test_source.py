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


# modules a plain import loads: the benchmark's tracer wraps the functions
# of loaded modules only; and the two that only selftest and fixtures need
EAGER_MODULES = {"lattice", "record", "root_datum", "dynamic", "tame_reps",
                 "crystalline_lift", "hodge_tate"}
LAZY_MODULES = {"acceptance", "fixtures"}
RUN_LIFT = """
import runpy, sys
sys.argv = ["tamelift", "lift", "--group", "GL2", "--q", "3", "--f", "2",
            "--w", "s0", "--vbar", "1,3"]
try:
    runpy.run_module("tamelift", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    if stop.code:
        raise
"""
STAR_IMPORT = """
import tamelift
from tamelift import *
missing = [name for name in tamelift.__all__ if name not in globals()]
if missing:
    raise SystemExit(f"not bound: {missing}")
"""


def _submodules_loaded_after(script):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    script += ("\nimport sys\nprint(' '.join(sorted(name[9:] for name in "
               "sys.modules if name.startswith('tamelift.'))))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("script", ["import tamelift", RUN_LIFT],
                         ids=["import", "lift"])
def test_acceptance_and_fixtures_load_on_first_use(script):
    loaded = _submodules_loaded_after(script)
    assert EAGER_MODULES <= loaded
    assert not LAZY_MODULES & loaded


def test_star_import_binds_every_public_name():
    assert LAZY_MODULES <= _submodules_loaded_after(STAR_IMPORT)
    for name in ("run_all", "run_selected", "CriterionResult",
                 "run_fixture_suite", "write_fixture_files",
                 "FixtureOutcome"):
        assert name in tamelift.__all__
        assert getattr(tamelift, name).__module__.startswith("tamelift.")
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        tamelift.nothing


def _package_imports_of(module: str) -> list[str]:
    """Where a package module imports `module` or one of its submodules."""
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
            if any(name.split(".")[0] == module for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_no_fractions_imports_in_package():
    # the package computes over Z and Z/N only; Fraction references live
    # in the tests
    assert _package_imports_of("fractions") == []


def test_no_dataclasses_in_package():
    # tamelift.record makes the value types; importing dataclasses loads
    # inspect and ast, and each decoration execs its own methods, a
    # quarter of a cold CLI call
    assert _package_imports_of("dataclasses") == []


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # json is imported where JSON is read or written, so a cold call that
    # does neither never loads it
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    script = ("import sys\nbefore = set(sys.modules)\nimport tamelift.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "tamelift.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "ast"}


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
    # expression inside sum runs them one Python frame step at a time.
    # The exhaustive count's helpers are the hot loops of its packed
    # residues, and the packed pairing's product, zero-field test and
    # packing are those of every root pairing
    functions = {"root_datum.py": ("root_pairings", "_all_regular",
                                   "_packed_functionals"),
                 "crystalline_lift.py": ("_count_kernel_mod",
                                         "_residue_counts")}
    kernels = [ast.parse((PACKAGE_DIR / "lattice.py").read_text())] + [
        node for file, names in functions.items()
        for node in ast.walk(ast.parse((PACKAGE_DIR / file).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names]
    assert len(kernels) == 6
    offenders = [node.lineno for tree in kernels for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "sum"
                 and any(isinstance(arg, ast.GeneratorExp)
                         for arg in node.args)]
    assert offenders == []


def _field_decodes(tree):
    """The memoryview references in tree, and its comprehensions whose
    element both shifts right and masks: the two ways to read a packed
    product's fields."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)
    for node in ast.walk(tree):
        if getattr(node, "id", None) == "memoryview":
            yield node
        elif isinstance(node, comprehensions) and {ast.RShift, ast.BitAnd} <= {
                type(sub.op) for sub in ast.walk(node)
                if isinstance(sub, ast.BinOp)}:
            yield node


def test_packed_fields_are_decoded_only_in_lattice():
    # lattice._unpack_fields reads every PackedRows product, one cast up to
    # 64 bits and a shift-and-mask loop beyond; a second decode elsewhere
    # would read the field layout a second way.  The exhaustive count's
    # residue reduction ((t + fix) & high) >> shift works on whole packed
    # vectors and reads no field, so it is not one
    owners = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        outside = {id(node) for node in _field_decodes(tree)}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                inside = {id(node) for node in _field_decodes(function)}
                if inside:
                    owners.add((path.name, function.name))
                outside -= inside
        if outside:
            owners.add((path.name, "<module>"))
    assert owners == {("lattice.py", "_unpack_fields")}
    lift_tree = ast.parse((PACKAGE_DIR / "crystalline_lift.py").read_text())
    [count] = [node for node in ast.walk(lift_tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "_count_kernel_mod"]
    assert {ast.RShift, ast.BitAnd} <= {type(node.op)
                                        for node in ast.walk(count)
                                        if isinstance(node, ast.BinOp)}


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


def test_result_constructor_is_called_only_by_checked_lift():
    # LiftResult._from_check sets kernel_checked and reduction_checked
    # without checking anything; only _checked_lift, which has just
    # verified both, may call it
    references = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if found := _references(tree, "_from_check"):
            references[path.name] = found
    lift_tree = ast.parse((PACKAGE_DIR / "crystalline_lift.py").read_text())
    [checked_lift] = [node for node in ast.walk(lift_tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_checked_lift"]
    inside = _references(checked_lift, "_from_check")
    assert len(inside) == 1
    assert references == {"crystalline_lift.py": inside}


def test_root_functionals_are_read_only_by_the_packing_and_three_tables():
    # every root pairing goes through the packed product, so the plain
    # functionals are read only where a table is built from them: the
    # packing itself, the simple coreflections, the root permutation of a
    # matrix and the standard parabolic cocharacters
    readers = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name != "root_functionals"
                    and _references(node, "root_functionals")):
                readers.add((path.name, node.name))
    assert readers == {("root_datum.py", "_packed_functionals"),
                       ("root_datum.py", "simple_coreflections"),
                       ("root_datum.py", "_root_permutation_cached"),
                       ("tame_reps.py", "_standard_parabolic_cochars")}


def _owners(name):
    """(file, owner) for every reference to name in the package, where owner
    is the module-level function or Class.method holding it, or <module>."""
    owners = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                members = [(f"{top.name}.{node.name}"
                            if isinstance(node, ast.FunctionDef)
                            else top.name, node) for node in top.body]
            else:
                members = [(getattr(top, "name", "<module>"), top)]
            owners |= {(path.name, owner) for owner, node in members
                       if _references(node, name)}
    return owners


@pytest.mark.parametrize("name", ["_lift_plan", "_LiftPlan", "_solve_seed",
                                  "_checked_lift"])
def test_lift_plan_is_read_only_inside_its_module(name):
    # the plan's layout is one module's decision: the lifts, the
    # regularization and the exactness check all live beside it
    assert {file for file, _ in _owners(name)} == {"crystalline_lift.py"}


def test_datum_memo_is_touched_only_by_its_owners():
    # per_datum is the one way a table enters the memo; the datum creates
    # and drops it
    assert _owners("_memo") == {
        ("root_datum.py", "RootDatum.__post_init__"),
        ("root_datum.py", "RootDatum.__getstate__"),
        ("root_datum.py", "per_datum"),
    }


def test_per_datum_keys_on_positional_arguments_alone():
    # the memo key is (fn, args): a keyword reaching fn but not the key
    # could make one entry answer calls that differ in it
    tree = ast.parse((PACKAGE_DIR / "root_datum.py").read_text())
    [per_datum] = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "per_datum"]
    [cached] = [node for node in per_datum.body
                if isinstance(node, ast.FunctionDef)]
    arguments = cached.args
    assert [arg.arg for arg in arguments.posonlyargs + arguments.args] == \
        ["datum"]
    assert arguments.vararg is not None and arguments.vararg.arg == "args"
    assert arguments.kwarg is None and arguments.kwonlyargs == []


def test_regular_lift_is_reexported_as_one_object():
    # the benchmark's tracer finds a function under every module name that
    # binds it, so the hodge_tate names must be the crystalline_lift objects
    from tamelift import crystalline_lift, hodge_tate
    assert hodge_tate.regular_lift is crystalline_lift.regular_lift
    assert hodge_tate.RegularLiftResult is crystalline_lift.RegularLiftResult
    assert tamelift.regular_lift is crystalline_lift.regular_lift

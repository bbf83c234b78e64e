"""Checks on the package source itself."""
from __future__ import annotations

import ast
from pathlib import Path

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

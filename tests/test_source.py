"""Rules on the package source itself."""

import ast
from pathlib import Path

import teamlog


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a check that matters must raise.
    package = Path(teamlog.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

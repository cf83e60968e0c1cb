"""Rules checked on the package source itself."""

import ast
from pathlib import Path

import ridgekit


def test_no_assert_statements():
    """Result checks must survive ``python -O``, which strips ``assert``."""
    modules = sorted(Path(ridgekit.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []

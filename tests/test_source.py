"""Invariants of the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclecones"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so library invariants must be
    # explicit errors
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(SRC.rglob("*.py"))) > 10
    assert found == []

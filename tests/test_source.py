"""Invariants of the library source itself."""

import ast
from pathlib import Path

from cyclecones import FIXTURE_NAMES, fixtures
from cyclecones.fixtures.checks import CHECKS

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


def test_every_check_kind_is_claimed_by_a_packaged_fixture():
    # a check no packaged claim names is code nothing runs; a claim naming
    # an unknown kind can only fail
    named = {claim.check for name in FIXTURE_NAMES for claim in fixtures.load(name).claims}
    assert CHECKS and named == set(CHECKS)

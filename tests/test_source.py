"""Invariants of the library source itself."""

import ast
import inspect
import re
from pathlib import Path

from cyclecones import FIXTURE_NAMES, fixtures
from cyclecones.fixtures import _is_source_key
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


def test_every_packaged_claim_fits_its_check_signature():
    # a check's keyword-only parameters are its arguments, required unless
    # they have a default; lint annotations are no arguments
    for name in FIXTURE_NAMES:
        fixture = fixtures.load(name)
        for claim in fixture.claims:
            params = inspect.signature(CHECKS[claim.check]).parameters.values()
            declared = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
            required = {p.name for p in params if p.name in declared and p.default is p.empty}
            raw = next(c for c in fixture.raw["claims"] if c["id"] == claim.id)
            keys = {k for k in raw.get("args", {}) if not _is_source_key(k)}
            assert claim.args.keys() == keys, (name, claim.id)
            assert required <= keys <= declared, (name, claim.id)


def test_zariski_builds_its_systems_through_polytope():
    # polytope owns the homogenized systems: zariski imports no private
    # name of cones or polytope and nothing of the simplex, and the double
    # description state is named only where it is made and resumed
    tree = ast.parse((SRC / "zariski.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("polytope", "RationalPolytope") in imports
    # the vertices' integer form over their common denominator is polytope's
    # vertex_table: zariski rescales no vertex itself
    assert ("polytope", "vertex_table") in imports
    assert [name for _, name in imports if name in ("lcm", "numerators")] == []
    assert [
        (module, name)
        for module, name in imports
        if module == "simplex" or (module in ("cones", "polytope") and name.startswith("_"))
    ] == []
    holders = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"\b(DDState|_dd_state)\b", path.read_text(encoding="utf-8"))
    )
    assert holders == ["cones.py", "polytope.py"]

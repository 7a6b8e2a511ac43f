"""Invariants of the library source itself."""

import ast
import inspect
import json
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


def test_denominators_are_cleared_only_in_linalg():
    # the one-denominator rule, the lcm of the denominators and then each
    # entry scaled, has one owner: linalg.numerators takes the only such
    # lcm, and simplex and negdef take no lcm at all
    def lcm_of_denominators(call):
        func = call.func
        return getattr(func, "id", getattr(func, "attr", None)) == "lcm" and any(
            isinstance(sub, ast.Attribute) and sub.attr == "denominator"
            for arg in call.args for sub in ast.walk(arg)
        )

    holders, lcm_users = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                holders += [
                    (name, func.name) for node in ast.walk(func)
                    if isinstance(node, ast.Call) and lcm_of_denominators(node)
                ]
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and "lcm" in [a.name for a in node.names]) or (
                isinstance(node, ast.Attribute) and node.attr == "lcm"
            ):
                lcm_users.add(name)
    assert holders == [("linalg.py", "numerators")]
    assert lcm_users.isdisjoint({"simplex.py", "negdef.py"}), lcm_users


def test_simplex_pivots_only_through_int_pivot():
    # one elimination kernel: the simplex calls linalg.int_pivot and takes
    # no gcd or lcm, so it cannot hold a row update of its own
    tree = ast.parse((SRC / "simplex.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not {"gcd", "lcm"} & (names | attrs | called), names
    assert "int_pivot" in called


def test_int_rows_become_vectors_only_in_cones():
    # ClassVector.from_ints skips rat, so it takes only rows known to be
    # tuples of ints: dd_convert's canonical rows, primitive by construction
    callers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_ints"
    )
    assert callers and set(callers) == {"cones.py"}, callers


def test_bench_records_carry_their_environment_and_medians():
    # the format of the committed BENCH_*.json records, never a number in
    # them: each names the parent's git SHA and the src/ line count of both
    # trees, and gives end-to-end medians at both trees for some of the
    # workloads BENCHMARK.json declares (a record is never rewritten, so a
    # workload added later is absent from it)
    root = SRC.parents[1]
    workloads = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        env = doc.get("environment") or {}
        assert re.fullmatch(r"[0-9a-f]{40}", str(env.get("parent_sha"))), path.name
        lines = env.get("src_py_lines") or {}
        assert all(type(lines.get(side)) is int for side in ("parent", "change")), path.name
        end_to_end = doc.get("end_to_end") or {}
        assert end_to_end and set(end_to_end) <= workloads, (path.name, sorted(end_to_end))
        for w, seeds in end_to_end.items():
            metrics = [m for block in seeds.values() for m in (block.get("metrics") or {}).values()]
            assert metrics and all(
                type(m.get(side)) in (int, float)
                for m in metrics for side in ("parent_median", "change_median")
            ), (path.name, w)
        print(path.name, "read")

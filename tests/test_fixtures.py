import copy
import dataclasses
import functools
import json
import shutil
from pathlib import Path

import pytest

from cyclecones import fixtures
from cyclecones.cli import main, run
from cyclecones.errors import InputError
from cyclecones.fixtures import (
    FIXTURE_NAMES,
    lint_sources,
    load,
    verify_claims,
)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_loads_and_all_claims_ok(name):
    fixture = load(name)
    report = verify_claims(fixture)
    bad = [r for r in report.results if not r.ok]
    assert report.all_ok, f"unexpected claim results: {[r.to_json() for r in bad]}"


def test_unknown_fixture_rejected():
    with pytest.raises(InputError):
        load("no-such-geometry")


def test_unknown_fixture_name_exits_1_with_a_message():
    document, code = run(["fixture", "no-such-geometry", "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        "unknown fixture 'no-such-geometry': give a packaged name "
        f"({', '.join(FIXTURE_NAMES)}) or a path ending in .json"
    )


def _copy_of(name, tmp_path):
    packaged = Path(fixtures.__file__).parent / "data" / f"{name}.json"
    return shutil.copy(packaged, tmp_path / f"copy-of-{name}.json")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_file_prints_the_bytes_of_its_name(name, tmp_path, capsys):
    path = _copy_of(name, tmp_path)
    assert main(["fixture", name, "--verify"]) == 0
    by_name = capsys.readouterr().out
    assert main(["fixture", str(path), "--verify"]) == 0
    assert capsys.readouterr().out == by_name


@pytest.mark.parametrize(
    "name, argv",
    [
        ("toric-3fold", ["decompose", "--geometry", "{}:curves", "--class", "1,1,0,1,2"]),
        ("p2-hilb2", ["directed", "--geometry", "{}:surfaces", "--class", "1,0,1"]),
        ("m07-s7", ["ring", "pair", "--fixture", "{}", "--a", "(D1+3*D2)^2", "--b", "S1"]),
    ],
    ids=["decompose", "directed", "ring"],
)
def test_fixture_file_reaches_geometries_and_rings(name, argv, tmp_path, capsys):
    path = _copy_of(name, tmp_path)
    assert main([a.format(name) for a in argv]) == 0
    by_name = capsys.readouterr().out
    assert main([a.format(path) for a in argv]) == 0
    assert capsys.readouterr().out == by_name


def test_m07_audit_is_attached_and_flagged():
    fixture = load("m07-s7")
    assert fixture.audit is not None and not fixture.audit.clean
    kinds = {f.kind for f in fixture.audit.findings}
    assert "gram-asymmetry" in kinds


def test_p2_audit_is_clean():
    assert load("p2-hilb2").audit.clean


def test_loading_is_deterministic():
    a, b = load("toric-3fold"), load("toric-3fold")
    assert [c.id for c in a.claims] == [c.id for c in b.claims]
    assert {k: v.generators for k, v in a.cones.items()} == {
        k: v.generators for k, v in b.cones.items()
    }


def test_lint_rejects_uncited_numeric_literal():
    doc = {"name": "x", "cones": [{"generators": [["1", "0"]]}]}
    problems = lint_sources(doc)
    assert problems and "without a source" in problems[0]


def test_lint_rejects_floats_even_with_source():
    doc = {"source": "cited", "value": 0.5}
    problems = lint_sources(doc)
    assert problems and "floating-point" in problems[0]


def test_lint_accepts_cited_blocks():
    doc = {"block": {"source": "a citation", "coords": [["1", "2/3"]]}}
    assert lint_sources(doc) == []


def test_lint_reads_numbers_as_rat_does():
    # each spelling reads as a number everywhere else in the package, so an
    # uncited one used to load without a source
    problems = lint_sources({"a": ["+3", " 4 ", "1_000", "\uff11"]})
    assert problems == [
        f"$.a[{i}]: numeric literal {leaf!r} without a source"
        for i, leaf in enumerate(["+3", " 4 ", "1_000", "\uff11"])
    ]
    assert lint_sources({"a": ["1/0", "--3", "x", "", True, None]}) == []


def test_fixture_file_loads_by_path(tmp_path):
    custom = {
        "name": "toric-3fold",
        "description": "custom",
        "claims": [],
    }
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(custom))
    fixture = load(str(path))
    assert fixture.description == "custom"
    assert fixture.claims == ()
    assert load("toric-3fold").description != "custom"


def test_packaged_fixture_files_pass_lint():
    for name in FIXTURE_NAMES:
        assert lint_sources(load(name).raw) == []


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda doc: doc["cones"][0].update(generators=5),
            "cone 'eff-divisors' generators must be a list of strings",
        ),
        (
            lambda doc: doc["classes"]["toric3.divisors"]["coords"].update(
                D1=["1", "0", "0", "0"]
            ),
            "class 'D1' has 4 coordinates; basis 'toric3.divisors' has dim 5",
        ),
        (
            lambda doc: doc["bases"][0].update(dim="5"),
            "bases[0] \"dim\" must be a nonnegative integer, got '5'",
        ),
    ],
    ids=["generators-not-a-list", "short-class", "dim-a-string"],
)
def test_malformed_fixture_file_is_input_error(tmp_path, mutate, message):
    doc = copy.deepcopy(load("toric-3fold").raw)
    mutate(doc)
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == message


@pytest.mark.parametrize(
    "mutate, where, key",
    [
        (lambda doc: doc["bases"][0].pop("name"), "bases[0]", "name"),
        (lambda doc: doc["cones"][0].pop("id"), "cones[0]", "id"),
        (
            lambda doc: [geom.pop("objective") for geom in doc["geometries"]],
            "geometries[0]",
            "objective",
        ),
    ],
    ids=["basis-without-name", "cone-without-id", "geometry-without-objective"],
)
def test_fixture_file_missing_a_key_is_input_error(tmp_path, mutate, where, key):
    doc = copy.deepcopy(load("toric-3fold").raw)
    mutate(doc)
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        f"{path}: {where} must be an object with the key {key!r}"
    )


@pytest.mark.parametrize(
    "section, kind, change",
    [
        ("cones", "cone", lambda entry: entry.update(generators=entry["generators"][:2])),
        ("geometries", "geometry", lambda entry: None),
        ("claims", "claim", lambda entry: entry.update(expect="fail")),
    ],
    ids=["cone", "geometry", "claim"],
)
def test_duplicate_id_is_input_error(tmp_path, section, kind, change):
    # a repeated cone or geometry id used to replace the earlier entry, and a
    # repeated claim ran twice: the cone and claim cases exited 2
    doc = copy.deepcopy(load("toric-3fold").raw)
    entry = copy.deepcopy(doc[section][0])
    change(entry)
    doc[section].append(entry)
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        f"{path}: {section}[{len(doc[section]) - 1}]: duplicate {kind} id {entry['id']!r}"
    )


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


# one replaced node each; each case up to the huge degrees exited 3 before
# the loader checked it.  A case may end with the error message's tail.
MALFORMED = {
    "classes-null": ("toric-3fold", _set(("classes",), None), 1),
    "class-table-a-string": ("toric-3fold", _set(("classes", "toric3.curves"), "curves"), 1),
    "cone-basis-a-list": ("toric-3fold", _set(("cones", 0, "basis"), ["x"]), 1),
    "cone-id-a-list": ("toric-3fold", _set(("cones", 2, "id"), []), 1),
    "cone-id-false": ("m07-s7", _set(("cones", 3, "id"), False), 1),
    "geometry-id-an-object": ("toric-3fold", _set(("geometries", 0, "id"), {}), 1),
    "geometry-eff-a-list": ("p2-hilb2", _set(("geometries", 1, "eff"), []), 1),
    "claim-check-a-list": ("projbundle-sample", _set(("claims", 1, "check"), []), 1),
    "profiles-entries-null": ("projbundle-sample", _set(("profiles", "entries"), None), 1),
    "profile-an-object": (
        "projbundle-sample", _set(("profiles", "entries", "balanced"), {"coords": ":"}), 1
    ),
    "ring-top-degree-a-string": ("p2-hilb2", _set(("ring", "top_degree"), "4"), 1),
    "ring-max-degree-null": ("m07-s7", _set(("ring", "max_monomial_degree"), None), 1),
    "ring-relation-a-string": ("p2-hilb2", _set(("ring", "relations", "D1^3"), "1"), 1),
    "ring-monomial-bad-power": (
        "p2-hilb2", _set(("ring", "relations", "D1^x"), {"D1^2*D2": "1"}), 1
    ),
    "ring-element-terms-a-list": (
        "p2-hilb2", _set(("ring", "named", "elements", "S3", "terms"), [{"1": ""}]), 1
    ),
    "ring-dual-classes-false": ("m07-s7", _set(("ring", "dual_classes"), False), 1),
    "ring-dual-degree-not-a-number": (
        "m07-s7", _set(("ring", "dual_bases", "x"), {"names": ["T1"]}), 1
    ),
    "ring-cap-row-short": (
        "m07-s7", _set(("ring", "dual_bases", "2", "cap_relations", "D2^2"), []), 1
    ),
    # without the monomial cap the consistency audit walks all 10**6 degrees
    "ring-degrees-huge": (
        "m07-s7", lambda doc: doc["ring"].update(top_degree=10**6, max_monomial_degree=10**6), 2
    ),
    # a relation into another degree made claims fail (exit 2)
    "ring-relation-not-homogeneous": (
        "p2-hilb2", _set(("ring", "relations", "D1^3"), {"D1": "1"}), 1
    ),
    # top values with no top-degree basis to hold them exited 2 in the audit
    "ring-top-values-above-the-basis": (
        "p2-hilb2", _set(("ring", "max_monomial_degree"), 3), 1,
        "p2-hilb2: top values need the degree-4 basis, above max_monomial_degree 3",
    ),
    # input errors that no other test reaches
    "ring-monomial-negative-power": (
        "p2-hilb2", _set(("ring", "relations", "D1^-1"), {}), 1,
        "bad power in monomial 'D1^-1'",
    ),
    "ring-element-term-of-another-degree": (
        "p2-hilb2", _set(("ring", "named", "elements", "S1", "terms"), {"D1": "1"}), 1,
        "monomial D1 is not of degree 2",
    ),
    "ring-dual-class-undeclared-degree": (
        "m07-s7", _set(("ring", "dual_classes", "elements", "S1", "degree"), 3), 1,
        "m07-s7: no dual basis declared in degree 3",
    ),
    "ring-dual-class-wrong-length": (
        "m07-s7", _set(("ring", "dual_classes", "elements", "S1", "coords"), ["0", "3"]), 1,
        "dual coordinate length mismatch",
    ),
    "ring-dual-basis-names-mismatch": (
        "m07-s7", _set(("ring", "dual_bases", "1", "names"), ["C1"]), 1,
        "dual_bases['1'] names do not match the degree-1 monomial basis",
    ),
    # a layer above max_monomial_degree has no monomial basis to match (exit 2 before)
    "ring-dual-basis-above-the-declared-degrees": (
        "m07-s7", _set(("ring", "dual_bases", "3"), {"names": ["X"]}), 1,
        "m07-s7: dual_bases['3'] names do not match the degree-3 monomial basis",
    ),
    "class-basis-undeclared": (
        "p2-hilb2", _set(("classes", "p2h2.points"), {"source": "s", "coords": {"P": ["1"]}}),
        1, "basis 'p2h2.points' is not declared",
    ),
    # a claim names alpha, now a class of both bases
    "class-name-ambiguous": (
        "toric-3fold",
        lambda doc: doc["classes"]["toric3.divisors"]["coords"].update(
            alpha=doc["classes"]["toric3.divisors"]["coords"]["D1"]
        ),
        1, "ambiguous class 'alpha'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_fixture_node_is_not_an_internal_error(case, tmp_path):
    name, mutate, expected, *message = MALFORMED[case]
    doc = copy.deepcopy(load(name).raw)
    mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    status = {1: "input_error", 2: "domain_error"}[expected]
    assert (code, document["status"]) == (expected, status)
    if message:
        assert document["payload"]["error"]["message"].endswith(message[0])


def test_unreadable_fixture_file_is_input_error(tmp_path):
    path = tmp_path / "toric-3fold.json"
    path.write_text('{"name": "toric-3fold",')
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")


def _claim(claim_id, mutate):
    def apply(doc):
        mutate(next(c for c in doc["claims"] if c["id"] == claim_id))

    return apply


def _first_claim(mutate):
    return _claim("dual-of-nef-is-mori-cone", mutate)


# malformed claim data is an input error naming it, never a verdict: with
# "expect": "fail", a missing argument or an unknown check used to verify ok,
# and a misspelled optional argument used to pass unchecked
CLAIM_REPROS = {
    "arg-missing": (
        "toric-3fold",
        _first_claim(lambda c: (c["args"].pop("cone"), c.update(expect="fail"))),
        "fixture toric-3fold: claim 'dual-of-nef-is-mori-cone': missing argument 'cone'",
    ),
    "arg-unknown": (
        "toric-3fold",
        _first_claim(lambda c: c["args"].update(cnoe="x")),
        "fixture toric-3fold: claim 'dual-of-nef-is-mori-cone': unknown argument 'cnoe'",
    ),
    "optional-arg-misspelled": (
        "m07-s7",
        _claim(
            "nef-certificate-ample-square",
            lambda c: (
                c["args"].pop("pairings"),
                c["args"].update(pairing={"S1": "5", "S2": "7"}),  # false values
            ),
        ),
        "fixture m07-s7: claim 'nef-certificate-ample-square': unknown argument 'pairing'",
    ),
    "table-claim-of-another-kind": (
        "p2-hilb2",
        _claim("nef-surfaces-from-table", lambda c: c["args"].update(table_claim="top-values")),
        "claim 'nef-surfaces-from-table': table_claim 'top-values' is a "
        "top_values_equal claim, not intersection_table_equals",
    ),
    "unknown-check": (
        "toric-3fold",
        _first_claim(lambda c: c.update(check="no_such_check", expect="fail")),
        "fixture toric-3fold: claim 'dual-of-nef-is-mori-cone': unknown check 'no_such_check'",
    ),
    "expect-maybe": (
        "toric-3fold",
        _first_claim(lambda c: c.update(expect="maybe")),
        "claims[0] expect must be \"pass\", \"fail\" or \"flagged\", got 'maybe'",
    ),
    "coefficients-not-a-list": (
        "toric-3fold",
        lambda doc: doc["claims"][4]["args"].update(coefficients="1,2"),
        "claim 'alpha-mori-combination': coefficients must be a list of rationals, got str",
    ),
    "element-without-degree": (
        "m07-s7",
        _claim("nef-certificate-ample-square", lambda c: c["args"]["element"].pop("degree")),
        "fixture m07-s7: claim 'nef-certificate-ample-square': "
        "element must be an object with the key 'degree'",
    ),
    "eff-element-not-in-table": (
        "p2-hilb2",
        _claim("nef-surfaces-from-table", lambda c: c["args"].update(eff_elements=["Zzz"])),
        "fixture p2-hilb2: claim 'nef-surfaces-from-table': "
        "eff_elements: 'Zzz' is not an element of table_claim 'intersection-table'",
    ),
    "pairings-missing": (
        "m07-s7",
        _claim("nef-certificate-ample-square", lambda c: c["args"].pop("pairings")),
        "fixture m07-s7: claim 'nef-certificate-ample-square': "
        "pairings_equal needs pairings or difference_pairings",
    ),
    "case-without-k": (
        "projbundle-sample",
        _claim("cone-coincidence", lambda c: c["args"]["cases"][1].pop("k")),
        "claim 'cone-coincidence': cases[1] must be an object with the key 'k'",
    ),
    "difference-pairing-without-value": (
        "m07-s7",
        _claim("nef-certificate-beta", lambda c: c["args"]["difference_pairings"][0].pop("value")),
        "claim 'nef-certificate-beta': "
        "difference_pairings[0] must be an object with the key 'value'",
    ),
    "required-finding-kind-a-list": (
        "m07-s7",
        _claim("audit-flags-printed-relations", lambda c: c["args"]["required_finding"].update(
            kind=["gram-asymmetry"]
        )),
        "claim 'audit-flags-printed-relations': required_finding kind must be a string, got list",
    ),
    "correction-a-list": (
        "m07-s7",
        _claim("gamma-identity-printed", lambda c: c["args"].update(correction=["S2", "15/11"])),
        "claim 'gamma-identity-printed': correction must be an object, got list",
    ),
    "args-a-list": (
        "toric-3fold",
        _first_claim(lambda c: c.update(args=["nef-divisors"])),
        "claims[0] 'args' must be an object",
    ),
    # each case below exited 2 with a crash or a verdict before the claim's
    # arguments were read by their declared kind
    "ring-claim-without-ring": (
        "toric-3fold",
        lambda doc: doc["claims"].append(
            {"id": "no-ring", "check": "top_values_equal", "expect": "pass",
             "args": {"values": {"D1^3": "1"}, "source": "a ring claim"}}
        ),
        "fixture toric-3fold: claim 'no-ring': fixture toric-3fold has no ring",
    ),
    "ring-audit-without-ring": (
        "toric-3fold",
        lambda doc: doc["claims"].append(
            {"id": "no-ring", "check": "ring_audit", "expect": "pass", "args": {}}
        ),
        "fixture toric-3fold: claim 'no-ring': fixture toric-3fold has no ring",
    ),
    "pair-without-dominator-empty": (
        "toric-3fold",
        _claim("no-common-dominator", lambda c: c["args"].update(pair_without_dominator=[])),
        "claim 'no-common-dominator': pair_without_dominator must name two classes",
    ),
    "combination-empty": (
        "p2-hilb2",
        _claim("named-class-m", lambda c: c["args"].update(combination={})),
        "claim 'named-class-m': combination must name at least one class",
    ),
    "nu-key-not-an-integer": (
        "projbundle-sample",
        _claim("nef-and-movable-constants", lambda c: c["args"]["nu"].update(x="1")),
        "claim 'nef-and-movable-constants': not a rational number: 'x'",
    ),
    "sigma-key-a-fraction": (
        "projbundle-sample",
        _claim("nef-and-movable-constants", lambda c: c["args"]["sigma"].update({"1/2": "1"})),
        "claim 'nef-and-movable-constants': "
        "sigma key '1/2' must be a nonnegative integer, got Fraction(1, 2)",
    ),
    "gram-table-short": (
        "p2-hilb2",
        _claim("intersection-table", lambda c: c["args"].update(table=c["args"]["table"][:2])),
        "claim 'nef-surfaces-from-table': table_claim 'intersection-table' table is not 4 by 4",
    ),
    "gram-table-ragged": (
        "p2-hilb2",
        _claim("intersection-table", lambda c: c["args"]["table"].__setitem__(0, ["0"])),
        "claim 'nef-surfaces-from-table': table_claim 'intersection-table' table is not 4 by 4",
    ),
    "vectors-of-two-bases": (
        "m07-s7",
        _claim("region-r-coordinates", lambda c: c["args"].update(vectors=["S1", "D1", "gamma"])),
        "claim 'region-r-coordinates': vectors must be classes of one basis",
    ),
    "vectors-of-two-bases-truncated": (
        "m07-s7",
        _claim("region-r-coordinates", lambda c: c["args"].update(vectors=["D1", "S1", "gamma"])),
        "claim 'region-r-coordinates': vectors must be classes of one basis",
    ),
}


@pytest.mark.parametrize("case", sorted(CLAIM_REPROS))
def test_malformed_claim_is_input_error(case, tmp_path):
    name, mutate, message = CLAIM_REPROS[case]
    doc = copy.deepcopy(load(name).raw)
    mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"].endswith(message)


def _divisor_copies(*names):
    """Copies of toric-3fold curve classes in the divisor basis, as ``<name>-div``."""
    def mutate(doc):
        curves = doc["classes"]["toric3.curves"]["coords"]
        for name in names:
            doc["classes"]["toric3.divisors"]["coords"][f"{name}-div"] = curves[name]

    return mutate


def _small_basis(doc):
    """A declared 3-dim basis with one class, ``v3``."""
    doc["bases"].append({"name": "toric3.small", "dim": 3, "source": "a test basis"})
    doc["classes"]["toric3.small"] = {"source": "a test class", "coords": {"v3": ["1", "1", "0"]}}


def _then(*mutations):
    def apply(doc):
        for mutate in mutations:
            mutate(doc)

    return apply


_OUTSIDE = "vector not in the cone's coordinate space"

# one row per rule a checker used to keep a private copy of, each now the
# library's: ``(fixture, mutation, exit code, the error message after its
# "fixture NAME: " prefix or the claim's id and status)``.  Before the
# checkers called those rules, the long functional, the other-basis classes
# and the named pair passed, the 3-dim class exited 3, and the non-primitive
# ray and the short row failed.
# An argument of the wrong length is an input error before any witness: the
# long functional and the extra coefficient exited 2 with truncated witnesses.
CLAIM_RULES = {
    "separation-functional-too-long": (
        "toric-3fold",
        _claim("alpha-not-movable", lambda c: c["args"]["functional"].append("0")),
        1, "claim 'alpha-not-movable': functional must have 5 entries, one per coordinate",
    ),
    "combination-with-extra-coefficient": (
        "toric-3fold",
        _claim("alpha-mori-combination", lambda c: c["args"]["coefficients"].append("1")),
        1, "claim 'alpha-mori-combination': coefficients must have 5 entries, "
        "one per listed generator",
    ),
    "combination-of-another-basis": (
        "toric-3fold",
        _then(_divisor_copies("alpha"),
              _claim("alpha-mori-combination", lambda c: c["args"].update(vector="alpha-div"))),
        1, f"claim 'alpha-mori-combination': {_OUTSIDE}",
    ),
    "combination-of-a-3-dim-basis": (
        "toric-3fold",
        _then(_small_basis,
              _claim("alpha-mori-combination", lambda c: c["args"].update(vector="v3"))),
        1, f"claim 'alpha-mori-combination': {_OUTSIDE}",
    ),
    "interior-point-of-another-basis": (
        "toric-3fold",
        _then(_divisor_copies("alpha"),
              _claim("alpha-is-big", lambda c: c["args"].update(vector="alpha-div"))),
        1, f"claim 'alpha-is-big': {_OUTSIDE}",
    ),
    "named-pair-of-another-basis": (
        "toric-3fold",
        _then(_divisor_copies("M1", "M2"), _claim(
            "no-common-dominator",
            lambda c: c["args"].update(pair_without_dominator=["M1-div", "M2-div"]),
        )),
        1, f"claim 'no-common-dominator': {_OUTSIDE}",
    ),
    "ray-not-primitive": (
        "p2-hilb2",
        _claim("curve-cone-generators", lambda c: c["args"]["rays"].__setitem__(0, ["0", "2"])),
        0, ("curve-cone-generators", "pass"),
    ),
    "ray-of-another-length": (
        "p2-hilb2",
        _claim("curve-cone-generators", lambda c: c["args"]["rays"].__setitem__(0, ["0"])),
        1, "claim 'curve-cone-generators': generator outside the cone's basis",
    ),
}


@pytest.mark.parametrize("case", sorted(CLAIM_RULES))
def test_claims_are_decided_by_the_library_rules(case, tmp_path):
    name, mutate, code, expected = CLAIM_RULES[case]
    doc = copy.deepcopy(load(name).raw)
    mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    document, got = run(["fixture", str(path), "--verify"])
    assert got == code, document["payload"]
    if code == 1:
        assert document["payload"]["error"]["message"] == f"fixture {name}: {expected}"
        return
    payload = document["payload"]["error"] if code else document["payload"]
    results = {r["claim"]: r for r in payload["verification"]["results"]}
    claim_id, status = expected
    assert results[claim_id]["status"] == status
    assert [c for c, r in results.items() if not r["ok"]] == ([claim_id] if code else [])


def test_claim_arguments_are_checked_before_any_check_runs(tmp_path, monkeypatch):
    from cyclecones.fixtures import checks

    calls = []

    def counted(check):
        @functools.wraps(check)  # keeps the signature the arguments are checked against
        def run_check(*args, **kwargs):
            calls.append(check.__name__)
            return check(*args, **kwargs)

        return run_check

    for kind, check in list(checks.CHECKS.items()):
        monkeypatch.setitem(checks.CHECKS, kind, counted(check))
    doc = copy.deepcopy(load("toric-3fold").raw)
    assert doc["claims"][-1]["id"] == "movable-inside-effective"
    del doc["claims"][-1]["args"]["inner"]
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(doc))
    document, code = run(["fixture", str(path), "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        "fixture toric-3fold: claim 'movable-inside-effective': missing argument 'inner'"
    )
    assert calls == []
    assert verify_claims(load("toric-3fold")).all_ok and len(calls) == 10


def test_check_outcomes_are_classified(monkeypatch):
    # a DomainError is a failed claim, an InputError is malformed input, and
    # any other exception is a program fault that propagates
    from cyclecones.errors import CycleConesError, DomainError
    from cyclecones.fixtures import checks

    fixture = load("toric-3fold")
    kind = fixture.claims[0].check

    def raising(exc):
        def check(fixture, *, cone, equals_generators_of):
            raise exc

        return check

    monkeypatch.setitem(checks.CHECKS, kind, raising(DomainError("out of range")))
    result = fixtures.verify_claims(fixture).results[0]
    assert (result.status, result.witness) == ("fail", {"error": "DomainError: out of range"})
    assert not result.ok  # the claim expects "pass"

    for exc in (CycleConesError("broken"), TypeError("bad operand")):
        monkeypatch.setitem(checks.CHECKS, kind, raising(exc))
        with pytest.raises(type(exc)) as caught:
            fixtures.verify_claims(fixture)
        assert caught.value is exc

    monkeypatch.setitem(checks.CHECKS, kind, raising(InputError("bad claim data")))
    with pytest.raises(InputError) as caught:
        fixtures.verify_claims(fixture)
    assert caught.value.message == (
        f"fixture toric-3fold: claim {fixture.claims[0].id!r}: bad claim data"
    )


def test_fault_inside_a_check_exits_3_with_its_frame(monkeypatch):
    from cyclecones.fixtures import checks

    def broken(fixture, *, cone, equals_generators_of):
        raise TypeError("bad operand")

    monkeypatch.setitem(checks.CHECKS, "dual_cone_equals", broken)
    document, code = run(["fixture", "toric-3fold", "--verify"])
    assert (code, document["status"]) == (3, "internal_error")
    line = broken.__code__.co_firstlineno + 1
    assert document["payload"]["error"] == {
        "message": "TypeError: bad operand",
        "type": "TypeError",
        "frame": f"test_fixtures.py:{line} in broken",
    }


def test_each_claim_argument_takes_every_json_type():
    # every top-level argument of every packaged claim replaced by a value of
    # each JSON type, the claim run alone: it reads as an input error or runs
    # to a verdict; any other exception fails this test
    runs = 0
    for name in FIXTURE_NAMES:
        fixture = load(name)
        for claim in fixture.claims:
            for key in claim.args:
                for value in (None, True, 0, "x", [], {}):
                    one = dataclasses.replace(claim, args={**claim.args, key: value})
                    runs += 1
                    try:
                        report = verify_claims(dataclasses.replace(fixture, claims=(one,)))
                    except InputError:
                        continue
                    assert report.results[0].status in ("pass", "fail", "flagged")
    assert runs == 702


def test_facet_of_a_full_space_cone_is_a_failed_claim(tmp_path):
    # the cone of the six +-unit surface classes has no facets; reading the
    # facet's basis off the first one used to crash
    doc = copy.deepcopy(load("p2-hilb2").raw)
    units = ["S1", "S2", "S3"]
    coords = doc["classes"]["p2h2.surfaces"]["coords"]
    for unit in units:
        coords[f"-{unit}"] = [str(-int(c)) for c in coords[unit]]
    doc["cones"].append(
        {"id": "whole-space", "basis": "p2h2.surfaces",
         "generators": units + [f"-{unit}" for unit in units]}
    )
    claim = next(c for c in doc["claims"] if c["id"] == "movability-facet")
    claim["args"]["cone"] = "whole-space"
    path = tmp_path / "p2-hilb2.json"
    path.write_text(json.dumps(doc))
    report = verify_claims(load(str(path)))
    result = next(r for r in report.results if r.claim_id == "movability-facet")
    assert (result.status, result.witness) == ("fail", {"facets": []})

import copy
import json

import pytest

from cyclecones.cli import run
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


def test_env_override_takes_precedence(tmp_path, monkeypatch):
    custom = {
        "name": "toric-3fold",
        "description": "override",
        "claims": [],
    }
    (tmp_path / "toric-3fold.json").write_text(json.dumps(custom))
    monkeypatch.setenv("CYCLECONES_FIXTURE_DIR", str(tmp_path))
    fixture = load("toric-3fold")
    assert fixture.description == "override"
    assert fixture.claims == ()


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
def test_malformed_fixture_file_is_input_error(tmp_path, monkeypatch, mutate, message):
    doc = copy.deepcopy(load("toric-3fold").raw)
    mutate(doc)
    (tmp_path / "toric-3fold.json").write_text(json.dumps(doc))
    monkeypatch.setenv("CYCLECONES_FIXTURE_DIR", str(tmp_path))
    document, code = run(["fixture", "toric-3fold", "--verify"])
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
def test_fixture_file_missing_a_key_is_input_error(
    tmp_path, monkeypatch, mutate, where, key
):
    doc = copy.deepcopy(load("toric-3fold").raw)
    mutate(doc)
    path = tmp_path / "toric-3fold.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("CYCLECONES_FIXTURE_DIR", str(tmp_path))
    document, code = run(["fixture", "toric-3fold", "--verify"])
    assert (code, document["status"]) == (1, "input_error")
    assert document["payload"]["error"]["message"] == (
        f"{path}: {where} must be an object with the key {key!r}"
    )


def test_unreadable_fixture_file_is_input_error(tmp_path, monkeypatch):
    (tmp_path / "toric-3fold.json").write_text('{"name": "toric-3fold",')
    monkeypatch.setenv("CYCLECONES_FIXTURE_DIR", str(tmp_path))
    document, code = run(["fixture", "toric-3fold", "--verify"])
    assert (code, document["status"]) == (1, "input_error")

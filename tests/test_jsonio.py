import pytest

from cyclecones import jsonio
from cyclecones.cones import dd_convert
from cyclecones.errors import DomainError, InputError
from cyclecones.jsonio import (
    cone_from_json,
    cone_to_json,
    geometry_from_json,
    gram_from_json,
    parse_vector_text,
)

from conftest import chain_gram


def test_cone_round_trip():
    doc = {
        "basis": "io2",
        "dim": 2,
        "generators": [["1", "0"], ["1", "2/3"]],
    }
    cone = cone_from_json(doc)
    full = dd_convert(cone)
    again = cone_from_json(cone_to_json(full))
    assert again.generators == full.generators
    assert again.inequalities == full.inequalities


def test_integer_json_numbers_accepted_floats_rejected():
    cone = cone_from_json({"basis": "io2b", "dim": 2, "generators": [[1, 0]]})
    assert cone.generators[0].coords == (1, 0)
    with pytest.raises(InputError):
        cone_from_json({"basis": "io2c", "dim": 2, "generators": [[0.5, 1]]})


def test_empty_lists_need_dim():
    with pytest.raises(InputError):
        cone_from_json({"basis": "io3", "generators": []})
    zero = cone_from_json({"basis": "io3", "dim": 3, "generators": []})
    assert zero.generators == ()


def test_missing_representation_rejected():
    with pytest.raises(InputError):
        cone_from_json({"basis": "io2", "dim": 2})


def test_vector_text_parsing():
    v = parse_vector_text("1, -2/3 ,0", "io3v", 3)
    assert [str(c) for c in v.coords] == ["1", "-2/3", "0"]
    with pytest.raises(InputError):
        parse_vector_text("", "io3v", 3)
    with pytest.raises(InputError):
        parse_vector_text("1,0.5", "io3v", 2)
    with pytest.raises(InputError) as caught:
        parse_vector_text("1,2", "io3v", 3)
    assert caught.value.message == "expected 3 coordinates in basis 'io3v', got 2"
    # an empty field is an error, not a dropped coordinate
    for text in ("1,,2,3", "1,2,3,", ",1,2,3", "1, ,2"):
        with pytest.raises(InputError) as caught:
            parse_vector_text(text, "io3v", 3)
        assert caught.value.message == f"empty coordinate in {text!r}"
    assert parse_vector_text("", "io0v", 0).coords == ()
    assert parse_vector_text(" ", "io0v", 0).coords == ()


def test_geometry_document():
    doc = {
        "name": "demo",
        "basis": "iog2",
        "dim": 2,
        "mov": {"generators": [["1", "1"], ["0", "1"]]},
        "eff": {"generators": [["1", "0"], ["0", "1"]]},
        "objective": ["1", "1"],
    }
    geometry = geometry_from_json(doc)
    assert geometry.basis == "iog2"
    assert geometry.degree_functional.coords == (1, 1)
    with pytest.raises(InputError):
        geometry_from_json({"basis": "iog2", "dim": 2, "mov": {}})


def test_gram_document():
    basis = gram_from_json({"labels": ["a"], "gram": [["-2"]]})
    assert basis.gram == ((-2,),)
    with pytest.raises(InputError):
        gram_from_json({"labels": ["a"]})


def test_cone_dimension_cap():
    cap = jsonio._MAX_CONE_DIM
    assert cone_from_json({"basis": "iocap", "dim": cap, "inequalities": []}).dim == cap
    documents = [
        {"basis": "iocap", "dim": cap + 1, "inequalities": []},
        {"basis": "iocap", "dim": 10**6, "generators": []},
        {"basis": "iocap", "generators": [["0"] * (cap + 1)]},
    ]
    for doc in documents:
        with pytest.raises(DomainError) as caught:
            cone_from_json(doc)
        dim = doc.get("dim", cap + 1)
        assert caught.value.message == f"cone dimension {dim} exceeds the cap of {cap}"
        assert caught.value.details == {"dim": dim, "cap": cap}
    with pytest.raises(DomainError):
        geometry_from_json(
            {"basis": "iocap", "dim": cap + 1, "mov": {"generators": []}, "eff": {"generators": []}}
        )


def test_gram_rank_cap():
    cap = jsonio._MAX_GRAM_RANK
    assert gram_from_json(chain_gram(cap)).rank == cap
    with pytest.raises(DomainError) as caught:
        gram_from_json(chain_gram(cap + 1))
    assert caught.value.message == f"pairing rank {cap + 1} exceeds the cap of {cap}"
    assert caught.value.details == {"rank": cap + 1, "cap": cap}

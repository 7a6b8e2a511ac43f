"""Exact JSON encoding/decoding for cones, geometries, and pairing data.

Rationals travel as strings ("3" or "-2/7"); integer JSON numbers are
tolerated on input, floats never are.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from .cones import PolyCone
from .errors import DomainError, InputError
from .rationals import rat, rat_str
from .vectors import ClassVector, dual_basis

if TYPE_CHECKING:
    from .negdef import PairingBasis
    from .zariski import ConeGeometry

# Largest cone dimension accepted from JSON.  Converting the empty cone of
# dimension d projects over a d-dimensional lineality space, O(d^3): dim 64
# converts in about 0.2 s beyond interpreter start, dim 100 in 0.8 s and
# dim 400 in 32 s.  Every fixture and benchmark cone has dim 9 or less.
_MAX_CONE_DIM = 64

# Largest pairing-matrix rank accepted from JSON.  ``bck`` on a tridiagonal
# negative-definite gram, wall clock with interpreter start on Python 3.11
# (2-vCPU Xeon VM): rank 32 0.26 s, 48 0.44 s, 64 1.1 s, 100 4.4 s; rank 120
# took 7.5 s.  Every fixture and benchmark gram has rank 10 or less.
_MAX_GRAM_RANK = 48


def read_json(path: str):
    """The JSON document at ``path`` (``-`` reads stdin); floats rejected."""
    try:
        if path == "-":
            return json.load(sys.stdin, parse_float=_reject_float)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=_reject_float)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path!r}") from exc
    except OSError as exc:  # a directory, no permission, ...
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputError(f"{path}: {exc}") from exc


def _reject_float(text):
    raise InputError(f"floating-point literal {text!r} rejected; use exact rationals")


def parse_vector_text(text: str, basis: str, dim: int) -> ClassVector:
    """Parse a comma-separated coordinate string like ``"1,1,0,1,2"``
    into a vector of ``basis`` with exactly ``dim`` coordinates, none of
    them empty; only a basis of dimension 0 takes an empty string."""
    parts = text.split(",") if text.strip() else []
    if not all(p.strip() for p in parts):
        raise InputError(f"empty coordinate in {text!r}")
    if len(parts) != dim:
        raise InputError(
            f"expected {dim} coordinates in basis {basis!r}, got {len(parts)}"
        )
    return ClassVector(basis, tuple(rat(p) for p in parts))


def _row(value, what: str) -> tuple:
    """A JSON list of exact rationals; any other shape is an input error."""
    if not isinstance(value, list):
        raise InputError(
            f"{what} must be a list of rationals, got {type(value).__name__}"
        )
    return tuple(rat(x) for x in value)


def _rows(value, what: str) -> list[tuple]:
    """A JSON list of rows, each parsed by ``_row``."""
    if not isinstance(value, list):
        raise InputError(
            f"{what} must be a list of rows, got {type(value).__name__}"
        )
    return [_row(row, f"{what} row {i}") for i, row in enumerate(value)]


def _names(value, what: str) -> list[str]:
    """A JSON list of strings; any other shape is an input error."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{what} must be a list of strings")
    return value


def _dim(value, what: str) -> int:
    """A nonnegative JSON integer; any other value is an input error."""
    if type(value) is not int or value < 0:
        raise InputError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _text(value, what: str) -> str:
    """A JSON string; any other value is an input error."""
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _kind(value, kind: type, what: str):
    """``value``; an input error unless it is a ``kind``, ``dict`` or ``list``."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise InputError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _need(node, keys: tuple[str, ...], where: str) -> None:
    """An input error naming ``where`` unless ``node`` is an object with ``keys``."""
    _kind(node, dict, where)
    for key in keys:
        if key not in node:
            raise InputError(f"{where} must be an object with the key {key!r}")


def _part(node: dict, key: str, kind: type, where: str):
    """``node[key]``, empty when absent; an input error unless it is a ``kind``."""
    value = node.get(key, kind())
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise InputError(f"{where} {key!r} must be {shape}")
    return value


def rows_to_json(vectors) -> list[list[str]]:
    return [[rat_str(c) for c in v.coords] for v in vectors]


def cone_to_json(cone: PolyCone) -> dict:
    doc = {"basis": cone.basis, "dim": cone.dim}
    if cone.generators is not None:
        doc["generators"] = rows_to_json(cone.generators)
    if cone.inequalities is not None:
        doc["inequalities"] = rows_to_json(cone.inequalities)
    return doc


def cone_from_json(doc: dict, basis: str | None = None, dim: int | None = None) -> PolyCone:
    _need(doc, ("basis",) if basis is None else (), "cone document")
    basis = _text(doc.get("basis", basis), '"basis"')
    dim = doc.get("dim", dim)
    if dim is not None:
        _dim(dim, '"dim"')
    generators = doc.get("generators")
    inequalities = doc.get("inequalities")
    if generators is None and inequalities is None:
        raise InputError(
            'cone document needs "generators" or "inequalities" (an empty '
            "list is meaningful)"
        )
    if generators is not None:
        generators = _rows(generators, '"generators"')
    if inequalities is not None:
        inequalities = _rows(inequalities, '"inequalities"')
    if dim is None:
        rows = generators if generators is not None else inequalities
        if not rows:
            raise InputError('cone document needs "dim" when both lists are empty')
        dim = len(rows[0])
    if dim > _MAX_CONE_DIM:
        raise DomainError(
            f"cone dimension {dim} exceeds the cap of {_MAX_CONE_DIM}",
            dim=dim,
            cap=_MAX_CONE_DIM,
        )
    gen_vectors = (
        tuple(ClassVector(basis, row) for row in generators)
        if generators is not None
        else None
    )
    dual = dual_basis(basis)
    ineq_vectors = (
        tuple(ClassVector(dual, row) for row in inequalities)
        if inequalities is not None
        else None
    )
    return PolyCone(basis, dim, generators=gen_vectors, inequalities=ineq_vectors)


def geometry_from_json(doc: dict) -> ConeGeometry:
    """Parse {"basis", "dim", "mov": cone, "eff": cone, "objective": [...]}."""
    from .zariski import cone_geometry

    _need(doc, ("mov", "eff"), "geometry document")
    name = _text(doc.get("name", "geometry"), '"name"')
    basis = doc.get("basis")
    dim = doc.get("dim")
    mov = cone_from_json(doc["mov"], basis=basis, dim=dim)
    eff = cone_from_json(doc["eff"], basis=basis, dim=dim)
    objective = None
    if doc.get("objective") is not None:
        objective = ClassVector(eff.dual, _row(doc["objective"], '"objective"'))
    return cone_geometry(name, mov, eff, objective)


def gram_from_json(doc: dict) -> PairingBasis:
    from .negdef import PairingBasis

    _need(doc, ("labels", "gram"), "pairing document")
    labels = _names(doc["labels"], '"labels"')
    if len(labels) > _MAX_GRAM_RANK:
        raise DomainError(
            f"pairing rank {len(labels)} exceeds the cap of {_MAX_GRAM_RANK}",
            rank=len(labels),
            cap=_MAX_GRAM_RANK,
        )
    return PairingBasis(tuple(labels), tuple(_rows(doc["gram"], '"gram"')))

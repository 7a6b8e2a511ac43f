"""Embedded, audited example geometries and their claim catalogs.

Each fixture is a JSON data file compiled into the package (overridable
via the CYCLECONES_FIXTURE_DIR environment variable for experimentation).
A lint pass refuses data files whose numeric literals are not covered by a
``source`` annotation, and every fixture ships a catalog of claims whose
checks re-derive the recorded facts from the raw data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING

from .. import FIXTURE_NAMES  # re-exported
from ..cones import PolyCone
from ..errors import InputError
from ..jsonio import _dim, _names, _row
from ..rationals import rat
from ..vectors import ClassVector

if TYPE_CHECKING:
    from ..projbundle import HNProfile
    from ..rings import AuditReport, DualClass, RingElement, RingPresentation
    from ..zariski import ConeGeometry

_NUMERIC_CHARS = set("0123456789")


@dataclass(frozen=True)
class Claim:
    id: str
    check: str
    expect: str
    args: dict
    source: str


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    check: str
    status: str  # "pass" | "fail" | "flagged"
    expected: str
    witness: dict

    @property
    def ok(self) -> bool:
        return self.status == self.expected

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "check": self.check,
            "status": self.status,
            "expected": self.expected,
            "ok": self.ok,
            "witness": self.witness,
        }


@dataclass
class Fixture:
    name: str
    description: str
    raw: dict
    vectors: dict[str, dict[str, ClassVector]] = field(default_factory=dict)
    cones: dict[str, PolyCone] = field(default_factory=dict)
    geometries: dict[str, ConeGeometry] = field(default_factory=dict)
    ring: RingPresentation | None = None
    ring_elements: dict[str, RingElement] = field(default_factory=dict)
    dual_classes: dict[str, DualClass] = field(default_factory=dict)
    profiles: dict[str, HNProfile] = field(default_factory=dict)
    claims: tuple[Claim, ...] = ()
    audit: AuditReport | None = None

    def vector(self, name: str) -> ClassVector:
        hits = [table[name] for table in self.vectors.values() if name in table]
        if not hits:
            raise InputError(f"fixture {self.name}: unknown class {name!r}")
        if len(hits) > 1:
            raise InputError(f"fixture {self.name}: ambiguous class {name!r}")
        return hits[0]

    def vector_in(self, basis: str, name: str) -> ClassVector:
        try:
            return self.vectors[basis][name]
        except KeyError as exc:
            raise InputError(
                f"fixture {self.name}: no class {name!r} in basis {basis!r}"
            ) from exc

    def _named(self, table: dict, name: str, what: str):
        if name not in table:
            raise InputError(f"fixture {self.name}: unknown {what} {name!r}")
        return table[name]

    def cone(self, cone_id: str) -> PolyCone:
        return self._named(self.cones, cone_id, "cone")

    def geometry(self, geometry_id: str) -> ConeGeometry:
        return self._named(self.geometries, geometry_id, "geometry")

    def element(self, name: str) -> RingElement:
        return self._named(self.ring_elements, name, "ring element")

    def dual(self, name: str) -> DualClass:
        return self._named(self.dual_classes, name, "dual class")

    def profile(self, name: str) -> HNProfile:
        return self._named(self.profiles, name, "profile")

    def claim(self, claim_id: str) -> Claim:
        for claim in self.claims:
            if claim.id == claim_id:
                return claim
        raise InputError(f"fixture {self.name}: unknown claim {claim_id!r}")


def _looks_numeric(leaf) -> bool:
    if isinstance(leaf, bool):
        return False
    if isinstance(leaf, (int, float)):
        return True
    if isinstance(leaf, str):
        text = leaf.lstrip("-")
        return bool(text) and set(text) <= _NUMERIC_CHARS | {"/"} and (
            text[0] in _NUMERIC_CHARS
        )
    return False


def lint_sources(node, covered: bool = False, path: str = "$") -> list[str]:
    """Uncited numeric literals in a fixture document.

    A dict node carrying any ``source``-suffixed key covers itself and its
    descendants; every numeric leaf must be covered by some ancestor.
    Floats are rejected outright: fixture data is exact.
    """
    problems: list[str] = []
    if isinstance(node, float):
        problems.append(f"{path}: floating-point literal {node!r}")
        return problems
    if isinstance(node, dict):
        here = covered or any(
            key == "source" or key.endswith("_source") for key in node
        )
        for key, value in node.items():
            problems.extend(lint_sources(value, here, f"{path}.{key}"))
        return problems
    if isinstance(node, list):
        for i, value in enumerate(node):
            problems.extend(lint_sources(value, covered, f"{path}[{i}]"))
        return problems
    if _looks_numeric(node) and not covered:
        problems.append(f"{path}: numeric literal {node!r} without a source")
    return problems


def _read_raw(name: str) -> tuple[dict, str]:
    """The fixture document and the file it was read from."""
    override = os.environ.get("CYCLECONES_FIXTURE_DIR")
    if override:
        candidate = os.path.join(override, f"{name}.json")
        if os.path.exists(candidate):
            with open(candidate, "r", encoding="utf-8") as handle:
                try:
                    return json.load(handle), candidate
                except ValueError as exc:  # invalid JSON, or an over-long integer
                    raise InputError(f"{candidate}: {exc}") from exc
    try:
        packaged = resources.files(__package__).joinpath(f"data/{name}.json")
        return json.loads(packaged.read_text(encoding="utf-8")), str(packaged)
    except FileNotFoundError as exc:
        raise InputError(f"unknown fixture {name!r}") from exc


def _need(node, keys: tuple[str, ...], where: str) -> None:
    """An input error naming ``where`` unless ``node`` is an object with ``keys``."""
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise InputError(f"{where} must be an object with the key {key!r}")


def _build_ring(fixture: Fixture, doc: dict, where: str) -> None:
    from ..rings import DualLayer, RingPresentation, consistency_audit, parse_monomial

    _need(doc, ("generators", "top_degree", "max_monomial_degree"), where)
    generators = tuple(doc["generators"])

    def mono(text: str):
        return parse_monomial(text, generators)

    dual_layers = {}
    for degree_text, layer in doc.get("dual_bases", {}).items():
        _need(layer, ("names",), f"{where} dual_bases[{degree_text!r}]")
        cap = layer.get("cap_relations")
        if cap is not None:
            cap = {mono(m): _row(row, f"cap relation {m!r}") for m, row in cap.items()}
        degree = int(degree_text)
        dual_layers[degree] = DualLayer(degree, tuple(layer["names"]), cap)
    top_values = doc.get("top_values")
    ring = RingPresentation(
        name=fixture.name,
        generators=generators,
        top_degree=doc["top_degree"],
        rewrites={
            mono(lhs): {mono(m): rat(c) for m, c in rhs.items()}
            for lhs, rhs in doc.get("relations", {}).items()
        },
        top_values=(
            {mono(m): rat(v) for m, v in top_values.items()}
            if top_values is not None
            else None
        ),
        max_monomial_degree=doc["max_monomial_degree"],
        dual_layers=dual_layers,
    )
    fixture.ring = ring
    for name, body in doc.get("named", {}).get("elements", {}).items():
        _need(body, ("degree", "terms"), f"{where} element {name!r}")
        fixture.ring_elements[name] = ring.element(body["degree"], body["terms"])
    for name, body in doc.get("dual_classes", {}).get("elements", {}).items():
        _need(body, ("degree", "coords"), f"{where} dual class {name!r}")
        fixture.dual_classes[name] = ring.dual_class(body["degree"], body["coords"])
    fixture.audit = consistency_audit(ring)


def _declared_bases(raw: dict, origin: str) -> tuple[dict[str, int], dict[str, str]]:
    """Dimensions of the declared bases and their duals; duals both ways."""
    dims: dict[str, int] = {}
    duals: dict[str, str] = {}
    for i, basis in enumerate(raw.get("bases", [])):
        _need(basis, ("name", "dim"), f"{origin}: bases[{i}]")
        name, dual = basis["name"], basis.get("dual")
        dims[name] = _dim(basis["dim"], f'bases[{i}] "dim"')
        if dual is not None:
            dims[dual] = dims[name]
            duals[name], duals[dual] = dual, name
    return dims, duals


def _class_vector(dims: dict[str, int], basis: str, value, what: str) -> ClassVector:
    """A coordinate row of a declared basis, checked against its dimension."""
    if basis not in dims:
        raise InputError(f"{what}: basis {basis!r} is not declared")
    coords = _row(value, what)
    if len(coords) != dims[basis]:
        raise InputError(
            f"{what} has {len(coords)} coordinates; basis {basis!r} has "
            f"dim {dims[basis]}"
        )
    return ClassVector(basis, coords)


def load(name: str) -> Fixture:
    """Load, lint, and validate a fixture by name.

    Each section imports its module where it is built, so a fixture without
    a ring, geometries or profiles never loads rings, zariski or projbundle.
    """
    raw, origin = _read_raw(name)
    problems = lint_sources(raw)
    if problems:
        raise InputError(
            "fixture data failed the source lint:\n  " + "\n  ".join(problems)
        )
    _need(raw, ("name",), origin)
    fixture = Fixture(name=raw["name"], description=raw.get("description", ""), raw=raw)

    dims, duals = _declared_bases(raw, origin)

    for basis_name, table in raw.get("classes", {}).items():
        fixture.vectors[basis_name] = {
            class_name: _class_vector(
                dims, basis_name, coords, f"class {class_name!r}"
            )
            for class_name, coords in table.get("coords", {}).items()
        }

    if "ring" in raw:
        _build_ring(fixture, raw["ring"], f"{origin}: ring")

    extra = raw.get("surface_class_vectors")
    if extra is not None:
        basis_name = "m07.surfaces"
        group = fixture.vectors.setdefault(basis_name, {})
        for class_name, coords in extra.get("coords", {}).items():
            group[class_name] = _class_vector(
                dims, basis_name, coords, f"class {class_name!r}"
            )

    for i, cone_doc in enumerate(raw.get("cones", [])):
        _need(cone_doc, ("basis", "id", "generators"), f"{origin}: cones[{i}]")
        basis_name, cone_id = cone_doc["basis"], cone_doc["id"]
        names = _names(cone_doc["generators"], f"cone {cone_id!r} generators")
        fixture.cones[cone_id] = PolyCone.from_generators(
            basis_name,
            [fixture.vector_in(basis_name, g) for g in names],
            dim=dims.get(basis_name),
            dual=duals.get(basis_name),
        )

    for i, geom in enumerate(raw.get("geometries", [])):
        from ..zariski import cone_geometry

        at = f"{origin}: geometries[{i}]"
        _need(geom, ("id", "eff", "mov", "objective"), at)
        _need(geom["objective"], ("coords",), f"{at} objective")
        eff = fixture.cone(geom["eff"])
        what = f"geometry {geom['id']!r} objective"
        objective = ClassVector(eff.dual, _row(geom["objective"]["coords"], what))
        fixture.geometries[geom["id"]] = cone_geometry(
            f"{fixture.name}:{geom['id']}", fixture.cone(geom["mov"]), eff, objective
        )

    for profile_name, text in raw.get("profiles", {}).get("entries", {}).items():
        from ..projbundle import HNProfile

        fixture.profiles[profile_name] = HNProfile.parse(text)

    for i, c in enumerate(raw.get("claims", [])):
        _need(c, ("id", "check", "expect"), f"{origin}: claims[{i}]")
        claim = Claim(c["id"], c["check"], c["expect"], c.get("args", {}), c.get("source", ""))
        fixture.claims += (claim,)
    return fixture


@dataclass(frozen=True)
class ClaimReport:
    fixture: str
    results: tuple[ClaimResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "fixture": self.fixture,
            "all_ok": self.all_ok,
            "results": [r.to_json() for r in self.results],
        }


def verify_claims(fixture: Fixture) -> ClaimReport:
    """Run every claim check; failures are report entries, not exceptions."""
    from . import checks

    results = []
    for claim in fixture.claims:
        runner = checks.CHECKS.get(claim.check)
        if runner is None:
            results.append(
                ClaimResult(
                    claim.id,
                    claim.check,
                    "fail",
                    claim.expect,
                    {"error": f"unknown check {claim.check!r}"},
                )
            )
            continue
        try:
            status, witness = runner(fixture, claim.args)
        except Exception as exc:  # findings are data, not crashes
            status, witness = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        results.append(
            ClaimResult(claim.id, claim.check, status, claim.expect, witness)
        )
    return ClaimReport(fixture.name, tuple(results))

"""Embedded, audited example geometries and their claim catalogs.

Each packaged fixture is a JSON data file compiled into the package;
``load`` takes its name, or the path of any fixture document ending in
``.json``, and reads both through ``jsonio.read_json``.  A lint pass
refuses data files whose numeric literals are not covered by a ``source``
annotation, and every fixture ships a catalog of claims whose checks
re-derive the recorded facts from the raw data.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field
from math import comb
from typing import TYPE_CHECKING

from .. import FIXTURE_NAMES  # re-exported
from ..cones import PolyCone
from ..errors import DomainError, InputError
from ..jsonio import _dim, _kind, _names, _need, _part, _row, _rows, _text, read_json
from ..rationals import rat
from ..vectors import ClassVector

if TYPE_CHECKING:
    from ..projbundle import HNProfile
    from ..rings import AuditReport, DualClass, RingElement, RingPresentation
    from ..zariski import ConeGeometry

# Most monomials a fixture ring may have up to its top or largest declared
# degree, C(generators + degree, generators).  The consistency audit grows
# with that count: at the cap, with every top value declared, a ring loads
# in 0.24 s (two generators to degree 43) to 0.46 s (six to degree 6) on
# Python 3.11, 2-vCPU Xeon VM; 1 771 monomials took 0.69 s.  The packaged
# rings have 15.
_MAX_RING_MONOMIALS = 1000


@dataclass(frozen=True)
class Claim:
    id: str
    check: str
    expect: str
    args: dict  # the check's keyword arguments; lint annotations left out


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    check: str
    status: str  # "pass" | "fail" | "flagged", the check's own verdict
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
    _ring: RingPresentation | None = None  # read through ``ring``
    ring_elements: dict[str, RingElement] = field(default_factory=dict)
    dual_classes: dict[str, DualClass] = field(default_factory=dict)
    profiles: dict[str, HNProfile] = field(default_factory=dict)
    claims: tuple[Claim, ...] = ()
    audit: AuditReport | None = None

    @property
    def ring(self) -> RingPresentation:
        if self._ring is None:
            raise InputError(f"fixture {self.name} has no ring")
        return self._ring

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
        if not isinstance(name, str) or name not in table:
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
        return self._named({claim.id: claim for claim in self.claims}, claim_id, "claim")


# verify_claims reads a claim argument by its check parameter's annotation, as
# text: a fixture entry looked up by name, a list of such names, checked JSON,
# or, for an unannotated flag, the value as given
_ENTRIES = {"PolyCone": Fixture.cone, "ClassVector": Fixture.vector, "Claim": Fixture.claim,
            "ConeGeometry": Fixture.geometry, "HNProfile": Fixture.profile,
            "RingElement": Fixture.element, "DualClass": Fixture.dual}
_JSON = {"Row": _row, "list[Row]": _rows, "str": _text, "list[str]": _names, "int": _dim,
         "dict": lambda value, what: _kind(value, dict, what),
         "list": lambda value, what: _kind(value, list, what),
         inspect.Parameter.empty: lambda value, what: value}


def _argument(fixture: Fixture, param: inspect.Parameter, value):
    if param.annotation in _JSON:
        return _JSON[param.annotation](value, param.name)
    lookup = _ENTRIES[param.annotation.removeprefix("list[").removesuffix("]")]
    if param.annotation.startswith("list["):
        return [lookup(fixture, name) for name in _names(value, param.name)]
    return lookup(fixture, _text(value, param.name))


def _looks_numeric(leaf) -> bool:
    """True iff ``rationals.rat`` reads ``leaf``: the one rule for a number."""
    try:
        rat(leaf)
    except InputError:
        return False
    return True


def _is_source_key(key: str) -> bool:
    """A lint annotation: ``source`` or a ``*_source`` key."""
    return key == "source" or key.endswith("_source")


def lint_sources(node, covered: bool = False, path: str = "$") -> list[str]:
    """Uncited numeric literals in a fixture document.

    A dict node carrying any ``source``-suffixed key covers itself and its
    descendants; every numeric leaf, any leaf ``rationals.rat`` reads (so
    ``"+3"`` too), must be covered by some ancestor.  Floats are rejected
    outright: fixture data is exact.
    """
    problems: list[str] = []
    if isinstance(node, float):
        problems.append(f"{path}: floating-point literal {node!r}")
        return problems
    if isinstance(node, dict):
        here = covered or any(_is_source_key(key) for key in node)
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


def _element(ring: RingPresentation, node, what: str) -> RingElement:
    """A ring element given as ``{"degree": d, "terms": {monomial: c}}``."""
    _need(node, ("degree", "terms"), what)
    return ring.element(_dim(node["degree"], f"{what} degree"), node["terms"])


def _build_ring(fixture: Fixture, doc: dict, where: str) -> None:
    from ..rings import DualLayer, RingPresentation, consistency_audit, parse_monomial

    _need(doc, ("generators", "top_degree", "max_monomial_degree"), where)
    generators = tuple(_names(doc["generators"], f"{where} generators"))
    top_degree = _dim(doc["top_degree"], f"{where} top_degree")
    max_degree = _dim(doc["max_monomial_degree"], f"{where} max_monomial_degree")
    monomials = comb(len(generators) + max(top_degree, max_degree), len(generators))
    if monomials > _MAX_RING_MONOMIALS:
        raise DomainError(
            f"{where}: {monomials} monomials up to degree "
            f"{max(top_degree, max_degree)} exceed the cap of {_MAX_RING_MONOMIALS}",
            monomials=monomials,
            cap=_MAX_RING_MONOMIALS,
        )

    def mono(text: str):
        return parse_monomial(text, generators)

    def table(node, key: str) -> dict:
        return {mono(m): rat(c) for m, c in _part(node, key, dict, where).items()}

    dual_layers = {}
    for degree_text, layer in _part(doc, "dual_bases", dict, where).items():
        at = f"{where} dual_bases[{degree_text!r}]"
        _need(layer, ("names",), at)
        names = tuple(_names(layer["names"], f"{at} names"))
        cap = layer.get("cap_relations")
        if cap is not None:
            cap = {
                mono(m): _row(row, f"cap relation {m!r}")
                for m, row in _part(layer, "cap_relations", dict, at).items()
            }
        degree = _dim(rat(degree_text), f"{at}: a degree")
        dual_layers[degree] = DualLayer(degree, names, cap)
    relations = _part(doc, "relations", dict, where)
    ring = RingPresentation(
        name=fixture.name,
        generators=generators,
        top_degree=top_degree,
        rewrites={mono(lhs): table(relations, lhs) for lhs in relations},
        top_values=None if doc.get("top_values") is None else table(doc, "top_values"),
        max_monomial_degree=max_degree,
        dual_layers=dual_layers,
    )
    fixture._ring = ring
    named = _part(doc, "named", dict, where)
    named = _part(named, "elements", dict, f"{where} named")
    for name, body in named.items():
        fixture.ring_elements[name] = _element(ring, body, f"{where} element {name!r}")
    duals = _part(doc, "dual_classes", dict, where)
    duals = _part(duals, "elements", dict, f"{where} dual_classes")
    for name, body in duals.items():
        at = f"{where} dual class {name!r}"
        _need(body, ("degree", "coords"), at)
        fixture.dual_classes[name] = ring.dual_class(
            _dim(body["degree"], f"{at} degree"), _row(body["coords"], at)
        )
    fixture.audit = consistency_audit(ring)


def _declared_bases(raw: dict, origin: str) -> tuple[dict[str, int], dict[str, str]]:
    """Dimensions of the declared bases and their duals; duals both ways."""
    dims: dict[str, int] = {}
    duals: dict[str, str] = {}
    for i, basis in enumerate(_part(raw, "bases", list, origin)):
        _need(basis, ("name", "dim"), f"{origin}: bases[{i}]")
        name = _text(basis["name"], f'bases[{i}] "name"')
        dual = basis.get("dual")
        dims[name] = _dim(basis["dim"], f'bases[{i}] "dim"')
        if dual is not None:
            dims[_text(dual, f'bases[{i}] "dual"')] = dims[name]
            duals[name], duals[dual] = dual, name
    return dims, duals


def _fresh_id(ids, value, kind: str, at: str) -> str:
    """The ``id`` text of a ``kind`` entry, which no earlier one may have."""
    entry_id = _text(value, f"{at} id")
    if entry_id in ids:
        raise InputError(f"{at}: duplicate {kind} id {entry_id!r}")
    return entry_id


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


def load(ref: str) -> Fixture:
    """Load, lint, and validate a fixture: a packaged name or a ``.json`` path.

    Each section imports its module where it is built, so a fixture without
    a ring, geometries or profiles never loads rings, zariski or projbundle.
    """
    if ref in FIXTURE_NAMES:
        origin = os.path.join(os.path.dirname(__file__), "data", f"{ref}.json")
    elif ref.endswith(".json"):
        origin = ref
    else:
        raise InputError(
            f"unknown fixture {ref!r}: give a packaged name "
            f"({', '.join(FIXTURE_NAMES)}) or a path ending in .json"
        )
    raw = read_json(origin)
    problems = lint_sources(raw)
    if problems:
        raise InputError(
            "fixture data failed the source lint:\n  " + "\n  ".join(problems)
        )
    _need(raw, ("name",), origin)
    name = _text(raw["name"], f"{origin}: name")
    fixture = Fixture(name=name, description=raw.get("description", ""), raw=raw)

    dims, duals = _declared_bases(raw, origin)

    for basis_name, table in _part(raw, "classes", dict, origin).items():
        at = f"{origin}: classes[{basis_name!r}]"
        _need(table, ("coords",), at)
        fixture.vectors[basis_name] = {
            class_name: _class_vector(
                dims, basis_name, coords, f"class {class_name!r}"
            )
            for class_name, coords in _part(table, "coords", dict, at).items()
        }

    if "ring" in raw:
        _build_ring(fixture, raw["ring"], f"{origin}: ring")

    for i, cone_doc in enumerate(_part(raw, "cones", list, origin)):
        at = f"{origin}: cones[{i}]"
        _need(cone_doc, ("basis", "id", "generators"), at)
        basis_name = _text(cone_doc["basis"], f"{at} basis")
        cone_id = _fresh_id(fixture.cones, cone_doc["id"], "cone", at)
        names = _names(cone_doc["generators"], f"cone {cone_id!r} generators")
        fixture.cones[cone_id] = PolyCone.from_generators(
            basis_name,
            [fixture.vector_in(basis_name, g) for g in names],
            dim=dims.get(basis_name),
            dual=duals.get(basis_name),
        )

    for i, geom in enumerate(_part(raw, "geometries", list, origin)):
        from ..zariski import cone_geometry

        at = f"{origin}: geometries[{i}]"
        _need(geom, ("id", "eff", "mov", "objective"), at)
        _need(geom["objective"], ("coords",), f"{at} objective")
        geometry_id = _fresh_id(fixture.geometries, geom["id"], "geometry", at)
        eff = fixture.cone(geom["eff"])
        what = f"geometry {geometry_id!r} objective"
        objective = ClassVector(eff.dual, _row(geom["objective"]["coords"], what))
        fixture.geometries[geometry_id] = cone_geometry(
            f"{fixture.name}:{geometry_id}", fixture.cone(geom["mov"]), eff, objective
        )

    profiles = _part(raw, "profiles", dict, origin)
    profiles = _part(profiles, "entries", dict, f"{origin}: profiles")
    for profile_name, text in profiles.items():
        from ..projbundle import HNProfile

        fixture.profiles[profile_name] = HNProfile.parse(text)

    for i, c in enumerate(_part(raw, "claims", list, origin)):
        at = f"{origin}: claims[{i}]"
        _need(c, ("id", "check", "expect"), at)
        claim_id = _fresh_id({claim.id for claim in fixture.claims}, c["id"], "claim", at)
        check, expect = (_text(c[k], f"{at} {k}") for k in ("check", "expect"))
        if expect not in ("pass", "fail", "flagged"):
            raise InputError(f'{at} expect must be "pass", "fail" or "flagged", got {expect!r}')
        args = _part(c, "args", dict, at)
        args = {key: value for key, value in args.items() if not _is_source_key(key)}
        fixture.claims += (Claim(claim_id, check, expect, args),)
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
    """Check every claim's argument keys, then read its arguments and run its check.

    A check declares its arguments as keyword-only parameters, required
    unless they have a default, and each annotation says how its argument is
    read (see ``_ENTRIES`` and ``_JSON``); ``source`` keys are lint
    annotations.  An unknown check or an unknown or missing argument raises
    before any check runs; an argument that does not read as declared, and
    an ``InputError`` from a check, raise too, each naming the claim.  A
    ``DomainError`` is a ``fail``; any other exception is a program fault and
    propagates.
    """
    from . import checks

    runners = []
    for claim in fixture.claims:
        at = f"fixture {fixture.name}: claim {claim.id!r}"
        runner = checks.CHECKS.get(claim.check)
        if runner is None:
            raise InputError(f"{at}: unknown check {claim.check!r}")
        params = inspect.signature(runner).parameters
        declared = {n for n, p in params.items() if p.kind is p.KEYWORD_ONLY}
        required = {n for n in declared if params[n].default is params[n].empty}
        given = claim.args.keys()
        for problem, keys in (("unknown", given - declared), ("missing", required - given)):
            if keys:
                raise InputError(f"{at}: {problem} argument {min(keys)!r}")
        runners.append((runner, params))
    results = []
    for claim, (runner, params) in zip(fixture.claims, runners):
        try:
            args = {k: _argument(fixture, params[k], v) for k, v in claim.args.items()}
            status, witness = runner(fixture, **args)
        except InputError as exc:  # name the claim whose data is malformed
            raise InputError(
                f"fixture {fixture.name}: claim {claim.id!r}: {exc.message}", **exc.details
            ) from exc
        except DomainError as exc:
            status, witness = "fail", {"error": f"DomainError: {exc}"}
        results.append(
            ClaimResult(claim.id, claim.check, status, claim.expect, witness)
        )
    return ClaimReport(fixture.name, tuple(results))

"""Claim checkers: each re-derives one recorded fact from raw fixture data.

``check_<kind>(fixture, *, ...)`` declares a claim's arguments as its
keyword-only parameters, required unless they have a default, and
receives each one as its annotation declares: the fixture entry of that
name (``PolyCone``, ``ClassVector``, ``ConeGeometry``, ``HNProfile``,
``RingElement``, ``DualClass``, ``Claim``, or a ``list[...]`` of them) or
checked JSON (``Row``, ``list[Row]``, ``str``, ``list[str]``, ``int``,
``dict``, ``list``); a flag is unannotated.  A checker reads only the data
nested inside its arguments, and decides with the library's verifiers, not
copies of them (``PolyCone.check_space``, ``linalg.reproduces``, ``separates``,
``ClassVector`` equality).  It returns ``(status, witness)`` with status
"pass", "fail", or "flagged"; the claim catalog says which status is
expected, so a suite can stay green while a data discrepancy stays visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import projbundle
from ..cones import PolyCone, contains, dd_convert, dual_cone, extremal_rays
from ..errors import InputError
from ..jsonio import _dim, _names, _need, _rows, _text
from ..linalg import combine, dot, mat_rank, reproduces, separates
from ..projbundle import (
    HNProfile,
    class_basis,
    cone_coincidence,
    cones_at,
    degree_functional,
    pair_classes,
    zariski_decompose,
)
from ..rationals import rat, rat_str
from ..vectors import ClassVector
from ..zariski import (
    ConeGeometry,
    cone_geometry,
    decompose,
    decomposition_polytope,
    dominator_set,
    dominator_set_empty,
    preceq_maximum,
    verify_decomposition,
)
from . import Claim, _element

if TYPE_CHECKING:
    from ..rings import DualClass, RingElement
    Row = tuple  # exact rationals, as jsonio._row reads a JSON list


def _rays_set(vectors):
    return sorted(tuple(rat_str(c) for c in v.primitive().coords) for v in vectors)


def _combination(lookup, coefficients):
    """sum c * lookup(name) over the ``{name: c}`` mapping, which must be nonempty."""
    if not coefficients:
        raise InputError("combination must name at least one class")
    parts = [lookup(name).scale(c) for name, c in coefficients.items()]
    return sum(parts[1:], parts[0])


def _same_rays(cone: PolyCone, target: PolyCone):
    got = _rays_set(extremal_rays(cone))
    want = _rays_set(extremal_rays(target))
    return ("pass" if got == want else "fail"), {"computed": got, "expected": want}


def _rows_cut_out(rows, dim: int, target: PolyCone):
    """``_same_rays`` of the cone where the functionals ``rows`` are >= 0."""
    cone = PolyCone.from_inequalities(target.basis, rows, dim=dim, dual=target.dual)
    return _same_rays(cone, target)


def check_dual_cone_equals(fixture, *, cone: PolyCone, equals_generators_of: PolyCone):
    return _same_rays(dual_cone(cone), equals_generators_of)


def check_extremal_rays_equal(fixture, *, cone: PolyCone, rays: list[Row]):
    listed = PolyCone.from_generators(cone.basis, rays, dim=cone.dim, dual=cone.dual)
    got = _rays_set(extremal_rays(cone))
    want = _rays_set(listed.generators)
    status = "pass" if got == want else "fail"
    return status, {"computed": got, "expected": want}


def check_interior_point(fixture, *, cone: PolyCone, vector: ClassVector):
    cone.check_space(vector)
    values = [dot(l.coords, vector.coords) for l in dd_convert(cone).inequalities]
    status = "pass" if all(v > 0 for v in values) else "fail"
    return status, {"facet_values": [rat_str(v) for v in values]}


def check_combination_reproduces(fixture, *, cone: PolyCone, vector: ClassVector,
                                 coefficients: Row):
    cone.check_space(vector)
    rows = cone.generator_rows()
    if len(coefficients) != len(rows):
        raise InputError(f"coefficients must have {len(rows)} entries, one per listed generator")
    status = "pass" if reproduces(coefficients, rows, vector.coords) else "fail"
    return status, {"reconstructed": [rat_str(v) for v in combine(coefficients, rows, cone.dim)]}


def check_separating_functional(fixture, *, cone: PolyCone, vector: ClassVector,
                                functional: Row):
    if len(functional) != cone.dim:
        raise InputError(f"functional must have {cone.dim} entries, one per coordinate")
    verdict = contains(cone, vector)
    rows = cone.generator_rows()
    separated = separates(functional, rows, vector.coords)
    status = "pass" if separated and not verdict and verdict.verify() else "fail"
    return status, {
        "functional_on_generators": [rat_str(dot(functional, g)) for g in rows],
        "functional_at_vector": rat_str(dot(functional, vector.coords)),
        "membership": bool(verdict),
    }


def check_difference_equals(fixture, *, basis: str, minuend: ClassVector,
                            subtrahend: ClassVector, equals: ClassVector):
    if {minuend.basis, subtrahend.basis, equals.basis} != {basis}:
        raise InputError(f"minuend, subtrahend and equals must be classes of basis {basis!r}")
    diff = minuend - subtrahend
    status = "pass" if diff.coords == equals.coords else "fail"
    return status, {"difference": [rat_str(c) for c in diff.coords]}


def check_no_preceq_maximum(fixture, *, geometry: ConeGeometry, vector: ClassVector,
                            pair_without_dominator: list[ClassVector] = None):
    if pair_without_dominator is not None:
        if len(pair_without_dominator) != 2:
            raise InputError("pair_without_dominator must name two classes")
        for v in pair_without_dominator:
            geometry.eff.check_space(v)
    polytope = decomposition_polytope(geometry, vector)
    report = preceq_maximum(geometry, polytope)
    verified = report.verify()
    if report.status != "no-maximum" or not verified:
        return "fail", {"status": report.status, "verified": verified}
    witness = {
        "status": report.status,
        "witness_pair": [
            [rat_str(c) for c in v.coords] for v in report.witness_pair
        ],
        "pair_dominator_set_empty": report.pair_dominator_set_empty,
        "vertex_count": len(polytope.vertices),
    }
    if pair_without_dominator is not None:
        u, w = pair_without_dominator
        in_polytope = u in polytope.vertices and w in polytope.vertices
        empty, certificate = dominator_set_empty(geometry, polytope, u, w)
        witness["named_pair_in_polytope"] = in_polytope
        witness["named_pair_dominator_set_empty"] = empty
        certified = dominator_set(geometry.eff, polytope, u, w).certifies(empty, certificate)
        if not (in_polytope and empty and certified):
            return "fail", witness
    return "pass", witness


def check_cone_contained(fixture, *, inner: PolyCone, outer: PolyCone):
    outer = dd_convert(outer)
    verdicts = [contains(outer, g) for g in inner.generators]
    status = "pass" if all(bool(v) and v.verify() for v in verdicts) else "fail"
    return status, {"generators_checked": len(verdicts)}


def check_ring_audit(fixture, *, required_finding: dict = None):
    fixture.ring  # an input error when the fixture has no ring
    report = fixture.audit
    witness = {
        "confluence_products_checked": report.confluence_products_checked,
        "gram_matrices": report.gram_matrices,
        "findings": [
            {"kind": f.kind, **f.detail} for f in report.findings
        ],
    }
    if required_finding is not None:
        _need(required_finding, ("kind", "values"), "required_finding")
        kind = _text(required_finding["kind"], "required_finding kind")
        values = sorted(_names(required_finding["values"], "required_finding values"))
        hits = [
            f
            for f in report.findings_of_kind(kind)
            if sorted(f.detail.get("values", [])) == values
        ]
        return ("flagged" if hits else "fail"), witness
    return ("pass" if report.clean else "flagged"), witness


def check_top_values_equal(fixture, *, values: dict):
    ring = fixture.ring
    computed = {}
    ok = True
    for text, expected in values.items():
        element = ring.element(ring.top_degree, {text: 1})
        value = ring.top_value(element)
        computed[text] = rat_str(value)
        ok = ok and value == rat(expected)
    return ("pass" if ok else "fail"), {"computed": computed}


def check_intersection_table_equals(fixture, *, elements: list[RingElement], table: list[Row]):
    ring = fixture.ring
    computed = [[ring.pair(a, b) for b in elements] for a in elements]
    want = [list(row) for row in table]
    status = "pass" if computed == want else "fail"
    return status, {"computed": [[rat_str(x) for x in row] for row in computed]}


def check_product_equals(fixture, *, factors: list[RingElement], combination: dict):
    ring = fixture.ring
    product = ring.one()
    for factor in factors:
        product = ring.multiply(product, factor)
    target = _combination(fixture.element, combination)
    status = "pass" if product.terms == target.terms else "fail"
    return status, {"product": repr(product), "target": repr(target)}


def check_surface_times_d2_identity(fixture):
    ring = fixture.ring
    s1, s2, s3 = (fixture.element(n) for n in ("S1", "S2", "S3"))
    c1, c2 = fixture.element("C1"), fixture.element("C2")
    d2 = fixture.element("D2")
    ok = True
    for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        lhs = ring.multiply(s1.scale(a) + s2.scale(b) + s3.scale(c), d2)
        rhs = c1.scale(b + 2 * c) + c2.scale(a + b)
        ok = ok and lhs.terms == rhs.terms
    return ("pass" if ok else "fail"), {"unit_vectors_checked": 3}


def check_named_element_equals(fixture, *, name: RingElement, terms: dict):
    want = fixture.ring.element(name.degree, terms)
    status = "pass" if name.terms == want.terms else "fail"
    return status, {"element": repr(name)}


def check_element_combination_equals(fixture, *, target: RingElement, combination: dict):
    combo = _combination(fixture.element, combination)
    status = "pass" if target.terms == combo.terms else "fail"
    return status, {"target": repr(target), "combination": repr(combo)}


def check_facet_present(fixture, *, cone: PolyCone, facet: Row):
    cone = dd_convert(cone)
    present = ClassVector(cone.dual, facet).primitive() in cone.inequalities
    return ("pass" if present else "fail"), {
        "facets": [[rat_str(c) for c in l.coords] for l in cone.inequalities]
    }


def check_pairing_dual_cone_equals(fixture, *, eff_divisors: list[RingElement],
                                   curve_basis_elements: list[RingElement],
                                   equals_generators_of: PolyCone):
    """Cone of classes pairing >= 0 with given divisors, via the ring."""
    ring = fixture.ring
    rows = [
        [ring.top_value(ring.multiply(c, d)) for c in curve_basis_elements]
        for d in eff_divisors
    ]
    return _rows_cut_out(rows, len(curve_basis_elements), equals_generators_of)


def check_gram_dual_cone_equals(fixture, *, table_claim: Claim, eff_elements: list[str],
                                equals_generators_of: PolyCone):
    at = f"table_claim {table_claim.id!r}"
    if table_claim.check != "intersection_table_equals":
        raise InputError(f"{at} is a {table_claim.check} claim, not intersection_table_equals")
    names = _names(table_claim.args["elements"], f"{at} elements")
    table = _rows(table_claim.args["table"], f"{at} table")
    if [len(row) for row in table] != [len(names)] * len(names):
        raise InputError(f"{at} table is not {len(names)} by {len(names)}")
    for name in eff_elements:
        if name not in names:
            raise InputError(f"eff_elements: {name!r} is not an element of {at}")
    indices = [names.index(n) for n in eff_elements]
    rows = [[table[i][j] for j in indices] for i in indices]
    return _rows_cut_out(rows, len(indices), equals_generators_of)


def check_decompose_equals(fixture, *, geometry: ConeGeometry, vector: Row, positive: Row,
                           negative: Row, expect_maximum=False):
    result = decompose(geometry, ClassVector(geometry.basis, vector))
    ok = (
        result.positive.coords == positive
        and result.negative.coords == negative
        and verify_decomposition(geometry, result)
    )
    if expect_maximum:
        ok = ok and result.metadata["positive_part_status"] == (
            "certified-preceq-maximum"
        )
    return ("pass" if ok else "fail"), {
        "positive": [rat_str(c) for c in result.positive.coords],
        "negative": [rat_str(c) for c in result.negative.coords],
        "status": result.metadata["positive_part_status"],
    }


def check_objective_matches_pairing(fixture, *, geometry: ConeGeometry, pair_with: dict,
                                    pair_degree: int, basis_elements: list[RingElement]):
    ring = fixture.ring
    divisor = ring.element(1, pair_with)
    weight = ring.one()
    for _ in range(pair_degree):
        weight = ring.multiply(weight, divisor)
    recomputed = tuple(
        ring.top_value(ring.multiply(weight, element)) for element in basis_elements
    )
    want = geometry.degree_functional.coords
    status = "pass" if recomputed == want else "fail"
    return status, {"recomputed": [rat_str(v) for v in recomputed]}


def check_dual_class_combination(fixture, *, target: DualClass, combination: dict):
    combo = _combination(fixture.dual, combination)
    status = "pass" if combo.coords == target.coords else "fail"
    return status, {
        "combination": [rat_str(c) for c in combo.coords],
        "target": [rat_str(c) for c in target.coords],
    }


def check_pairings_equal(fixture, *, element: dict, pairings: dict = None,
                         difference_pairings: list = ()):
    if not (pairings or difference_pairings):
        raise InputError("pairings_equal needs pairings or difference_pairings")
    ring = fixture.ring
    element = _element(ring, element, "element")
    computed = {}
    ok = True
    for name, expected in (pairings or {}).items():
        value = ring.pair(element, fixture.dual(name))
        computed[name] = rat_str(value)
        ok = ok and value == rat(expected)
    for i, entry in enumerate(difference_pairings):
        _need(entry, ("minuend", "subtrahend", "value"), f"difference_pairings[{i}]")
        value = ring.pair(
            element, fixture.dual(entry["minuend"]) - fixture.dual(entry["subtrahend"])
        )
        computed[f"{entry['minuend']}-{entry['subtrahend']}"] = rat_str(value)
        ok = ok and value == rat(entry["value"])
    return ("pass" if ok else "fail"), {"pairings": computed}


def check_printed_gamma_identity(fixture, *, nef_square: dict, scale, correction: dict,
                                 target: DualClass):
    ring = fixture.ring
    square = _element(ring, nef_square, "nef_square")
    _need(correction, ("class", "scale"), "correction")
    lhs = ring.cap_image_from_relations(square).scale(scale)
    lhs = lhs + fixture.dual(correction["class"]).scale(correction["scale"])
    witness = {
        "identity_lhs": [rat_str(c) for c in lhs.coords],
        "target": [rat_str(c) for c in target.coords],
    }
    return ("pass" if lhs.coords == target.coords else "flagged"), witness


def check_linearly_independent(fixture, *, vectors: list[ClassVector]):
    if len({v.basis for v in vectors}) > 1:
        raise InputError("vectors must be classes of one basis")
    rows = [v.coords for v in vectors]
    rank = mat_rank(rows)
    status = "pass" if rank == len(rows) else "fail"
    return status, {"rank": rank, "count": len(rows)}


def check_epsilon_table(fixture, *, profile: HNProfile, epsilon: list[str]):
    computed = [rat_str(projbundle.epsilon(profile, k)) for k in range(profile.rank + 1)]
    status = "pass" if computed == epsilon else "fail"
    return status, {"computed": computed}


def check_nu_sigma_values(fixture, *, profile: HNProfile, nu: dict, sigma: dict):
    ok = True
    computed = {"nu": {}, "sigma": {}}
    tables = (("nu", nu, projbundle.nu), ("sigma", sigma, projbundle.sigma))
    for kind, table, constant in tables:
        for k_text, expected in table.items():
            value = constant(profile, _dim(rat(k_text), f"{kind} key {k_text!r}"))
            computed[kind][k_text] = rat_str(value)
            ok = ok and value == rat(expected)
    return ("pass" if ok else "fail"), computed


def check_class_in_mov_not_nef(fixture, *, profile: HNProfile, k: int, vector: Row):
    _, nef, mov = cones_at(profile, k)
    vector = ClassVector(class_basis(profile, k), vector)
    in_mov = contains(mov, vector)
    in_nef = contains(nef, vector)
    ok = (
        bool(in_mov)
        and in_mov.verify()
        and not in_nef
        and in_nef.verify()
    )
    return ("pass" if ok else "fail"), {
        "in_movable": bool(in_mov),
        "in_nef": bool(in_nef),
        "nef_separating_functional": (
            [rat_str(c) for c in in_nef.separating.coords] if in_nef.separating else None
        ),
    }


def check_self_pairing_value(fixture, *, profile: HNProfile, k: int, vector: Row, value):
    classes = (ClassVector(class_basis(profile, j), vector) for j in (k, profile.rank - k))
    pairing = pair_classes(profile, k, *classes)
    status = "pass" if pairing == rat(value) else "fail"
    return status, {"value": rat_str(pairing)}


def check_closed_form_decomposition(fixture, *, profile: HNProfile, k: int, vector: Row,
                                    positive: Row, negative: Row, cross_check_lp=False):
    alpha = ClassVector(class_basis(profile, k), vector)
    result = zariski_decompose(profile, k, alpha)
    ok = result.positive.coords == positive and result.negative.coords == negative
    witness = {
        "positive": [rat_str(c) for c in result.positive.coords],
        "negative": [rat_str(c) for c in result.negative.coords],
    }
    if cross_check_lp:
        eff, _, mov = cones_at(profile, k)
        geometry = cone_geometry(
            f"{fixture.name}:{profile.text()}:k={k}",
            mov,
            eff,
            degree_functional(profile, k),
        )
        lp = decompose(geometry, alpha)
        agrees = (
            lp.positive.coords == result.positive.coords
            and lp.negative.coords == result.negative.coords
            and lp.metadata["positive_part_status"] == "certified-preceq-maximum"
        )
        witness["lp_agrees"] = agrees
        ok = ok and agrees
    return ("pass" if ok else "fail"), witness


def check_coincidence_flags(fixture, *, cases: list):
    ok = True
    witness = []
    for i, case in enumerate(cases):
        _need(case, ("profile", "k", "mov_eq_eff", "nef_eq_eff"), f"cases[{i}]")
        profile = fixture.profile(case["profile"])
        k = _dim(case["k"], f"cases[{i}] k")
        mov_eq, nef_eq = cone_coincidence(profile, k)
        ok = ok and mov_eq == case["mov_eq_eff"] and nef_eq == case["nef_eq_eff"]
        witness.append(
            {
                "profile": profile.text(),
                "k": k,
                "mov_eq_eff": mov_eq,
                "nef_eq_eff": nef_eq,
            }
        )
    return ("pass" if ok else "fail"), {"cases": witness}


# claim kind -> checker: every ``check_<kind>`` above
CHECKS = {
    name[len("check_"):]: fn for name, fn in list(globals().items())
    if name.startswith("check_")
}

"""Claim checkers: each re-derives one recorded fact from raw fixture data.

Checkers return ``(status, witness)`` with status "pass", "fail", or
"flagged"; the claim catalog says which status is expected, so a suite can
stay green while a data discrepancy stays visible.
"""

from __future__ import annotations

from ..cones import PolyCone, contains, dd_convert, dual_cone, extremal_rays
from ..jsonio import _row
from ..linalg import combine, dot, mat_rank
from ..projbundle import (
    HNProfile,
    class_basis,
    cone_coincidence,
    cones_at,
    degree_functional,
    epsilon,
    nu,
    pair_classes,
    sigma,
    zariski_decompose,
)
from ..rationals import rat, rat_str
from ..vectors import ClassVector
from ..zariski import (
    cone_geometry,
    decompose,
    decomposition_polytope,
    dominator_set_empty,
    pair_certified,
    preceq_maximum,
    verify_decomposition,
)


def _rays_set(vectors):
    return sorted(tuple(rat_str(c) for c in v.primitive().coords) for v in vectors)


def _combination(lookup, coefficients):
    """sum c * lookup(name) over the ``{name: c}`` mapping (nonempty)."""
    parts = [lookup(name).scale(c) for name, c in coefficients.items()]
    return sum(parts[1:], parts[0])


def _same_rays(cone: PolyCone, target: PolyCone):
    got = _rays_set(extremal_rays(dd_convert(cone)))
    want = _rays_set(extremal_rays(dd_convert(target)))
    return ("pass" if got == want else "fail"), {"computed": got, "expected": want}


def check_dual_cone_equals(fixture, args):
    source = fixture.cone(args["cone"])
    return _same_rays(dual_cone(source), fixture.cone(args["equals_generators_of"]))


def check_extremal_rays_equal(fixture, args):
    got = _rays_set(extremal_rays(dd_convert(fixture.cone(args["cone"]))))
    want = sorted(tuple(rat_str(rat(x)) for x in row) for row in args["rays"])
    status = "pass" if got == want else "fail"
    return status, {"computed": got, "expected": want}


def check_interior_point(fixture, args):
    cone = dd_convert(fixture.cone(args["cone"]))
    vector = fixture.vector(args["vector"])
    values = [dot(l.coords, vector.coords) for l in cone.inequalities]
    status = "pass" if all(v > 0 for v in values) else "fail"
    return status, {"facet_values": [rat_str(v) for v in values]}


def check_combination_reproduces(fixture, args):
    cone = fixture.cone(args["cone"])
    vector = fixture.vector(args["vector"])
    coefficients = _row(args["coefficients"], "coefficients")
    gens = cone.generators
    if len(coefficients) != len(gens) or any(c < 0 for c in coefficients):
        return "fail", {"error": "coefficient list does not match the generators"}
    total = combine(coefficients, cone.generator_rows(), vector.dim)
    status = "pass" if total == vector.coords else "fail"
    return status, {"reconstructed": [rat_str(v) for v in total]}


def check_separating_functional(fixture, args):
    cone = fixture.cone(args["cone"])
    vector = fixture.vector(args["vector"])
    functional = _row(args["functional"], "functional")
    on_generators = [dot(functional, g.coords) for g in cone.generators]
    at_vector = dot(functional, vector.coords)
    separates = all(v >= 0 for v in on_generators) and at_vector < 0
    verdict = contains(cone, vector)
    status = "pass" if separates and not verdict and verdict.verify() else "fail"
    return status, {
        "functional_on_generators": [rat_str(v) for v in on_generators],
        "functional_at_vector": rat_str(at_vector),
        "membership": bool(verdict),
    }


def check_difference_equals(fixture, args):
    basis = args["basis"]
    diff = fixture.vector_in(basis, args["minuend"]) - fixture.vector_in(
        basis, args["subtrahend"]
    )
    want = fixture.vector_in(basis, args["equals"])
    status = "pass" if diff.coords == want.coords else "fail"
    return status, {"difference": [rat_str(c) for c in diff.coords]}


def check_no_preceq_maximum(fixture, args):
    geometry = fixture.geometry(args["geometry"])
    alpha = fixture.vector(args["vector"])
    polytope = decomposition_polytope(geometry, alpha)
    report = preceq_maximum(geometry, polytope)
    if report.status != "no-maximum" or not report.verify():
        return "fail", {"status": report.status, "verified": report.verify()}
    witness = {
        "status": report.status,
        "witness_pair": [
            [rat_str(c) for c in v.coords] for v in report.witness_pair
        ],
        "pair_dominator_set_empty": report.pair_dominator_set_empty,
        "vertex_count": len(polytope.vertices),
    }
    pair = args.get("pair_without_dominator")
    if pair is not None:
        u, w = (fixture.vector(n) for n in pair)
        vertex_coords = {v.coords for v in polytope.vertices}
        in_polytope = u.coords in vertex_coords and w.coords in vertex_coords
        empty, certificate = dominator_set_empty(geometry, polytope, u, w)
        witness["named_pair_in_polytope"] = in_polytope
        witness["named_pair_dominator_set_empty"] = empty
        certified = pair_certified(geometry.eff, polytope, u, w, empty, certificate)
        if not (in_polytope and empty and certified):
            return "fail", witness
    return "pass", witness


def check_cone_contained(fixture, args):
    inner = fixture.cone(args["inner"])
    outer = dd_convert(fixture.cone(args["outer"]))
    verdicts = [contains(outer, g) for g in inner.generators]
    status = "pass" if all(bool(v) and v.verify() for v in verdicts) else "fail"
    return status, {"generators_checked": len(verdicts)}


def check_ring_audit(fixture, args):
    report = fixture.audit
    if report is None:
        return "fail", {"error": "fixture has no ring"}
    witness = {
        "confluence_products_checked": report.confluence_products_checked,
        "gram_matrices": report.gram_matrices,
        "findings": [
            {"kind": f.kind, **f.detail} for f in report.findings
        ],
    }
    required = args.get("required_finding")
    if required is not None:
        hits = [
            f
            for f in report.findings_of_kind(required["kind"])
            if sorted(f.detail.get("values", [])) == sorted(required["values"])
        ]
        return ("flagged" if hits else "fail"), witness
    return ("pass" if report.clean else "flagged"), witness


def check_top_values_equal(fixture, args):
    ring = fixture.ring
    computed = {}
    ok = True
    for text, expected in args["values"].items():
        element = ring.element(ring.top_degree, {text: 1})
        value = ring.top_value(element)
        computed[text] = rat_str(value)
        ok = ok and value == rat(expected)
    return ("pass" if ok else "fail"), {"computed": computed}


def check_intersection_table_equals(fixture, args):
    ring = fixture.ring
    elements = [fixture.element(name) for name in args["elements"]]
    table = [[ring.pair(a, b) for b in elements] for a in elements]
    want = [[rat(x) for x in row] for row in args["table"]]
    status = "pass" if table == want else "fail"
    return status, {
        "computed": [[rat_str(x) for x in row] for row in table]
    }


def check_product_equals(fixture, args):
    ring = fixture.ring
    product = ring.one()
    for name in args["factors"]:
        product = ring.multiply(product, fixture.element(name))
    target = _combination(fixture.element, args["combination"])
    status = "pass" if product.terms == target.terms else "fail"
    return status, {"product": repr(product), "target": repr(target)}


def check_surface_times_d2_identity(fixture, args):
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


def check_named_element_equals(fixture, args):
    element = fixture.element(args["name"])
    want = fixture.ring.element(element.degree, args["terms"])
    status = "pass" if element.terms == want.terms else "fail"
    return status, {"element": repr(element)}


def check_element_combination_equals(fixture, args):
    target = fixture.element(args["target"])
    combo = _combination(fixture.element, args["combination"])
    status = "pass" if target.terms == combo.terms else "fail"
    return status, {"target": repr(target), "combination": repr(combo)}


def check_facet_present(fixture, args):
    cone = dd_convert(fixture.cone(args["cone"]))
    facet = ClassVector(
        cone.inequalities[0].basis, _row(args["facet"], "facet")
    ).primitive()
    present = any(l.coords == facet.coords for l in cone.inequalities)
    return ("pass" if present else "fail"), {
        "facets": [[rat_str(c) for c in l.coords] for l in cone.inequalities]
    }


def check_pairing_dual_cone_equals(fixture, args):
    """Cone of classes pairing >= 0 with given divisors, via the ring."""
    ring = fixture.ring
    divisors = [fixture.element(name) for name in args["eff_divisors"]]
    curve_elements = [fixture.element(name) for name in args["curve_basis_elements"]]
    rows = [
        [ring.top_value(ring.multiply(c, d)) for c in curve_elements]
        for d in divisors
    ]
    target = fixture.cone(args["equals_generators_of"])
    cone = PolyCone.from_inequalities(
        target.basis, rows, dim=len(curve_elements), dual=target.dual
    )
    return _same_rays(cone, target)


def check_gram_dual_cone_equals(fixture, args):
    table_args = fixture.claim(args["table_claim"]).args
    names = table_args["elements"]
    table = [[rat(x) for x in row] for row in table_args["table"]]
    indices = [names.index(n) for n in args["eff_elements"]]
    target = fixture.cone(args["equals_generators_of"])
    rows = [[table[i][j] for j in indices] for i in indices]
    cone = PolyCone.from_inequalities(
        target.basis, rows, dim=len(indices), dual=target.dual
    )
    return _same_rays(cone, target)


def check_decompose_equals(fixture, args):
    geometry = fixture.geometry(args["geometry"])
    alpha = ClassVector(geometry.basis, _row(args["vector"], "vector"))
    result = decompose(geometry, alpha)
    ok = (
        result.positive.coords == _row(args["positive"], "positive")
        and result.negative.coords == _row(args["negative"], "negative")
        and verify_decomposition(geometry, result)
    )
    if args.get("expect_maximum"):
        ok = ok and result.metadata["positive_part_status"] == (
            "certified-preceq-maximum"
        )
    return ("pass" if ok else "fail"), {
        "positive": [rat_str(c) for c in result.positive.coords],
        "negative": [rat_str(c) for c in result.negative.coords],
        "status": result.metadata["positive_part_status"],
    }


def check_objective_matches_pairing(fixture, args):
    ring = fixture.ring
    geometry = fixture.geometry(args["geometry"])
    divisor = ring.element(1, args["pair_with"])
    weight = ring.one()
    for _ in range(args["pair_degree"]):
        weight = ring.multiply(weight, divisor)
    recomputed = tuple(
        ring.top_value(ring.multiply(weight, fixture.element(name)))
        for name in args["basis_elements"]
    )
    want = geometry.degree_functional.coords
    status = "pass" if recomputed == want else "fail"
    return status, {"recomputed": [rat_str(v) for v in recomputed]}


def check_dual_class_combination(fixture, args):
    target = fixture.dual(args["target"])
    combo = _combination(fixture.dual, args["combination"])
    status = "pass" if combo.coords == target.coords else "fail"
    return status, {
        "combination": [rat_str(c) for c in combo.coords],
        "target": [rat_str(c) for c in target.coords],
    }


def check_pairings_equal(fixture, args):
    ring = fixture.ring
    element = ring.element(args["element"]["degree"], args["element"]["terms"])
    computed = {}
    ok = True
    for name, expected in args.get("pairings", {}).items():
        value = ring.pair(element, fixture.dual(name))
        computed[name] = rat_str(value)
        ok = ok and value == rat(expected)
    for entry in args.get("difference_pairings", []):
        value = ring.pair(
            element, fixture.dual(entry["minuend"]) - fixture.dual(entry["subtrahend"])
        )
        computed[f"{entry['minuend']}-{entry['subtrahend']}"] = rat_str(value)
        ok = ok and value == rat(entry["value"])
    return ("pass" if ok else "fail"), {"pairings": computed}


def check_printed_gamma_identity(fixture, args):
    ring = fixture.ring
    square = ring.element(args["nef_square"]["degree"], args["nef_square"]["terms"])
    lhs = ring.cap_image_from_relations(square).scale(args["scale"])
    correction = fixture.dual(args["correction"]["class"]).scale(
        args["correction"]["scale"]
    )
    lhs = lhs + correction
    target = fixture.dual(args["target"])
    witness = {
        "identity_lhs": [rat_str(c) for c in lhs.coords],
        "target": [rat_str(c) for c in target.coords],
    }
    return ("pass" if lhs.coords == target.coords else "flagged"), witness


def check_linearly_independent(fixture, args):
    rows = [fixture.vector(name).coords for name in args["vectors"]]
    rank = mat_rank(rows)
    status = "pass" if rank == len(rows) else "fail"
    return status, {"rank": rank, "count": len(rows)}


def _profile(fixture, args) -> HNProfile:
    return fixture.profile(args["profile"])


def check_epsilon_table(fixture, args):
    profile = _profile(fixture, args)
    computed = [rat_str(epsilon(profile, k)) for k in range(profile.rank + 1)]
    status = "pass" if computed == args["epsilon"] else "fail"
    return status, {"computed": computed}


def check_nu_sigma_values(fixture, args):
    profile = _profile(fixture, args)
    ok = True
    computed = {"nu": {}, "sigma": {}}
    for k_text, expected in args["nu"].items():
        value = nu(profile, int(k_text))
        computed["nu"][k_text] = rat_str(value)
        ok = ok and value == rat(expected)
    for k_text, expected in args["sigma"].items():
        value = sigma(profile, int(k_text))
        computed["sigma"][k_text] = rat_str(value)
        ok = ok and value == rat(expected)
    return ("pass" if ok else "fail"), computed


def check_class_in_mov_not_nef(fixture, args):
    profile = _profile(fixture, args)
    k = args["k"]
    _, nef, mov = cones_at(profile, k)
    vector = ClassVector(class_basis(profile, k), _row(args["vector"], "vector"))
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


def check_self_pairing_value(fixture, args):
    profile = _profile(fixture, args)
    k = args["k"]
    vector = ClassVector(class_basis(profile, k), _row(args["vector"], "vector"))
    other = ClassVector(
        class_basis(profile, profile.rank - k), _row(args["vector"], "vector")
    )
    value = pair_classes(profile, k, vector, other)
    status = "pass" if value == rat(args["value"]) else "fail"
    return status, {"value": rat_str(value)}


def check_closed_form_decomposition(fixture, args):
    profile = _profile(fixture, args)
    k = args["k"]
    basis = class_basis(profile, k)
    alpha = ClassVector(basis, _row(args["vector"], "vector"))
    result = zariski_decompose(profile, k, alpha)
    ok = result.positive.coords == _row(args["positive"], "positive")
    ok = ok and result.negative.coords == _row(args["negative"], "negative")
    witness = {
        "positive": [rat_str(c) for c in result.positive.coords],
        "negative": [rat_str(c) for c in result.negative.coords],
    }
    if args.get("cross_check_lp"):
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


def check_coincidence_flags(fixture, args):
    ok = True
    witness = []
    for case in args["cases"]:
        profile = fixture.profile(case["profile"])
        mov_eq, nef_eq = cone_coincidence(profile, case["k"])
        ok = ok and mov_eq == case["mov_eq_eff"] and nef_eq == case["nef_eq_eff"]
        witness.append(
            {
                "profile": profile.text(),
                "k": case["k"],
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

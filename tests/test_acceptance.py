"""Acceptance gate: one test per criterion, every check exact (tolerance 0).

Each criterion prints a single PASS line once all of its assertions hold;
run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
"""

import random
import time
from fractions import Fraction

import pytest

from cyclecones.cones import (
    contains,
    dd_convert,
    dual_cone,
    extremal_rays,
)
from cyclecones.errors import DomainError
from cyclecones.fixtures import load, verify_claims
from cyclecones.negdef import PairingBasis, brute_force, decompose as bck_decompose
from cyclecones.negdef import verify as bck_verify
from cyclecones.projbundle import (
    class_basis,
    cones_at,
    degree_functional,
    epsilon,
    nu,
    pair_classes,
    sigma,
    zariski_decompose,
)
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (
    cone_geometry,
    decompose,
    decomposition_polytope,
    preceq_maximum,
    validate_objective,
    verify_decomposition,
)

from conftest import cones_equal, random_profile

F = Fraction


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def rays(cone) -> set:
    return {v.coords for v in extremal_rays(dd_convert(cone))}


def test_criterion_1_toric_duality():
    fixture = load("toric-3fold")
    nef = fixture.cone("nef-divisors")
    eff_div = fixture.cone("eff-divisors")
    expected_curves = {v.coords for v in fixture.cone("eff-curves").generators}
    expected_movable = {v.coords for v in fixture.cone("mov-curves").generators}
    assert rays(dual_cone(nef)) == expected_curves
    assert rays(dual_cone(eff_div)) == expected_movable
    report(
        "1",
        "dual of the nef divisor cone is exactly {C1..C5}; dual of the "
        "effective divisor cone is exactly {M1..M6}",
    )


def test_criterion_2_non_directedness_certificate():
    fixture = load("toric-3fold")
    geometry = fixture.geometry("curves")
    alpha = fixture.vector("alpha")
    m1, m2 = fixture.vector("M1"), fixture.vector("M2")
    c1, c2 = fixture.vector("C1"), fixture.vector("C2")

    start = time.monotonic()
    polytope = decomposition_polytope(geometry, alpha)
    directedness = preceq_maximum(geometry, polytope)
    elapsed = time.monotonic() - start

    vertex_coords = {v.coords for v in polytope.vertices}
    assert m1.coords in vertex_coords and m2.coords in vertex_coords
    assert (alpha - m1).coords == c2.coords
    assert (alpha - m2).coords == c1.coords
    assert contains(geometry.eff, alpha - m1).verify()
    assert contains(geometry.eff, alpha - m2).verify()
    assert directedness.status == "no-maximum"
    assert directedness.verify()
    assert directedness.pair_dominator_set_empty is True
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(
        "2",
        "alpha - M1 = C2 and alpha - M2 = C1 inside the candidate polytope; "
        f"no maximum, verified witness pair, {elapsed:.3f}s < 1s",
    )


def test_criterion_3_projective_bundle_constants():
    profile = load("projbundle-sample").profile("split-two-steps")
    assert [epsilon(profile, k) for k in range(5)] == [-2, -2, -2, -1, 0]
    assert nu(profile, 2) == 0 and nu(profile, 3) == 0
    assert sigma(profile, 2) == -1 and sigma(profile, 3) == -1
    _, nef, mov = cones_at(profile, 2)
    witness = ClassVector(class_basis(profile, 2), (1, -1))
    in_mov = contains(mov, witness)
    in_nef = contains(nef, witness)
    assert in_mov and in_mov.verify()
    assert not in_nef and in_nef.verify()

    three = load("projbundle-sample").profile("split-three-steps")
    z2 = ClassVector(class_basis(three, 2), (1, -1))
    z2_dual = ClassVector(class_basis(three, three.rank - 2), (1, -1))
    assert pair_classes(three, 2, z2, z2_dual) == -2
    report(
        "3",
        "epsilon = (-2,-2,-2,-1,0), nu2 = nu3 = 0, sigma2 = sigma3 = -1; "
        "(1,-1) movable but not nef; self-pairing -2 on the second bundle",
    )


def test_criterion_4_closed_form_vs_lp_agreement():
    rng = random.Random(0x5EED_04)
    maxima = 0
    for _ in range(500):
        profile = random_profile(rng, max_pieces=4, max_rank=5, max_degree=10)
        k = rng.randint(1, profile.rank - 1)
        basis = class_basis(profile, k)
        a = F(rng.randint(0, 10), rng.randint(1, 3))
        b = F(rng.randint(0, 10), rng.randint(1, 3))
        alpha = ClassVector(basis, (a, a * epsilon(profile, k) + b))

        closed = zariski_decompose(profile, k, alpha)
        eff, _, mov = cones_at(profile, k)
        geometry = cone_geometry("case", mov, eff, degree_functional(profile, k))
        lp = decompose(geometry, alpha)
        assert lp.positive.coords == closed.positive.coords
        assert lp.negative.coords == closed.negative.coords
        assert verify_decomposition(geometry, lp)

        directedness = preceq_maximum(
            geometry, decomposition_polytope(geometry, alpha)
        )
        assert directedness.status == "maximum"
        maxima += 1
    assert maxima == 500
    report(
        "4",
        "closed-form and optimization decompositions agree exactly on 500 "
        "random profiles; every candidate set has a certified maximum",
    )


def test_criterion_5_hilbert_scheme_reproduction():
    fixture = load("p2-hilb2")
    ring = fixture.ring
    s1, s2, s3, m = (fixture.element(n) for n in ("S1", "S2", "S3", "M"))
    table = [[ring.pair(a, b) for b in (s1, s2, s3, m)] for a in (s1, s2, s3, m)]
    assert table == [
        [0, 0, 1, 1],
        [0, 1, 0, 0],
        [1, 0, -2, 0],
        [1, 0, 0, 2],
    ]

    e = fixture.element("E")
    c1, c2 = fixture.element("C1"), fixture.element("C2")
    assert ring.multiply(s3, e).terms == (c1.scale(2) - c2.scale(4)).terms

    d2 = fixture.element("D2")
    for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        lhs = ring.multiply(s1.scale(a) + s2.scale(b) + s3.scale(c), d2)
        rhs = c1.scale(b + 2 * c) + c2.scale(a + b)
        assert lhs.terms == rhs.terms

    curves = fixture.geometry("curves")
    curve_dec = decompose(curves, ClassVector(curves.basis, (3, 1)))
    assert curve_dec.positive.coords == (1, 1)
    assert curve_dec.negative.coords == (2, 0)
    assert curve_dec.metadata["positive_part_status"] == "certified-preceq-maximum"

    surfaces = fixture.geometry("surfaces")
    surface_dec = decompose(surfaces, ClassVector(surfaces.basis, (1, 0, 1)))
    assert surface_dec.positive.coords == (1, 0, F(1, 2))
    assert surface_dec.negative.coords == (0, 0, F(1, 2))
    assert surface_dec.metadata["positive_part_status"] == (
        "certified-preceq-maximum"
    )
    report(
        "5",
        "full 4x4 intersection table, S3.E = 2(C1-2C2), curve split "
        "(3,1) -> (1,1)+(2,0), surface split (1,0,1) -> (S1+S3/2)+(S3/2), "
        "symbolic pairing identity on the unit vectors",
    )


def test_criterion_6_moduli_space_checks():
    fixture = load("m07-s7")
    s1, s2, s3, s4 = (fixture.dual(n) for n in ("S1", "S2", "S3", "S4"))
    combo = s1.scale(2) + (s2 + s3.scale(2)).scale(F(1, 12))
    assert combo.coords == s4.coords

    ring = fixture.ring
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    square = ring.multiply(d1 + d2.scale(3), d1 + d2.scale(3))
    assert ring.pair(square, s1) == 0 and ring.pair(square, s2) == 0
    mixed = ring.multiply(d1, d1 + d2.scale(3))
    assert ring.pair(mixed, s2) == 0 and ring.pair(mixed, s3) == 0
    assert ring.pair(mixed, s1) == 9
    beta = ring.multiply(d2, d1 + d2.scale(3)) + ring.multiply(d1, d1 + d2)
    assert ring.pair(beta, s1) == 0 and ring.pair(beta, s3 - s2) == 0

    gamma = s1.scale(12) + s2.scale(7) + s3.scale(2)
    assert gamma.coords == (108, 0, 0)
    assert gamma.coords == fixture.dual("gamma").coords

    audit = fixture.audit
    assert not audit.clean
    asymmetry = audit.findings_of_kind("gram-asymmetry")
    assert asymmetry and sorted(asymmetry[0].detail["values"]) == ["-735", "735"]

    result = {r.claim_id: r for r in verify_claims(fixture).results}
    assert result["audit-flags-printed-relations"].status == "flagged"
    assert result["gamma-identity-printed"].status == "flagged"
    assert all(r.ok for r in result.values())
    report(
        "6",
        "S4 = 2S1 + (S2+2S3)/12, the three nef-certificate pairings, "
        "gamma = 108T1; printed-relation Gram asymmetry and gamma identity "
        "FLAGGED with the suite green",
    )


def test_criterion_7_negdef_oracle_equivalence():
    rng = random.Random(0x5EED_07)
    agreements = 0
    for _ in range(200):
        r = rng.randint(1, 5)
        gram = [[F(0)] * r for _ in range(r)]
        for i in range(r):
            gram[i][i] = F(rng.randint(-5, 5))
            for j in range(i + 1, r):
                gram[i][j] = gram[j][i] = F(rng.randint(0, 5))
        basis = PairingBasis(
            tuple(f"v{i}" for i in range(r)),
            tuple(tuple(row) for row in gram),
        )
        coeffs = tuple(F(rng.randint(0, 5)) for _ in range(r))
        try:
            fast = bck_decompose(basis, coeffs)
        except DomainError:
            with pytest.raises(DomainError):
                brute_force(basis, coeffs)
            continue
        oracle = brute_force(basis, coeffs)  # errors if not exactly one result
        assert fast.negative.coords == oracle.negative.coords
        assert bck_verify(basis, fast)
        agreements += 1

    single = PairingBasis(("Z",), ((F(-2),),))
    result = bck_decompose(single, (1,))
    assert result.negative.coords == (1,) and result.positive.coords == (0,)
    report(
        "7",
        f"support-growth = brute-force oracle on {agreements}/200 admissible "
        "instances, oracle uniqueness never violated; negative self-pairing "
        "class is its own negative part",
    )


def test_criterion_8_property_suites():
    # dd round trip + dual involution, 300 random cones in dim <= 6
    rng = random.Random(0x5EED_08)
    from conftest import random_cone

    for _ in range(300):
        dim = rng.randint(2, 6)
        cone = random_cone(rng, dim, f"acc8_{dim}")
        once = dd_convert(cone)
        assert sorted(g.coords for g in once.generators) == sorted(
            g.coords for g in dd_convert(dd_convert(once)).generators
        )
        assert cones_equal(dual_cone(dual_cone(cone)), cone)

    # objective independence wherever a maximum is certified: 50 x 10
    independents = 0
    while independents < 50:
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        geometry = cone_geometry("acc8", mov, eff, degree_functional(profile, k))
        eps = epsilon(profile, k)
        a, b = F(rng.randint(0, 6)), F(rng.randint(0, 6))
        alpha = ClassVector(class_basis(profile, k), (a, a * eps + b))
        directedness = preceq_maximum(
            geometry, decomposition_polytope(geometry, alpha)
        )
        assert directedness.status == "maximum"
        dual = f"pb[{profile.text()}].N{k}*"
        for _ in range(10):
            f2 = F(rng.randint(1, 5))
            f1 = F((-eps * f2).__floor__() + 1 + rng.randint(0, 3))
            objective = ClassVector(dual, (f1, f2))
            validate_objective(geometry, objective)
            result = decompose(geometry, alpha, objective)
            assert result.positive.coords == directedness.maximum.coords
        independents += 1

    # movable classes decompose trivially
    for _ in range(25):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        geometry = cone_geometry("acc8m", mov, eff, degree_functional(profile, k))
        t = F(rng.randint(0, 5), rng.randint(1, 2))
        u = F(rng.randint(0, 5), rng.randint(1, 2))
        alpha = mov.generators[0].scale(t) + mov.generators[1].scale(u)
        result = decompose(geometry, alpha)
        assert result.negative.is_zero()
        assert result.positive.coords == alpha.coords
    report(
        "8",
        "conversion round trip and dual involution on 300 cones; decompose "
        "is objective-independent under a certified maximum (50 x 10); "
        "movable classes return a zero negative part",
    )

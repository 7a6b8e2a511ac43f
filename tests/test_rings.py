import random
from fractions import Fraction
from itertools import product

import pytest

from cyclecones.errors import DomainError, InputError
from cyclecones.rings import (
    DualLayer,
    RingPresentation,
    consistency_audit,
    format_monomial,
    parse_monomial,
)

F = Fraction


def hilb_ring() -> RingPresentation:
    return RingPresentation(
        name="hilb",
        generators=("D1", "D2"),
        top_degree=4,
        rewrites={(3, 0): {}, (0, 3): {(1, 2): F(3), (2, 1): F(-6)}},
        top_values={(2, 2): F(1)},
        max_monomial_degree=4,
    )


def moduli_ring() -> RingPresentation:
    return RingPresentation(
        name="moduli",
        generators=("D1", "D2"),
        top_degree=4,
        rewrites={},
        top_values=None,
        max_monomial_degree=2,
        dual_layers={
            2: DualLayer(
                2,
                ("T1", "T2", "T3"),
                {
                    (2, 0): (F(-1701), F(0), F(1260)),
                    (1, 1): (F(0), F(1260), F(735)),
                    (0, 2): (F(1260), F(-735), F(315)),
                },
            ),
            1: DualLayer(1, ("C1", "C2")),
        },
    )


def test_monomial_text_round_trip():
    gens = ("D1", "D2")
    assert parse_monomial("D1^2*D2", gens) == (2, 1)
    assert parse_monomial("1", gens) == (0, 0)
    assert format_monomial((0, 3), gens) == "D2^3"
    with pytest.raises(InputError):
        parse_monomial("X", gens)


def test_cube_relation_rewrites():
    ring = hilb_ring()
    d2 = ring.generator("D2")
    cubed = ring.multiply(ring.multiply(d2, d2), d2)
    assert cubed.terms == ring.element(
        3, {"D1*D2^2": 3, "D1^2*D2": -6}
    ).terms


def test_identity_element():
    ring = hilb_ring()
    element = ring.element(2, {"D1*D2": F(5, 2), "D1^2": -1})
    assert ring.multiply(ring.one(), element).terms == element.terms


def test_top_values_forced_by_relations():
    ring = hilb_ring()
    expected = {
        "D1^4": 0,
        "D1^3*D2": 0,
        "D1^2*D2^2": 1,
        "D1*D2^3": 3,
        "D2^4": 3,
    }
    for text, value in expected.items():
        assert ring.top_value(ring.element(4, {text: 1})) == value


def test_degree_overflow_rejected():
    ring = hilb_ring()
    top = ring.element(4, {"D1^2*D2^2": 1})
    with pytest.raises(DomainError):
        ring.multiply(top, ring.generator("D1"))


def test_surface_pairings_match_table():
    ring = hilb_ring()
    s1 = ring.element(2, {"D1^2": 1})
    s2 = ring.element(2, {"D1*D2": 1, "D1^2": -2})
    s3 = ring.element(2, {"D2^2": 1, "D1*D2": -1})
    m = s3 + s1.scale(2)
    classes = [s1, s2, s3, m]
    table = [[ring.pair(a, b) for b in classes] for a in classes]
    assert table == [
        [0, 0, 1, 1],
        [0, 1, 0, 0],
        [1, 0, -2, 0],
        [1, 0, 0, 2],
    ]


def top_intersection(ring, elements):
    """Degree of a product of elements whose degrees sum to the top."""
    total_degree = sum(e.degree for e in elements)
    if total_degree != ring.top_degree:
        raise DomainError(f"degrees sum to {total_degree}, not {ring.top_degree}")
    product = ring.one()
    for e in elements:
        product = ring.multiply(product, e)
    return ring.top_value(product)


def test_top_intersection_of_lists():
    ring = hilb_ring()
    s1 = ring.element(2, {"D1^2": 1})
    s2 = ring.element(2, {"D1*D2": 1, "D1^2": -2})
    s3 = ring.element(2, {"D2^2": 1, "D1*D2": -1})
    m = s3 + s1.scale(2)
    assert top_intersection(ring, [s3, s3]) == -2
    assert top_intersection(ring, [m, m]) == 2
    assert top_intersection(ring, [s1, s2]) == 0
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    assert top_intersection(ring, [d1, d1, d2, d2]) == 1
    with pytest.raises(DomainError):
        top_intersection(ring, [s1, d1])


def test_rigid_surface_meets_exceptional_divisor():
    ring = hilb_ring()
    s3 = ring.element(2, {"D2^2": 1, "D1*D2": -1})
    e = ring.element(1, {"D2": 2, "D1": -2})
    c1 = ring.element(3, {"D1*D2^2": 1, "D1^2*D2": -3})
    c2 = ring.element(3, {"D1^2*D2": 1})
    assert ring.multiply(s3, e).terms == (c1.scale(2) - c2.scale(4)).terms


def test_multiplication_commutative_associative_on_bases():
    ring = hilb_ring()
    degree_one = [
        ring.element(1, {m: 1}) for m in ring.monomial_basis(1)
    ]
    degree_two = [
        ring.element(2, {m: 1}) for m in ring.monomial_basis(2)
    ]
    for a, b in product(degree_one, repeat=2):
        assert ring.multiply(a, b).terms == ring.multiply(b, a).terms
    for a, b, c in product(degree_one, degree_one, degree_two):
        left = ring.multiply(ring.multiply(a, b), c)
        right = ring.multiply(a, ring.multiply(b, c))
        assert left.terms == right.terms


def test_pair_bilinear_randomized():
    ring = hilb_ring()
    rng = random.Random(555)
    basis2 = ring.monomial_basis(2)
    for _ in range(60):
        def rand_elt():
            return ring.element(
                2,
                {m: F(rng.randint(-6, 6), rng.randint(1, 3)) for m in basis2},
            )

        a, a2, b = rand_elt(), rand_elt(), rand_elt()
        assert ring.pair(a + a2, b) == ring.pair(a, b) + ring.pair(a2, b)
        scale = F(rng.randint(-4, 4), rng.randint(1, 3))
        assert ring.pair(a.scale(scale), b) == scale * ring.pair(a, b)


def test_pair_degree_mismatch_rejected():
    ring = hilb_ring()
    with pytest.raises(DomainError):
        ring.pair(ring.generator("D1"), ring.generator("D2"))


def test_pair_with_zero_vanishes():
    ring = moduli_ring()
    square = ring.multiply(ring.generator("D1"), ring.generator("D1"))
    assert ring.pair(square, ring.dual_class(2, (0, 0, 0))) == 0


def test_dual_layer_pairings():
    ring = moduli_ring()
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    nefsq = ring.multiply(d1 + d2.scale(3), d1 + d2.scale(3))
    s1 = ring.dual_class(2, (0, 3, -2))
    s2 = ring.dual_class(2, (18, -6, 2))
    s3 = ring.dual_class(2, (-9, 3, 5))
    assert ring.pair(nefsq, s1) == 0
    assert ring.pair(nefsq, s2) == 0
    mixed = ring.multiply(d1, d1 + d2.scale(3))
    assert ring.pair(mixed, s1) == 9
    assert ring.pair(mixed, s2) == 0
    assert ring.pair(mixed, s3) == 0


def test_moduli_ring_has_no_trusted_top_structure():
    ring = moduli_ring()
    with pytest.raises(DomainError):
        ring.multiply(
            ring.multiply(ring.generator("D1"), ring.generator("D1")),
            ring.generator("D1"),
        )


def test_audit_clean_ring():
    report = consistency_audit(hilb_ring())
    assert report.clean
    assert report.confluence_products_checked > 0
    gram = report.gram_matrices["degree-2"]
    assert gram == [["0", "0", "1"], ["0", "1", "3"], ["1", "3", "3"]]


def test_audit_flags_asymmetric_printed_relations():
    report = consistency_audit(moduli_ring())
    assert not report.clean
    kinds = {f.kind for f in report.findings}
    assert "gram-asymmetry" in kinds and "pairing-path-disagreement" in kinds
    finding = report.findings_of_kind("gram-asymmetry")[0]
    assert sorted(finding.detail["values"]) == ["-735", "735"]


def test_audit_trivial_presentation_passes():
    ring = RingPresentation(
        name="point-count",
        generators=("H",),
        top_degree=3,
        rewrites={},
        top_values={(3,): F(1)},
        max_monomial_degree=3,
    )
    report = consistency_audit(ring)
    assert report.clean
    assert ring.top_value(ring.element(3, {"H^3": 2})) == 2


def test_quarantined_cap_expansion_is_explicit():
    ring = moduli_ring()
    square = ring.multiply(ring.generator("D2"), ring.generator("D2"))
    image = ring.cap_image_from_relations(square)
    assert image.coords == (1260, -735, 315)
    with pytest.raises(DomainError):
        hilb = hilb_ring()
        hilb.cap_image_from_relations(hilb.generator("D1"))

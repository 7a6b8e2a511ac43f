import random
from fractions import Fraction
from itertools import product

import pytest

from cyclecones import fixtures, rings
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.rings import (
    DualLayer,
    RingPresentation,
    consistency_audit,
    format_monomial,
    parse_monomial,
)

from conftest import two_step_normal_form

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


def test_rewriting_stops_at_its_step_budget(monkeypatch):
    # D2^4 takes three steps to its normal form 3·D1^2·D2^2: a budget of
    # three reaches it, a budget of two is the domain error naming the
    # budget, and a form already normal takes no step at all
    ring = hilb_ring()
    monkeypatch.setattr(rings, "_MAX_REWRITE_STEPS", 3)
    assert ring.normal_form({(0, 4): 1}) == {(2, 2): 3}
    monkeypatch.setattr(rings, "_MAX_REWRITE_STEPS", 2)
    with pytest.raises(DomainError, match=r"^hilb: rewriting exceeds its step budget$"):
        ring.normal_form({(0, 4): 1})
    monkeypatch.setattr(rings, "_MAX_REWRITE_STEPS", 0)
    assert ring.normal_form({(2, 2): 1}) == {(2, 2): 1}
    # rules that rewrite into each other stop at the default budget
    monkeypatch.undo()
    cycling = RingPresentation(
        name="cycling",
        generators=("x", "y"),
        top_degree=2,
        rewrites={(2, 0): {(0, 2): 1}, (0, 2): {(2, 0): 1}},
        top_values=None,
        max_monomial_degree=2,
    )
    with pytest.raises(DomainError, match="^cycling: rewriting exceeds its step budget$"):
        cycling.normal_form({(2, 0): 1})


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


def test_audit_flags_nonconfluent_rewrites():
    # a^2 -> 2b^2 and ab -> 0 overlap on a^2 b, which reduces to 2b^3 by the
    # first rule and to 0 by the second: the generator products below the
    # top degree disagree, and so do the normal forms of a top monomial
    ring = RingPresentation(
        name="overlap",
        generators=("a", "b"),
        top_degree=3,
        rewrites={(2, 0): {(0, 2): F(2)}, (1, 1): {}},
        top_values={(3, 0): F(1), (2, 1): F(1), (1, 2): F(1), (0, 3): F(1)},
        max_monomial_degree=3,
    )
    report = consistency_audit(ring)
    assert not report.clean and report.gram_matrices == {}  # odd top degree
    assert [f.detail for f in report.findings_of_kind("rewrite-nonconfluence")] == [
        {"monomial": "a", "generators": ["a", "b"]},
        {"monomial": "b", "generators": ["a", "a"]},
    ]
    assert [f.detail for f in report.findings_of_kind("pairing-path-disagreement")] == [
        {"pairing": "a^2*b", "values": ["strategy-dependent normal forms"]},
    ]


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


def test_element_above_the_declared_degrees_is_the_basis_domain_error():
    # an element of a degree without a monomial basis would have no coordinates
    ring = moduli_ring()
    with pytest.raises(DomainError) as basis_error:
        ring.monomial_basis(3)
    with pytest.raises(DomainError) as element_error:
        ring.element(3, {"D1^3": 1})
    assert element_error.value.message == basis_error.value.message
    assert basis_error.value.message == "moduli: no declared monomial basis in degree 3"


def test_graded_classes_add_only_their_own_kind_ring_and_degree():
    ring, other = moduli_ring(), moduli_ring()
    d1 = ring.generator("D1")
    square = ring.multiply(d1, d1)
    s1 = ring.dual_class(2, (0, 3, -2))
    for a, b, message in (
        (s1, square, "cannot add a RingElement to a DualClass"),
        (square, s1, "cannot add a DualClass to a RingElement"),
        (d1, other.generator("D1"), "classes belong to different presentations"),
        (d1, square, "cannot add classes of degrees 1 and 2"),
    ):
        with pytest.raises(InputError) as caught:
            a + b
        assert caught.value.message == message
        with pytest.raises(InputError):
            a - b
    assert (s1 + s1).coords == (0, 6, -4) and (square - square).terms == ()


def test_pair_refuses_what_is_not_a_class():
    ring = moduli_ring()
    d1, s1 = ring.generator("D1"), ring.dual_class(2, (0, 3, -2))
    for a, b, message in (
        (s1, d1, "the first pairing argument must be a ring element"),
        (2, s1, "the first pairing argument must be a ring element"),
        (d1, 2, "the second pairing argument must be a class"),
        (d1, moduli_ring().generator("D1"), "classes belong to different presentations"),
    ):
        with pytest.raises(InputError) as caught:
            ring.pair(a, b)
        assert caught.value.message == message


def test_relations_must_be_homogeneous_of_positive_degree():
    # a normal form must stay in the basis of its degree
    for rewrites in ({(2, 0): {(1, 0): F(1)}}, {(0, 0): {}}):
        with pytest.raises(InputError, match="must rewrite a monomial of positive degree"):
            RingPresentation("bad", ("a", "b"), 2, rewrites, None, 2)


def test_a_normal_form_outside_the_basis_is_a_broken_invariant():
    ring = hilb_ring()
    with pytest.raises(CycleConesError) as caught:
        ring._element_from_dict(3, {(3, 0): F(1)})  # D1^3 is not normal
    assert type(caught.value) is CycleConesError


def test_library_calls_on_the_wrong_kind_are_input_errors():
    # multiply takes ring elements only, and a class minus a scalar is no
    # class: each used to escape as an AttributeError
    ring = moduli_ring()
    d1, s1 = ring.generator("D1"), ring.dual_class(2, (0, 3, -2))
    for a, b in ((s1, d1), (d1, s1), (d1, 2)):
        with pytest.raises(InputError, match="only ring elements multiply"):
            ring.multiply(a, b)
    for a, b, message in (
        (ring.one(), 2, "cannot subtract a int from a RingElement"),
        (s1, F(1, 2), "cannot subtract a Fraction from a DualClass"),
    ):
        with pytest.raises(InputError) as caught:
            a - b
        assert caught.value.message == message


def test_audit_reports_top_monomials_the_top_values_leave_out():
    # declared top values that miss a top-degree basis monomial are a
    # finding, and the Gram matrix that would need the value is left out
    ring = hilb_ring()
    ring = RingPresentation(
        ring.name, ring.generators, ring.top_degree, ring.rewrites, {(4, 0): F(0)},
        ring.max_monomial_degree,
    )
    report = consistency_audit(ring)
    assert [(f.kind, f.detail) for f in report.findings] == [
        ("uncovered-top-monomial", {"monomial": "D1^2*D2^2"})
    ]
    assert report.gram_matrices == {} and report.confluence_products_checked == 18
    assert consistency_audit(hilb_ring()).findings == ()


def test_directly_built_classes_check_their_basis():
    # m07-s7's degree-2 dual layer has 3 names; a DualClass built directly
    # with 1 or 4 coordinates used to be accepted and to pair to 5 against
    # the first basis monomial, while dual_class refused the same data
    from cyclecones.fixtures import load
    from cyclecones.rings import DualClass, RingElement

    ring = load("m07-s7").ring
    assert DualClass(ring, 2, (5, 7, 9)).basis == ("T1", "T2", "T3")
    for degree, coords, message in (
        (2, (5,), "dual coordinate length mismatch"),
        (2, (5, 7, 9, 11), "dual coordinate length mismatch"),
        (3, (1,), "m07-s7: no dual basis declared in degree 3"),
    ):
        for build in (DualClass, lambda ring, *args: ring.dual_class(*args)):
            with pytest.raises(InputError) as caught:
                build(ring, degree, coords)
            assert caught.value.message == message
    assert RingElement(ring, 1, (1, 2)).basis == ring.monomial_basis(1)
    with pytest.raises(InputError) as caught:
        RingElement(ring, 1, (1, 2, 3))
    assert caught.value.message == "monomial coordinate length mismatch"


def test_presentation_checks_its_dual_layers():
    # a degree-1 dual layer with one name on generators a, b used to pair
    # a + b against that name to 1, with a cap image (6,); the fixture
    # loader refused the same document
    def ring(layer):
        return RingPresentation("short", ("a", "b"), 2, {}, None, 2, dual_layers={1: layer})

    with pytest.raises(InputError) as caught:
        ring(DualLayer(1, ("C1",), {(1, 0): (F(1),), (0, 1): (F(5),)}))
    assert caught.value.message == (
        "short: dual_bases['1'] names do not match the degree-1 monomial basis"
    )
    with pytest.raises(InputError) as caught:
        ring(DualLayer(1, ("C1", "C2"), {(1, 0): (F(1),), (0, 1): (F(5), F(0))}))
    assert caught.value.message == "short: dual_bases['1']: a cap relation row is not 2 long"
    good = ring(DualLayer(1, ("C1", "C2"), {(1, 0): (F(1), F(0)), (0, 1): (F(5), F(1))}))
    a_plus_b = good.generator("a") + good.generator("b")
    assert good.cap_image_from_relations(a_plus_b).coords == (6, 1)


def _lex_decreasing_ring(rng: random.Random, name: str) -> RingPresentation:
    """Random rules in three generators, each rewriting a monomial into
    lexicographically smaller ones of its degree, so rewriting ends."""
    monos = {d: sorted(p for p in product(range(d + 1), repeat=3) if sum(p) == d)
             for d in (2, 3)}
    rewrites = {}
    for lhs in rng.sample(monos[2], 3) + rng.sample(monos[3], 2):
        smaller = [m for m in monos[sum(lhs)] if m < lhs]
        picks = rng.sample(smaller, min(len(smaller), rng.randint(0, 2)))
        rewrites[lhs] = {m: F(rng.randint(-3, 3), rng.randint(1, 2)) or 1 for m in picks}
    return RingPresentation(name=name, generators=("x", "y", "z"), top_degree=4,
                            rewrites=rewrites, top_values=None, max_monomial_degree=4)


def test_normal_form_matches_the_two_step_search(rng):
    # the packaged rings (m07-s7 declares no rewrite rules: its degree-two
    # cap relations, which fail their symmetry audit, are audit material),
    # the overlapping rules a^2 -> 2b^2 and ab -> 0, whose two strategies
    # disagree, and seeded rule sets: every monomial up to the top degree,
    # then random term dicts, under both strategies
    presentations = [fixtures.load(name).ring for name in ("p2-hilb2", "m07-s7")]
    presentations.append(RingPresentation(
        name="overlap", generators=("a", "b"), top_degree=3,
        rewrites={(2, 0): {(0, 2): F(2)}, (1, 1): {}}, top_values=None, max_monomial_degree=3,
    ))
    presentations += [_lex_decreasing_ring(rng, f"lex{i}") for i in range(6)]
    seen = set()
    for ring in presentations:
        monos = [m for d in range(ring.top_degree + 1) for m in ring._all_monomials(d)]
        cases = [{m: 1} for m in monos]
        for _ in range(40):
            picked = rng.sample(monos, rng.randint(1, min(6, len(monos))))
            cases.append({m: F(rng.randint(-4, 4), rng.randint(1, 3)) for m in picked})
        for terms in cases:
            forms = {}
            for strategy in ("first", "last"):
                forms[strategy] = ring.normal_form(dict(terms), strategy)
                expected = two_step_normal_form(ring, dict(terms), strategy)
                assert list(forms[strategy].items()) == list(expected.items()), (ring.name, terms)
            seen.add("strategies agree" if forms["first"] == forms["last"] else "disagree")
            if forms["first"] != {m: c for m, c in terms.items() if c}:
                seen.add("rewritten")
    assert seen == {"strategies agree", "disagree", "rewritten"}

import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from cyclecones import FIXTURE_NAMES, cones, fixtures, linalg
from cyclecones.cones import (
    PolyCone,
    _generators_from_dd,
    _irredundant_rows,
    contains,
    dd_convert,
    double_description,
    dual_cone,
    extremal_rays,
    is_salient,
)
from cyclecones.errors import DomainError, InputError
from cyclecones.linalg import dot, int_primitive
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector

from conftest import (
    TORIC_A,
    TORIC_ALPHA,
    TORIC_C,
    TORIC_D,
    TORIC_M,
    bench_inputs,
    cones_equal,
    dot_irredundant_rows,
    fraction_contains,
    random_cone,
    random_member,
    random_vector,
    set_double_description,
    two_pass_dd_convert,
)



def full_space(basis, dim):
    return PolyCone(basis, dim, inequalities=())


def zero_cone(basis, dim):
    return PolyCone(basis, dim, generators=())


def rays_of(cone):
    return sorted(v.coords for v in extremal_rays(dd_convert(cone)))


def as_rows(rows):
    return sorted(tuple(Fraction(x) for x in row) for row in rows)


# -- dd_convert -----------------------------------------------------------


def test_orthant_h_to_v():
    cone = PolyCone.from_inequalities("cx2", [(1, 0), (0, 1)], dim=2)
    full = dd_convert(cone)
    assert sorted(g.coords for g in full.generators) == as_rows([(1, 0), (0, 1)])


def test_single_ray_v_to_h():
    cone = PolyCone.from_generators("cx2", [(1, 1)])
    full = dd_convert(cone)
    assert sorted(l.coords for l in full.inequalities) == as_rows(
        [(-1, 1), (1, -1), (1, 0)]
    )


def test_toric_eff_divisors_to_movable_inequalities():
    # converting the eight divisor generators must cut out exactly the cone
    # whose dual generators are the six movable-cone generators
    eff = PolyCone.from_generators("toric3.divisors", TORIC_D, dual="toric3.curves")
    assert rays_of(dual_cone(eff)) == as_rows(TORIC_M)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        PolyCone.from_generators("cx2", [(1, 0), (1, 0, 0)])


def test_inconsistent_double_representation_rejected():
    gens = (ClassVector("cx2", (1, 0)),)
    ineqs = (ClassVector("cx2*", (-1, 0)),)
    cone = PolyCone("cx2", 2, generators=gens, inequalities=ineqs)
    with pytest.raises(InputError):
        dd_convert(cone)


def test_double_representation_is_checked_both_ways():
    # the ray (1, 0) satisfies the quadrant's inequalities, yet is not the quadrant
    ray = PolyCone("b", 2, generators=(ClassVector("b", (1, 0)),),
                   inequalities=(ClassVector("b*", (1, 0)), ClassVector("b*", (0, 1))))
    with pytest.raises(InputError, match="describe different cones"):
        dd_convert(ray)
    rng = random.Random(20_21)
    for _ in range(200):
        dim = rng.randint(2, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        alone = dd_convert(PolyCone.from_inequalities("b", rows, dim=dim))
        gens = list(alone.generators)
        rng.shuffle(gens)
        both = dd_convert(PolyCone("b", dim, generators=tuple(gens), inequalities=tuple(
            ClassVector("b*", row) for row in rows)))
        assert (both.generators, both.inequalities) == (alone.generators, alone.inequalities)
        if gens and is_salient(alone):  # an extremal ray left out: a smaller cone
            short = PolyCone("b", dim, generators=tuple(gens[1:]), inequalities=alone.inequalities)
            with pytest.raises(InputError, match="describe different cones"):
                dd_convert(short)


# -- dual_cone ------------------------------------------------------------


def test_toric_dual_of_nef_is_mori():
    nef = PolyCone.from_generators("toric3.divisors", TORIC_A, dual="toric3.curves")
    assert rays_of(dual_cone(nef)) == as_rows(TORIC_C)


def test_dual_of_full_space_is_zero():
    full = full_space("cx2", 2)
    dual = dual_cone(full)
    assert dual.generators == ()
    assert is_salient(dual)


def test_dual_of_zero_cone_is_full_space():
    zero = zero_cone("cx2", 2)
    dual = dual_cone(zero)
    assert not is_salient(dual)
    assert sorted(g.coords for g in dual.generators) == as_rows(
        [(1, 0), (-1, 0), (0, 1), (0, -1)]
    )


def test_dual_involution_on_toric_cones():
    for rows in (TORIC_A, TORIC_D):
        cone = PolyCone.from_generators("toric3.divisors", rows, dual="toric3.curves")
        assert cones_equal(dual_cone(dual_cone(cone)), cone)


# -- contains -------------------------------------------------------------


def test_alpha_in_eff_with_combination():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    verdict = contains(eff, alpha)
    assert verdict and verdict.verify()


def test_alpha_not_movable_with_separating_functional():
    mov = PolyCone.from_generators("toric3.curves", TORIC_M, dual="toric3.divisors")
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    verdict = contains(mov, alpha)
    assert not verdict and verdict.verify()
    # the coordinate-sum functional is itself a valid separation witness
    from cyclecones.cones import ContainsResult

    stated = ContainsResult(
        verdict.cone,
        alpha,
        False,
        separating=ClassVector("toric3.divisors", (-1, -1, -1, -1, 1)),
    )
    assert stated.verify()


def test_verify_rejects_a_vector_of_another_length():
    # re-checked on a vector longer or shorter than the cone's rows, a
    # certificate fails: it neither passes on the shared entries nor raises
    unit = PolyCone.from_generators("u", [(1, 0), (0, 1)])
    for coords, longer, shorter in (((1, 2), (1, 2, 0), (1,)), ((-1, 2), (-1, 2, 0), (-1,))):
        verdict = contains(unit, ClassVector("u", coords))
        assert verdict.verify()
        for other in (longer, shorter):
            edited = dataclasses.replace(verdict, vector=ClassVector("u", other))
            assert not edited.verify()


def test_verify_rejects_a_certificate_in_another_basis():
    # the same coordinates relabelled to another basis: the member's vector,
    # the non-member's vector, the non-member's separating functional
    unit = PolyCone.from_generators("u", [(1, 0), (0, 1)])
    member = contains(unit, ClassVector("u", (1, 2)))
    outside = contains(unit, ClassVector("u", (-1, 2)))
    assert member.verify() and outside.verify() and not outside.member
    relabelled = (
        dataclasses.replace(member, vector=ClassVector("other", (1, 2))),
        dataclasses.replace(outside, vector=ClassVector("other", (-1, 2))),
        dataclasses.replace(
            outside, separating=ClassVector("other", outside.separating.coords)
        ),
    )
    for edited in relabelled:
        assert not edited.verify()


def test_zero_vector_in_any_cone():
    # the zero combination: one Fraction zero per canonical generator, and
    # none for the zero cone
    cone = PolyCone.from_generators("cx2", [(1, 0), (1, 1), (0, 1)])
    zero = ClassVector("cx2", (0, 0))
    verdict = contains(cone, zero)
    assert verdict and verdict.verify()
    assert verdict.combination == (0, 0)
    assert all(type(c) is Fraction for c in verdict.combination)
    verdict = contains(zero_cone("cx2", 2), zero)
    assert verdict and verdict.verify() and verdict.combination == ()


# -- is_salient / extremal_rays --------------------------------------------


def test_toric_eff_curves_salient():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    assert is_salient(eff)


def test_full_space_and_line_not_salient():
    assert not is_salient(full_space("cx2", 2))
    assert not is_salient(PolyCone.from_generators("cx2", [(1, 0), (-1, 0), (0, 1)]))


def test_extremal_rays_of_a_non_salient_cone_name_its_lineality_once(monkeypatch):
    cone = dd_convert(PolyCone.from_generators("cx3", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    calls = []
    monkeypatch.setattr(cones, "nullspace", lambda *a: calls.append(a) or linalg.nullspace(*a))
    with pytest.raises(DomainError) as err:
        extremal_rays(cone)
    assert len(calls) == 1
    assert err.value.payload() == {
        "message": "extremal rays are only defined for salient cones",
        "lineality": [["1", "0", "0"]],
    }


def test_interior_ray_removed():
    cone = PolyCone.from_generators("cx2", [(1, 0), (0, 1), (1, 1)])
    assert rays_of(cone) == as_rows([(1, 0), (0, 1)])


def test_toric_eff_divisors_extremal_rays_drop_redundant():
    eff = PolyCone.from_generators("toric3.divisors", TORIC_D, dual="toric3.curves")
    expected = as_rows(
        [
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (-2, 1, -2, -1, 1),
            (-2, -2, 1, -1, 1),
            (1, -2, -2, -1, 1),
        ]
    )
    assert rays_of(eff) == expected


def test_all_five_mori_rays_extremal():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    assert rays_of(eff) == as_rows(TORIC_C)


def test_extremal_rays_require_salient():
    with pytest.raises(DomainError):
        extremal_rays(dd_convert(full_space("cx2", 2)))


# -- randomized properties --------------------------------------------------


def test_contains_agrees_between_representations():
    # V-side feasibility (exact phase-one simplex) versus H-side facet
    # evaluation, on 1000 randomized cone/vector pairs in dimension <= 6
    rng = random.Random(20_260_808)
    checked = 0
    while checked < 1000:
        dim = rng.randint(2, 6)
        basis = f"rc{dim}"
        cone = random_cone(rng, dim, basis)
        full = dd_convert(cone)
        vector = (
            random_member(rng, cone)
            if rng.random() < 0.5
            else random_vector(rng, dim, basis)
        )
        h_member = all(
            sum((a * b for a, b in zip(l.coords, vector.coords)), Fraction(0)) >= 0
            for l in full.inequalities
        )
        coeffs = nonneg_solve([g.coords for g in full.generators], vector.coords)
        assert (coeffs is not None) == h_member
        verdict = contains(cone, vector)
        assert bool(verdict) == h_member
        assert verdict.verify()
        checked += 1


def test_dd_round_trip_and_dual_involution():
    # 300 random cones, dim <= 6: canonical generators are a fixed point of
    # conversion, and the dual of the dual is the original cone
    rng = random.Random(99_031)
    for _ in range(300):
        dim = rng.randint(2, 6)
        basis = f"rr{dim}"
        cone = random_cone(rng, dim, basis)
        once = dd_convert(cone)
        twice = dd_convert(dd_convert(once))
        assert sorted(g.coords for g in once.generators) == sorted(
            g.coords for g in twice.generators
        )
        assert cones_equal(dual_cone(dual_cone(cone)), cone)


def test_salient_iff_no_opposite_vectors():
    rng = random.Random(777)
    for _ in range(60):
        dim = rng.randint(2, 4)
        basis = f"sal{dim}"
        cone = random_cone(rng, dim, basis)
        salient = is_salient(cone)
        full = dd_convert(cone)
        has_line = any(
            contains(full, g) and contains(full, -g) and not g.is_zero()
            for g in full.generators
        )
        assert salient == (not has_line)


# -- double description against the set-based oracle -------------------------


def _degenerate_rows(rng, dim):
    """A seeded system with the degeneracies insertion has to handle: rows
    from a low-rank span, a row and its negation (an implicit equality),
    duplicate and positively rescaled rows, zero rows, fractional entries."""
    span = [
        tuple(rng.randint(-3, 3) for _ in range(dim))
        for _ in range(rng.randint(1, dim) if rng.random() < 0.4 else dim)
    ]
    rows = []
    for _ in range(rng.randint(1, dim + 4)):
        weights = [rng.randint(-2, 2) for _ in span]
        rows.append(
            tuple(
                Fraction(sum(w * v[j] for w, v in zip(weights, span)), rng.choice((1, 1, 2, 3)))
                for j in range(dim)
            )
        )
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(rows)
        if rng.random() < 0.5:
            rows.append(tuple(-x for x in row))
        else:
            rows.append(tuple(x * Fraction(rng.randint(1, 3), rng.randint(1, 2)) for x in row))
    if rng.random() < 0.3:
        rows.append((Fraction(0),) * dim)
    rng.shuffle(rows)
    return rows


def _bench_cones(seed):
    """The rungs of the benchmark's cone-convert workload for ``seed``."""
    return bench_inputs().cones(seed)


def _cyclic_systems():
    """The first 12 row sets of each cyclic rung of the benchmark's
    cone-convert workload (seed 1): cones over cyclic polytopes in
    dimensions 7 and 8."""
    return [
        (inst["rows"], rung["dim"])
        for rung in _bench_cones(1)
        if rung["family"] == "cyclic"
        for inst in rung["instances"][:12]
    ]


def _oracle_systems():
    """The no-row system of each dimension 1-6, 1500 seeded degenerate
    systems in dimensions 1-6 and 48 cyclic systems in dimensions 7-8."""
    rng = random.Random(4_091_996)
    systems = [([], dim) for dim in range(1, 7)]
    systems += [
        (_degenerate_rows(rng, dim), dim) for dim in range(1, 7) for _ in range(250)
    ]
    return systems + _cyclic_systems()


def _bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _assert_matches_oracle(rows, dim):
    """The engine's lineality, its rays in order and each ray's tight set
    equal the set oracle's."""
    lineality, rays = double_description(rows, dim)
    want_lineality, want_rays, want_tight = set_double_description(rows, dim)
    assert lineality == want_lineality, (dim, rows)
    assert list(rays) == want_rays, (dim, rows)
    assert [_bits(mask) for mask in rays.values()] == want_tight, (dim, rows)
    assert all(type(x) is int for part in (lineality, rays) for row in part for x in row)
    return lineality, rays


def _with_zero_rows(rng, rows, dim):
    """``rows`` with one to three zero rows inserted at seeded positions."""
    rows = list(rows)
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), (0,) * dim)
    return rows


def _zero_row_systems():
    """300 seeded degenerate systems in dimensions 1-6, zero rows interleaved."""
    rng = random.Random(1_996)
    return [
        (_with_zero_rows(rng, _degenerate_rows(rng, dim), dim), dim)
        for dim in range(1, 7)
        for _ in range(50)
    ]


def test_double_description_matches_set_oracle():
    # each output is fed back in, as dd_convert's second pass does on
    # degenerate input
    for rows, dim in _oracle_systems() + _zero_row_systems():
        lineality, rays = _assert_matches_oracle(rows, dim)
        _assert_matches_oracle(_generators_from_dd(lineality, rays), dim)


def test_double_description_resumes_after_any_prefix():
    # from the state after any prefix of its rows, zero rows and lineality
    # included, a call returns what the cold call returns, in order
    for rows, dim in _oracle_systems() + _zero_row_systems():
        lineality, rays = double_description(rows, dim)
        for k in range(len(rows) + 1):
            start = cones._dd_state(rows[:k], dim)
            assert start.rows == k
            got = double_description(rows, dim, start)
            assert got[0] == lineality and list(got[1].items()) == list(rays.items()), (k, rows)


def test_tight_sets_are_the_exact_incidence():
    # bit i of a ray's mask is set exactly when row i is nonzero and
    # vanishes on the ray; a zero row is tight on no ray
    for rows, dim in _oracle_systems() + _zero_row_systems():
        lineality, rays = double_description(rows, dim)
        for ray, mask in rays.items():
            want = {i for i, row in enumerate(rows) if any(row) and dot(row, ray) == 0}
            assert _bits(mask) == want, (dim, rows, ray)


def test_irredundant_rows_match_dot_product_oracle():
    # the rows dd_convert hands over, read as generators and as
    # inequalities: the incidence transpose and the dot-product table
    # pick the same facet rows, or both give up
    for rows, dim in _oracle_systems():
        for build in (PolyCone.from_generators, PolyCone.from_inequalities):
            cone = build(f"irr{dim}", rows, dim=dim)
            held = cone.generator_rows() or cone.inequality_rows()
            supplied = [int_primitive(row) for row in held]
            lineality, rays = double_description(supplied, dim)
            assert _irredundant_rows(supplied, lineality, rays, dim) == (
                dot_irredundant_rows(supplied, lineality, list(rays), dim)
            ), (dim, rows)


def _counting_double_description(monkeypatch):
    """Wrap ``cones.double_description``; the returned list counts calls."""
    calls = [0]
    inner = cones.double_description

    def counted(rows, dim):
        calls[0] += 1
        return inner(rows, dim)

    monkeypatch.setattr(cones, "double_description", counted)
    return calls


def _assert_stores_its_rows(full):
    """``full``'s vectors are primitive integer rows: ``int`` coordinates,
    each row its own ``int_primitive``."""
    assert full.canonical
    rows = full.generator_rows() + full.inequality_rows()
    assert all(type(x) is int for row in rows for x in row), full
    assert all(int_primitive(row) == row for row in rows), full


def _assert_matches_two_pass(cone, got):
    want = two_pass_dd_convert(cone)
    assert got.generators == want.generators, cone
    assert got.inequalities == want.inequalities, cone
    _assert_stores_its_rows(got)


def test_dd_convert_matches_two_pass_oracle(monkeypatch):
    # every system of the set-oracle test, as generators and as
    # inequalities; both the one-pass and the two-pass route must be taken
    calls = _counting_double_description(monkeypatch)
    passes = {1: 0, 2: 0}
    for rows, dim in _oracle_systems():
        for build in (PolyCone.from_generators, PolyCone.from_inequalities):
            cone = build(f"dd{dim}", rows, dim=dim)
            calls[0] = 0
            got = dd_convert(cone)
            passes[calls[0]] += 1
            _assert_matches_two_pass(cone, got)
    assert passes[1] and passes[2], passes


# rows in dimension 3, what they give read as generators and as
# inequalities, and the double descriptions dd_convert takes either way
EDGE_CASES = {
    # the zero cone; the full space
    "no-rows": ([], 2),
    # a one-ray cone; a half-space, with lineality and full-dimensional
    "one-row": ([(1, 1, 0)], 2),
    # a half-plane with lineality; a half-line times a line, which has an
    # implicit equality
    "line-and-row": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 2),
    # pointed and not full-dimensional; full-dimensional with lineality
    "redundant-row-in-a-plane": ([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 1),
    # the orthant, with duplicate, rescaled, zero and interior rows
    "duplicate-rescaled-zero": (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, Fraction(3, 2), 0),
         (0, 0, 0), (1, 1, 1), (2, 2, 2)],
        1,
    ),
}


@pytest.mark.parametrize(
    "build", [PolyCone.from_generators, PolyCone.from_inequalities], ids=["gens", "ineqs"]
)
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_dd_convert_edge_cases_match_two_pass_oracle(case, build, monkeypatch):
    rows, passes = EDGE_CASES[case]
    cone = build("edge3", rows, dim=3)
    calls = _counting_double_description(monkeypatch)
    got = dd_convert(cone)
    assert calls[0] == passes
    _assert_matches_two_pass(cone, got)


def _fixture_cones():
    return [c for name in FIXTURE_NAMES for c in fixtures.load(name).cones.values()]


def _cone_convert_cones(seed):
    """The cones of the benchmark's cone-convert workload for ``seed``."""
    cones_in = []
    for rung in _bench_cones(seed):
        build = (
            PolyCone.from_generators if rung["kind"] == "generators"
            else PolyCone.from_inequalities
        )
        basis = f"bench{rung['dim']}"
        cones_in += [build(basis, inst["rows"]) for inst in rung["instances"]]
    return cones_in


@functools.cache
def _converted_cone_convert_cones(seed):
    return [dd_convert(cone) for cone in _cone_convert_cones(seed)]


def test_dd_convert_takes_one_pass_on_real_cones(monkeypatch):
    # every packaged fixture cone and every seed-1 cone-convert cone is
    # full-dimensional and pointed, so one double description suffices
    cones_in = _fixture_cones() + _cone_convert_cones(1)
    calls = _counting_double_description(monkeypatch)
    for cone in cones_in:
        calls[0] = 0
        dd_convert(cone)
        assert calls[0] == 1, cone


def test_double_description_ray_budget(monkeypatch):
    rows = [(1, t, t * t, t ** 3) for t in range(-3, 4)]
    # the cone over a cyclic 3-polytope with 7 vertices has 10 facets
    assert len(double_description(rows, 4)[1]) == 10
    monkeypatch.setattr(cones, "_MAX_DD_RAYS", 5)
    with pytest.raises(DomainError) as caught:
        double_description(rows, 4)
    assert caught.value.details == {"dim": 4, "row": 4, "rays": 6}


def test_double_description_pair_budget(monkeypatch):
    # the same cone's insertions test 4, 9 and 16 positive/negative pairs:
    # 29 in all, counted afresh on each call
    rows = [(1, t, t * t, t ** 3) for t in range(-3, 4)]
    monkeypatch.setattr(cones, "_MAX_DD_PAIRS", 29)
    for _ in range(2):
        assert len(double_description(rows, 4)[1]) == 10
    # a call resumed after any prefix within the budget counts the
    # prefix's pairs, and fails where the cold call fails
    starts = [cones._dd_state(rows[:k], 4) for k in range(len(rows) + 1)]
    assert [start.pairs for start in starts] == [0, 0, 0, 0, 0, 4, 13, 29]
    for budget, row, pairs in ((28, 6, 29), (12, 5, 13), (0, 4, 4)):
        monkeypatch.setattr(cones, "_MAX_DD_PAIRS", budget)
        for start in [None] + [s for s in starts if s.pairs <= budget and s.rows <= row]:
            with pytest.raises(DomainError) as caught:
                double_description(rows, 4, start)
            assert caught.value.message == "double description exceeds its pair-test budget"
            assert caught.value.details == {"dim": 4, "row": row, "pairs": pairs}


# -- integer rows and membership against the Fraction oracle ------------------


def _edge_cones():
    """Every edge case of ``EDGE_CASES``, read as generators and as
    inequalities: zero cone, full space, lineality, not full-dimensional."""
    return [
        build("edge3", rows, dim=3)
        for rows, _ in EDGE_CASES.values()
        for build in (PolyCone.from_generators, PolyCone.from_inequalities)
    ]


def _membership_queries(rng, full, facets, members):
    """Vectors in ``full``'s space: the zero vector, a random vector with
    negative entries and mixed denominators, and for up to ``facets``
    random facets a boundary point (a rescaled sum of the facet's tight
    rays) pushed across the facet.  With ``members``, also a second random
    vector, a random member and the boundary points themselves."""
    basis, dim = full.basis, full.dim
    queries = [ClassVector(basis, (0,) * dim), random_vector(rng, dim, basis)]
    if not full.generators:
        return queries
    if members:
        queries += [random_vector(rng, dim, basis), random_member(rng, full)]
    gens, ineqs = full.generator_rows(), full.inequality_rows()  # integer rows
    total = [sum(column) for column in zip(*gens)]
    for l in rng.sample(ineqs, min(facets, len(ineqs))):
        tight = [g for g in gens if dot(l, g) == 0]
        if tight:
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            boundary = [scale * sum(column) for column in zip(*tight)]
            pushed = [b - Fraction(t, 7) for b, t in zip(boundary, total)]
            queries.append(ClassVector(basis, pushed))
            if members:
                queries.append(ClassVector(basis, boundary))
    return queries


def test_contains_matches_fraction_oracle():
    # verdict, combination and separating functional equal the Fraction-row
    # decision on every packaged fixture cone and its dual, every edge case
    # and its dual, and every seed 1-3 cone-convert cone.  A member's
    # simplex on a cone-convert cone takes about 60 pivots over up to 84
    # rays, so those cones get one facet each and member queries on every
    # fourth cone (each rung's instance count is a multiple of 4); member
    # queries on all of them would add about 10 s.
    rng = random.Random(1_996)
    work = []
    for cone in _fixture_cones() + _edge_cones():
        full = dd_convert(cone)
        work += [(full, 2, True), (dual_cone(full), 2, True)]
    for seed in (1, 2, 3):
        work += [
            (full, 1, i % 4 == 0)
            for i, full in enumerate(_converted_cone_convert_cones(seed))
        ]
    seen = {True: 0, False: 0}
    for full, facets, members in work:
        for vector in _membership_queries(rng, full, facets, members):
            got, want = contains(full, vector), fraction_contains(full, vector)
            assert (got.member, got.combination, got.separating) == (
                want.member, want.combination, want.separating
            ), (full, vector)
            seen[got.member] += 1
    assert seen[True] and seen[False], seen


def test_canonical_cones_store_their_integer_rows():
    # the vectors of dd_convert's output are primitive integer rows; dual_cone
    # swaps the pair and stays canonical; a constructed or edited cone is not
    fulls = [dd_convert(cone) for cone in _fixture_cones() + _edge_cones()]
    for seed in (1, 2, 3):
        fulls += _converted_cone_convert_cones(seed)
    for full in fulls:
        _assert_stores_its_rows(full)
        dual = dual_cone(full)
        _assert_stores_its_rows(dual)
        assert dual.generator_rows() == full.inequality_rows()
        assert dual.inequality_rows() == full.generator_rows()
        twice = dual_cone(dual)
        assert (twice.generator_rows(), twice.inequality_rows()) == (
            full.generator_rows(), full.inequality_rows()
        )
        edited = dataclasses.replace(full, generators=full.generators)
        assert edited == full and not edited.canonical
    for cone in _fixture_cones() + _edge_cones() + _cone_convert_cones(1):
        assert not cone.canonical

import random
from fractions import Fraction

import pytest

from cyclecones.cones import (
    PolyCone,
    cones_equal,
    contains,
    dd_convert,
    dual_cone,
    extremal_rays,
    is_salient,
)
from cyclecones.errors import DomainError, InputError
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector

from conftest import (
    TORIC_A,
    TORIC_ALPHA,
    TORIC_C,
    TORIC_D,
    TORIC_M,
    random_cone,
    random_member,
    random_vector,
)


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


# -- dual_cone ------------------------------------------------------------


def test_toric_dual_of_nef_is_mori():
    nef = PolyCone.from_generators("toric3.divisors", TORIC_A, dual="toric3.curves")
    assert rays_of(dual_cone(nef)) == as_rows(TORIC_C)


def test_dual_of_full_space_is_zero():
    full = PolyCone.full_space("cx2", 2)
    dual = dual_cone(full)
    assert dual.generators == ()
    assert is_salient(dual)


def test_dual_of_zero_cone_is_full_space():
    zero = PolyCone.zero("cx2", 2)
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


def test_zero_vector_in_any_cone():
    cone = PolyCone.from_generators("cx2", [(1, 0)])
    zero = ClassVector("cx2", (0, 0))
    verdict = contains(cone, zero)
    assert verdict and verdict.verify()


# -- is_salient / extremal_rays --------------------------------------------


def test_toric_eff_curves_salient():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    assert is_salient(eff)


def test_full_space_and_line_not_salient():
    assert not is_salient(PolyCone.full_space("cx2", 2))
    assert not is_salient(PolyCone.from_generators("cx2", [(1, 0), (-1, 0), (0, 1)]))


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
        extremal_rays(dd_convert(PolyCone.full_space("cx2", 2)))


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

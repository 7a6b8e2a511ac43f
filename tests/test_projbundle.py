from collections import Counter
from fractions import Fraction

import pytest

from cyclecones import cones, projbundle, simplex
from cyclecones.cones import PolyCone, contains, dd_convert
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.jsonio import cone_to_json
from cyclecones.projbundle import (
    HNProfile,
    class_basis,
    cone_coincidence,
    cones_at,
    constants_table,
    degree_functional,
    epsilon,
    nu,
    pair_classes,
    sigma,
    zariski_decompose,
)
from cyclecones.vectors import ClassVector
from cyclecones.zariski import cone_geometry, decompose, verify_decomposition

from conftest import cones_equal, fraction_epsilon, random_profile

F = Fraction

SPLIT = HNProfile(((2, 0), (2, 2)))
THREE = HNProfile(((1, -2), (1, 0), (2, 2)))


def test_profile_parsing_and_validation():
    assert HNProfile.parse("2:0,2:2") == SPLIT
    assert SPLIT.rank == 4 and SPLIT.degree == 2
    with pytest.raises(InputError):
        HNProfile.parse("2:2,2:0")  # slopes must strictly increase
    with pytest.raises(InputError):
        HNProfile.parse("0:1")
    with pytest.raises(InputError):
        HNProfile.parse("nonsense")


def test_profile_rank_is_capped():
    cap = projbundle._MAX_PROFILE_RANK
    assert HNProfile(((cap - 1, 0), (1, 1))).rank == cap
    with pytest.raises(DomainError) as caught:
        HNProfile(((cap, 0), (1, 1)))
    assert caught.value.message == f"profile rank {cap + 1} exceeds the cap of {cap}"
    assert caught.value.details == {"rank": cap + 1, "cap": cap}


@pytest.mark.parametrize(
    "pieces", [((2.7, 0), (2, 2)), ((True, 0),), ((2, False),), ((F(1, 2), 0),), ((2, F(1, 2)),)]
)
def test_profile_pieces_follow_the_number_rule(pieces):
    # floats, bools and fractions used to be truncated by int()
    with pytest.raises(InputError):
        HNProfile(pieces)
    assert HNProfile(((F(4, 2), "0"), ("2", 2))) == SPLIT


def test_polygon_endpoints_for_any_profile(rng):
    for _ in range(40):
        profile = random_profile(rng)
        assert epsilon(profile, 0) == -profile.degree
        assert epsilon(profile, profile.rank) == 0


def test_epsilon_table_for_split_bundle():
    assert [epsilon(SPLIT, k) for k in range(5)] == [-2, -2, -2, -1, 0]


def test_epsilon_semistable_is_linear():
    profile = HNProfile(((4, 2),))
    for k in range(5):
        assert epsilon(profile, k) == -2 + F(k) * F(2, 4)


def test_epsilon_matches_fraction_oracle(rng):
    # every k in 0..rank of 60 seeded profiles: the same value, a Fraction,
    # looked up in the profile's one table of heights; reading the tables
    # leaves the profile equal to, and hashing like, a fresh parse
    for _ in range(60):
        profile = random_profile(rng)
        assert len(profile.heights) == profile.rank + 1
        for k in range(profile.rank + 1):
            got = epsilon(profile, k)
            assert type(got) is Fraction and got == fraction_epsilon(profile, k)
            assert got is profile.heights[k]
        constants_table(profile)
        fresh = HNProfile.parse(profile.text())
        assert fresh == profile and hash(fresh) == hash(profile)


def test_nu_values():
    assert nu(SPLIT, 2) == 0
    assert nu(SPLIT, 3) == 0
    semistable = HNProfile(((4, 2),))
    for k in range(1, 4):
        assert nu(semistable, k) == -semistable.degree - epsilon(semistable, 4 - k)
        assert nu(semistable, k) == -F(4 - k) * F(2, 4)


def test_sigma_values():
    assert sigma(SPLIT, 2) == -1
    assert sigma(THREE, 2) == -1
    # in dimension one the movable and nef constants coincide
    for profile in (SPLIT, THREE, HNProfile(((3, 1), (2, 4)))):
        assert sigma(profile, 1) == nu(profile, 1)


def test_cones_nesting():
    eff, nef, mov = cones_at(SPLIT, 2)
    v = ClassVector(class_basis(SPLIT, 2), (1, -1))
    assert contains(mov, v) and not contains(nef, v)
    assert contains(eff, v)


def test_semistable_cones_coincide():
    profile = HNProfile(((4, 2),))
    for k in range(1, 4):
        eff, nef, mov = cones_at(profile, k)
        assert cones_equal(eff, nef) and cones_equal(eff, mov)


def test_k_range_enforced():
    with pytest.raises(InputError):
        cones_at(SPLIT, 0)
    with pytest.raises(InputError):
        cones_at(SPLIT, 4)
    with pytest.raises(InputError):
        epsilon(SPLIT, 5)


def test_pairing_relations():
    basis2 = class_basis(THREE, 2)
    z = ClassVector(basis2, (1, -1))
    assert pair_classes(THREE, 2, z, z) == -2
    fiber = ClassVector(class_basis(SPLIT, 1), (0, 1))
    hyper = ClassVector(class_basis(SPLIT, 3), (1, 0))
    assert pair_classes(SPLIT, 1, fiber, hyper) == 1
    fiber3 = ClassVector(class_basis(SPLIT, 3), (0, 1))
    fiber1 = ClassVector(class_basis(SPLIT, 1), (0, 1))
    assert pair_classes(SPLIT, 3, fiber3, fiber1) == 0


def test_closed_form_decomposition_cases():
    basis = class_basis(SPLIT, 2)
    movable = zariski_decompose(SPLIT, 2, ClassVector(basis, (1, 0)))
    assert movable.negative.is_zero()
    boundary = zariski_decompose(SPLIT, 2, ClassVector(basis, (1, -2)))
    assert boundary.positive.is_zero()
    assert boundary.negative.coords == (1, -2)
    interior = zariski_decompose(SPLIT, 2, ClassVector(basis, (2, -3)))
    assert interior.positive.coords == (1, -1)
    assert interior.negative.coords == (1, -2)


def test_classes_need_two_coordinates():
    basis = class_basis(SPLIT, 2)
    three = ClassVector(basis, (2, -3, 1))
    two = ClassVector(basis, (1, 0))
    for call in (
        lambda: zariski_decompose(SPLIT, 2, three),
        lambda: pair_classes(SPLIT, 2, three, two),
        lambda: pair_classes(SPLIT, 2, two, three),
    ):
        with pytest.raises(InputError, match="have 2 coordinates, got 3"):
            call()


def test_non_pseudoeffective_rejected_with_functional():
    basis = class_basis(SPLIT, 2)
    with pytest.raises(DomainError) as err:
        zariski_decompose(SPLIT, 2, ClassVector(basis, (-1, 0)))
    assert "separating_functional" in err.value.details


def test_coincidence_flags():
    assert cone_coincidence(SPLIT, 3) == (True, False)
    assert cone_coincidence(SPLIT, 2) == (False, False)
    semistable = HNProfile(((4, 2),))
    for k in range(1, 4):
        assert cone_coincidence(semistable, k) == (True, True)


def test_two_slope_profiles_never_have_nef_equal_eff(rng):
    # an effective class on the lower boundary pairs negatively with the
    # minimal section as soon as two slopes differ, in every dimension
    for _ in range(60):
        profile = random_profile(rng)
        if len(profile.pieces) == 1:
            continue
        for k in range(1, profile.rank):
            assert cone_coincidence(profile, k)[1] is False
            assert nu(profile, k) > epsilon(profile, k)


# -- randomized invariants ---------------------------------------------------


def test_polygon_convex_and_constants_ordered(rng):
    for _ in range(120):
        profile = random_profile(rng)
        n = profile.rank
        heights = [epsilon(profile, k) for k in range(n + 1)]
        slopes = [b - a for a, b in zip(heights, heights[1:])]
        assert all(x <= y for x, y in zip(slopes, slopes[1:]))
        for k in range(1, n):
            assert nu(profile, k) >= sigma(profile, k) >= epsilon(profile, k)
            gap_zero = sigma(profile, k) == epsilon(profile, k)
            assert gap_zero == (n - profile.pieces[-1][0] < k)


def test_constants_out_of_order_are_an_internal_error(monkeypatch):
    # eps_2 raised from -2 to 0: sigma_2 = eps_1 + top slope = -1 falls below
    # it.  Every reader of the constants meets the one check, same details
    profile = HNProfile.parse("2:0,2:2")
    heights = HNProfile.heights.func
    monkeypatch.setattr(HNProfile, "heights", property(
        lambda p: tuple(h + 2 if i == 2 else h for i, h in enumerate(heights(p)))
    ))
    alpha = ClassVector(class_basis(profile, 2), (1, 0))
    readers = {
        "nu": lambda: nu(profile, 2),
        "sigma": lambda: sigma(profile, 2),
        "cones_at": lambda: cones_at(profile, 2),
        "cone_coincidence": lambda: cone_coincidence(profile, 2),
        "zariski_decompose": lambda: zariski_decompose(profile, 2, alpha),
        "degree_functional": lambda: degree_functional(profile, 2),
        "constants_table": lambda: constants_table(profile),
    }
    for name, read in readers.items():
        with pytest.raises(CycleConesError) as err:
            read()
        assert type(err.value) is CycleConesError, name
        assert err.value.payload() == {
            "message": "cone constants out of order", "epsilon": "0", "sigma": "-1", "nu": "-2",
        }, name


def test_sigma_below_epsilon_alone_is_out_of_order(monkeypatch):
    # eps_1 raised from -2 to 0: sigma_1 = eps_0 + top slope = -1 falls below
    # it, while nu_1 = -degree - eps_3 = -1 still reaches sigma_1, so only
    # the half of the check that wants sigma >= eps catches it
    profile = HNProfile.parse("2:0,2:2")
    heights = HNProfile.heights.func
    monkeypatch.setattr(HNProfile, "heights", property(
        lambda p: tuple(h + 2 if i == 1 else h for i, h in enumerate(heights(p)))
    ))
    alpha = ClassVector(class_basis(profile, 1), (1, 0))
    for read in (lambda: sigma(profile, 1), lambda: cones_at(profile, 1),
                 lambda: zariski_decompose(profile, 1, alpha)):
        with pytest.raises(CycleConesError) as err:
            read()
        assert type(err.value) is CycleConesError
        assert err.value.payload() == {
            "message": "cone constants out of order", "epsilon": "0", "sigma": "-1", "nu": "-1",
        }


def test_closed_form_agrees_with_lp_engine(rng):
    # smaller companion to the acceptance-level 500-instance agreement run
    for _ in range(100):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        basis = class_basis(profile, k)
        a = F(rng.randint(0, 12), rng.randint(1, 3))
        b = F(rng.randint(0, 12), rng.randint(1, 3))
        eps = epsilon(profile, k)
        alpha = ClassVector(basis, (a, a * eps + b))
        closed = zariski_decompose(profile, k, alpha)
        eff, _, mov = cones_at(profile, k)
        geometry = cone_geometry(
            "agree", mov, eff, degree_functional(profile, k)
        )
        lp = decompose(geometry, alpha)
        assert lp.positive.coords == closed.positive.coords
        assert lp.negative.coords == closed.negative.coords
        assert lp.metadata["positive_part_status"] == "certified-preceq-maximum"
        assert verify_decomposition(geometry, lp)
        # the negative part is a multiple of the extremal effective ray
        x, y = closed.negative.coords
        assert y - x * eps == 0 and x >= 0


def _pseudo_effective_cases(rng, count):
    """Seeded (profile, k, alpha), alpha = a*(1, eps_k) + b*(0, 1) with
    a, b >= 0; every fifth class is the zero class."""
    for i in range(count):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        a = F(rng.randint(0, 8), rng.randint(1, 3))
        b = F(rng.randint(0, 8), rng.randint(1, 3))
        if i % 5 == 0:
            a = b = F(0)
        yield profile, k, ClassVector(class_basis(profile, k), (a, a * epsilon(profile, k) + b))


def _count_calls(monkeypatch, *names):
    """A Counter of the calls made to each ``module.name`` of ``names``."""
    calls = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for module, name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_pseudo_effective_classes_need_no_cone_engine(rng, monkeypatch):
    # the movable certificate is read off the slope polygon: no membership
    # test and no simplex; a class outside eff takes its separating
    # functional from the closed-form eff's facets, with no contains either
    calls = _count_calls(
        monkeypatch, (cones, "contains"), (cones, "double_description"),
        (cones, "nonneg_solve"), (simplex, "nonneg_solve"),
    )
    for profile, k, alpha in _pseudo_effective_cases(rng, 60):
        zariski_decompose(profile, k, alpha)
    assert calls == {}
    with pytest.raises(DomainError):
        zariski_decompose(SPLIT, 2, ClassVector(class_basis(SPLIT, 2), (-1, 0)))
    assert calls == {}


def test_movable_combination_matches_the_cone_engine(rng):
    # the cone engine is the reference: the closed-form combination is the
    # one contains(mov, positive) finds by double description and simplex
    # (mov from its generators, as cones_at's closed form does not convert)
    seen = set()
    for profile, k, alpha in _pseudo_effective_cases(rng, 200):
        closed = zariski_decompose(profile, k, alpha)
        sig = sigma(profile, k)
        mov = PolyCone.from_generators(class_basis(profile, k), [(1, sig), (0, 1)])
        verdict = contains(mov, closed.positive)
        assert verdict and verdict.verify()
        combination = closed.certificate("positive-part-movable").data["combination"]
        assert combination == list(verdict.combination)
        seen.add("integral sigma" if sig.denominator == 1 else "fractional sigma")
        seen.add("negative sigma" if sig < 0 else "zero sigma" if sig == 0 else "positive sigma")
        seen.add("zero class" if alpha.is_zero() else
                 "movable" if closed.negative.is_zero() else "not movable")
    assert seen == {
        "integral sigma", "fractional sigma", "negative sigma", "zero sigma",
        "positive sigma", "zero class", "movable", "not movable",
    }


def test_cones_at_matches_the_double_description(rng):
    # the double description is the reference: at every k of 200 seeded
    # profiles each closed-form cone is canonical and prints as the DD's
    # conversion of the same generators
    seen = set()
    for _ in range(200):
        profile = random_profile(rng)
        for k in range(1, profile.rank):
            basis = class_basis(profile, k)
            constants = (epsilon(profile, k), nu(profile, k), sigma(profile, k))
            for cone, c in zip(cones_at(profile, k), constants):
                reference = dd_convert(PolyCone.from_generators(basis, [(1, c), (0, 1)]))
                assert cone.canonical and dd_convert(cone) is cone
                assert cone_to_json(cone) == cone_to_json(reference)
                seen.add("integral" if c.denominator == 1 else "fractional")
                seen.add("negative" if c < 0 else "zero" if c == 0 else "positive")
            if len(profile.pieces) == 1:
                seen.add("single piece")
    assert seen == {"integral", "fractional", "negative", "zero", "positive", "single piece"}


def test_cone_geometry_of_cones_at_runs_no_double_description(rng, monkeypatch):
    calls = _count_calls(monkeypatch, (cones, "double_description"))
    for _ in range(40):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        cone_geometry("slope", mov, eff, degree_functional(profile, k))
    assert calls == {}


def test_closed_form_cone_check_is_an_internal_error(monkeypatch):
    # (q, p) = (0, 1) is no primitive form of (1, c): the facet (1, 0)
    # vanishes on both generators
    monkeypatch.setattr(projbundle, "int_primitive", lambda row: (0, 1))
    with pytest.raises(CycleConesError) as err:
        cones_at(SPLIT, 2)
    assert type(err.value) is CycleConesError
    assert err.value.payload() == {
        "message": "closed-form cone fails its facet check", "constant": "-2",
        "generators": [["0", "1"], ["0", "1"]], "facets": [["-1", "0"], ["1", "0"]],
    }

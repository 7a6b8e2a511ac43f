import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from cyclecones import FIXTURE_NAMES, zariski
from cyclecones.cones import PolyCone, contains, dd_convert, double_description
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.linalg import combine, dot, int_primitive, reproduces, violated
from cyclecones.projbundle import (
    class_basis,
    cones_at,
    degree_functional,
    epsilon,
)
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (
    ConeGeometry,
    cone_geometry,
    decompose,
    decomposition_polytope,
    dominator_set,
    dominator_set_empty,
    negative_boundary_check,
    preceq_maximum,
    validate_objective,
    verify_decomposition,
)

from conftest import (
    INFEASIBLE,
    TORIC_ALPHA,
    TORIC_C,
    TORIC_M,
    TORIC_OBJECTIVE,
    affine_decomposition_rows,
    affine_dominator_rows,
    bench_inputs,
    cold_route_decomposition,
    fraction_key_peel,
    fraction_sorted_vertices,
    maximize_affine,
    pairwise_maximum,
    random_profile,
    report_route_metadata,
)

F = Fraction


@pytest.fixture(scope="module")
def toric():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    mov = PolyCone.from_generators("toric3.curves", TORIC_M, dual="toric3.divisors")
    objective = ClassVector("toric3.divisors", TORIC_OBJECTIVE)
    return cone_geometry("toric", mov, eff, objective)


def simple_2d():
    eff = PolyCone.from_generators("zz2", [(1, 0), (0, 1)])
    mov = PolyCone.from_generators("zz2", [(1, 1), (0, 1)])
    return cone_geometry("simple", mov, eff, ClassVector("zz2*", (1, 1)))


# -- geometry validation ------------------------------------------------------


def test_mov_must_sit_inside_eff():
    eff = PolyCone.from_generators("zv2", [(1, 0), (1, 1)])
    mov = PolyCone.from_generators("zv2", [(0, 1)])
    with pytest.raises(InputError) as caught:
        cone_geometry("bad", mov, eff)
    assert str(caught.value) == (
        "movable cone is not contained in the effective cone; "
        "offending generator ['0', '1']"
    )


def test_mov_and_eff_must_share_a_dual():
    eff = PolyCone.from_generators("zv2", [(1, 0), (0, 1)], dual="zv2.div")
    mov = PolyCone.from_generators("zv2", [(1, 1)])
    with pytest.raises(InputError, match="live in different spaces"):
        cone_geometry("bad", mov, eff)
    mov = PolyCone.from_generators("zv2", [(1, 1)], dual="zv2.div")
    g = cone_geometry("good", mov, eff, ClassVector("zv2.div", (1, 1)))
    assert decomposition_polytope(g, ClassVector("zv2", (1, 1))).dual == "zv2.div"


def test_eff_must_be_salient():
    eff = PolyCone.from_generators("zv2", [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(DomainError):
        cone_geometry("bad", eff, eff)


INVALID_GEOMETRIES = [
    (
        PolyCone.from_generators("zv2", [(1, 1)]),
        PolyCone.from_generators("zv2", [(1, 0), (0, 1)], dual="zv2.div"),
        InputError,
        "movable and effective cones live in different spaces",
    ),
    (
        PolyCone.from_generators("zv2", [(1, 0)]),
        PolyCone.from_generators("zv2", [(1, 0), (-1, 0), (0, 1)]),
        DomainError,
        "effective cone must be salient",
    ),
    (
        PolyCone.from_generators("zv2", [(0, 1)]),
        PolyCone.from_generators("zv2", [(1, 0), (1, 1)]),
        InputError,
        "movable cone is not contained in the effective cone; offending generator ['0', '1']",
    ),
]


def test_geometry_needs_converted_cones():
    # preceq_maximum reads the converted eff cone's integer facet rows, so a
    # geometry converts raw cones itself, and an invalid pair raises
    # cone_geometry's errors whichever way it is built
    eff = PolyCone.from_generators("zv2", [(1, 0), (0, 1)])
    g = cone_geometry("good", eff, eff)
    assert g.mov.canonical and g.eff.canonical
    assert ConeGeometry("good", g.mov, eff) == ConeGeometry("good", eff, g.eff) == g
    assert ConeGeometry("good", g.mov, g.eff) == g
    for mov, eff, error, message in INVALID_GEOMETRIES:
        for build in (cone_geometry, ConeGeometry):
            with pytest.raises(error) as caught:
                build("bad", mov, eff)
            assert str(caught.value) == message


def test_directly_built_geometry_checks_mov_inside_eff():
    # converted cones used to pass straight through the constructor: with mov
    # outside eff, decompose of (0, 1), which is not in eff, returned itself
    # as a certified maximum
    mov = dd_convert(PolyCone.from_generators("zv2", [(0, 1), (1, 1)]))
    eff = dd_convert(PolyCone.from_generators("zv2", [(1, 0), (1, 1)]))
    with pytest.raises(InputError, match="movable cone is not contained"):
        ConeGeometry("bad", mov, eff, ClassVector("zv2*", (1, 1)))


def test_directly_built_geometry_checks_its_objective():
    eff = PolyCone.from_generators("zv2", [(1, 0), (0, 1)])
    with pytest.raises(InputError, match="not strictly positive"):
        ConeGeometry("bad", eff, eff, ClassVector("zv2*", (1, 0)))
    with pytest.raises(InputError, match="dual basis"):
        ConeGeometry("bad", eff, eff, ClassVector("zv2", (1, 1)))


def test_geometry_from_raw_cones_equals_cone_geometry(toric):
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    mov = PolyCone.from_generators("toric3.curves", TORIC_M, dual="toric3.divisors")
    objective = ClassVector("toric3.divisors", TORIC_OBJECTIVE)
    g = ConeGeometry("toric", mov, eff, objective)
    assert g == cone_geometry("toric", mov, eff, objective) == toric
    assert dataclasses.replace(g, name="other").eff is g.eff  # converted once


def test_decompose_validates_only_a_passed_objective(toric, monkeypatch):
    # the geometry checked its own degree functional when it was built
    calls = []
    monkeypatch.setattr(zariski, "validate_objective", lambda g, c: calls.append(c))
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    decompose(toric, alpha)
    assert calls == []
    decompose(toric, alpha, toric.degree_functional.scale(2))
    assert calls == [toric.degree_functional.scale(2)]


def test_objective_validation_lists_offending_ray():
    g = simple_2d()
    with pytest.raises(InputError) as err:
        validate_objective(g, ClassVector("zz2*", (1, 0)))
    assert "ray" in str(err.value)


# -- decomposition polytope ---------------------------------------------------


def test_polytope_contains_zero_and_alpha_when_movable():
    g = simple_2d()
    alpha = ClassVector("zz2", (1, 2))
    s = decomposition_polytope(g, alpha)
    coords = {v.coords for v in s.vertices}
    assert (F(0), F(0)) in coords and alpha.coords in coords
    report = preceq_maximum(g, s)
    assert report.status == "maximum"
    assert report.maximum.coords == alpha.coords
    assert report.verify()


def test_polytope_of_zero_class_is_origin():
    g = simple_2d()
    s = decomposition_polytope(g, ClassVector("zz2", (0, 0)))
    assert [v.coords for v in s.vertices] == [(0, 0)]


def test_non_pseudoeffective_class_rejected():
    g = simple_2d()
    with pytest.raises(DomainError) as err:
        decomposition_polytope(g, ClassVector("zz2", (-1, 0)))
    assert "separating_functional" in err.value.details


def test_toric_polytope_contains_both_movable_generators(toric):
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    s = decomposition_polytope(toric, alpha)
    coords = {v.coords for v in s.vertices}
    m1 = ClassVector("toric3.curves", TORIC_M[0])
    m2 = ClassVector("toric3.curves", TORIC_M[1])
    assert m1.coords in coords and m2.coords in coords
    # exact certificates: alpha - M1 = C2 and alpha - M2 = C1
    assert (alpha - m1).coords == ClassVector("toric3.curves", TORIC_C[1]).coords
    assert (alpha - m2).coords == ClassVector("toric3.curves", TORIC_C[0]).coords


def test_toric_polytope_every_vertex_certified(toric):
    # each emitted vertex is movable and dominated by alpha, re-verified
    # through the membership certificates
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    s = decomposition_polytope(toric, alpha)
    assert s.vertices
    for v in s.vertices:
        inside = contains(toric.mov, v)
        leftover = contains(toric.eff, alpha - v)
        assert inside and inside.verify()
        assert leftover and leftover.verify()


def test_p2_curve_negative_part_lies_on_boundary_facet():
    from cyclecones.fixtures import load

    fixture = load("p2-hilb2")
    g = fixture.geometry("curves")
    result = decompose(g, ClassVector(g.basis, (3, 1)))
    assert result.negative.coords == (2, 0)
    assert negative_boundary_check(g, result)


# -- preceq_maximum -----------------------------------------------------------


def test_toric_alpha_has_no_maximum(toric):
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    s = decomposition_polytope(toric, alpha)
    report = preceq_maximum(toric, s)
    assert report.status == "no-maximum"
    assert report.verify()
    assert report.pair_dominator_set_empty is True
    # the two named movable generators specifically admit no common
    # dominator anywhere in the candidate set
    m1 = ClassVector("toric3.curves", TORIC_M[0])
    m2 = ClassVector("toric3.curves", TORIC_M[1])
    assert dominator_set_empty(toric, s, m1, m2)[0] is True


@pytest.fixture(scope="module")
def toric_reports(toric):
    """Reports for every eff class sum c_i C_i with c_i in {0, 1, 2}."""
    rows = toric.eff.generator_rows()
    reports = []
    for coeffs in itertools.product(range(3), repeat=len(rows)):
        alpha = ClassVector(toric.basis, combine(coeffs, rows, toric.dim))
        reports.append(preceq_maximum(toric, decomposition_polytope(toric, alpha)))
    return reports


def lp_dominator_set_empty(g, s, u, w):
    """The dominator-set emptiness question as a linear program."""
    # a row r means <r[:-1], z> >= -r[-1]
    functionals = [r[:-1] for r in s.inequalities]
    offsets = [-r[-1] for r in s.inequalities]
    for target in (u, w):
        for m in g.eff.inequalities:
            functionals.append(m.coords)
            offsets.append(dot(m.coords, target.coords))
    status, _, _ = maximize_affine(functionals, offsets, (F(0),) * s.dim)
    return status == INFEASIBLE


def test_polytope_rows_are_the_homogenized_affine_rows(toric):
    # every toric class sum c_i C_i with c_i in {0, 1, 2}: the rows are
    # int_primitive((a, -b)) of the oracle's <a, x> >= b, in order; so are
    # the dominator rows of 8 vertex pairs in a seeded order
    gens = toric.eff.generator_rows()
    pairs = []
    for coeffs in itertools.product(range(3), repeat=len(gens)):
        alpha = ClassVector(toric.basis, combine(coeffs, gens, toric.dim))
        s = decomposition_polytope(toric, alpha)
        rows = affine_decomposition_rows(toric, alpha)
        assert list(s.inequalities) == [int_primitive((*a, -b)) for a, b in rows]
        pairs += [(s, rows, u, w) for u, w in itertools.combinations(s.vertices, 2)]
    assert len(pairs) > 8
    random.Random(1_531).shuffle(pairs)
    for s, rows, u, w in pairs[:8]:
        want = [int_primitive((*a, -b)) for a, b in affine_dominator_rows(toric, rows, u, w)]
        assert list(dominator_set(toric.eff, s, u, w).inequalities) == want


def test_vertex_order_is_the_fraction_tuple_sort(toric_reports):
    # every toric class sum c_i C_i with c_i in {0, 1, 2}
    assert len(toric_reports) == 243
    for report in toric_reports:
        s = report.polytope
        assert [v.coords for v in s.vertices] == fraction_sorted_vertices(s)


def test_peel_matches_fraction_key_oracle(toric, toric_reports, monkeypatch):
    # every peel that the maximum reports among the toric classes ask for:
    # 383 peels, 131 of them with a coefficient that is not an integer
    peel, calls = zariski._peel, []

    def checked(gen_values, slack):
        got = peel(gen_values, slack)
        assert got == fraction_key_peel(gen_values, slack), (gen_values, slack)
        assert all(type(c) is Fraction for c in got)
        calls.append(any(c.denominator > 1 for c in got))
        return got

    monkeypatch.setattr(zariski, "_peel", checked)
    for report in toric_reports:
        assert preceq_maximum(toric, report.polytope) == report
    assert (len(calls), sum(calls)) == (383, 131)


@pytest.mark.parametrize(
    "gens, nonzero, points, fractional",
    [
        # simplicial, not unimodular: one facet per generator, read in one pass
        ([(1, 0, 0), (1, 2, 0), (1, 1, 3)], [1, 1, 1], 62, 43),
        # the cone over a square: four generators and four facets, but each
        # generator is nonzero on two of them, so the face peel runs
        ([(1, 1, 1), (1, -1, 1), (1, -1, -1), (1, 1, -1)], [2, 2, 2, 2], 165, 110),
    ],
    ids=["simplicial", "square"],
)
def test_peel_matches_fraction_key_oracle_on_small_cones(gens, nonzero, points, fractional):
    # the slack is the facet values of a lattice point of the cone: every
    # one in the box [-4, 4]^3
    eff = dd_convert(PolyCone.from_generators("zp3", gens))
    facets, rows = eff.inequality_rows(), eff.generator_rows()
    gen_values = [[dot(l, g) for l in facets] for g in rows]
    assert len(facets) == len(rows)
    assert [sum(x != 0 for x in gv) for gv in gen_values] == nonzero
    box = itertools.product(range(-4, 5), repeat=3)
    calls = []
    for p in (p for p in box if violated(facets, p) is None):
        slack = [dot(l, p) for l in facets]
        got = zariski._peel(gen_values, slack)
        assert got == fraction_key_peel(gen_values, slack), p
        assert all(type(c) is Fraction for c in got)
        assert reproduces(got, rows, p)
        calls.append(any(c.denominator > 1 for c in got))
    assert (len(calls), sum(calls)) == (points, fractional)


def test_dominator_set_emptiness_agrees_with_lp_oracle(toric, toric_reports):
    # vertex pairs of the no-maximum toric classes, in a seeded order; each
    # verdict is compared with the simplex oracle until it has occurred 8
    # times (46 of the 562 pairs have an empty dominator set); its
    # certificate must prove it and must not prove the flipped verdict
    pairs = [
        (report.polytope, u, w)
        for report in toric_reports
        if report.status == "no-maximum"
        for u, w in itertools.combinations(report.polytope.vertices, 2)
    ]
    assert len(pairs) == 562
    random.Random(5_077).shuffle(pairs)
    seen = {True: 0, False: 0}
    for s, u, w in pairs:
        empty, certificate = dominator_set_empty(toric, s, u, w)
        if seen[empty] < 8:
            assert empty == lp_dominator_set_empty(toric, s, u, w)
            dominators = dominator_set(toric.eff, s, u, w)
            assert dominators.certifies(empty, certificate)
            assert not dominators.certifies(not empty, certificate)
            seen[empty] += 1
        if min(seen.values()) == 8:
            break
    assert seen == {True: 8, False: 8}


def ladder_geometry(rng, dim):
    """eff = unit vectors (plus 3 seeded rows in dimension 3), mov = the
    pairwise sums of its generators, and a seeded eff class."""
    eff = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    while dim == 3 and len(eff) < 6:
        row = tuple(rng.randint(-1, 2) for _ in range(dim))
        if sum(row) > 0 and row not in eff:
            eff.append(row)
    mov = [tuple(map(sum, zip(a, b))) for a, b in itertools.combinations(eff, 2)]
    basis = f"ladder{dim}"
    g = cone_geometry(
        basis,
        PolyCone.from_generators(basis, mov),
        PolyCone.from_generators(basis, eff),
        ClassVector(f"{basis}*", (1,) * dim),
    )
    coeffs = [rng.randint(0, 3) for _ in eff]
    return g, ClassVector(basis, combine(coeffs, eff, dim))


def test_peel_certificates_are_sparse_and_reproduce(toric, toric_reports):
    rng = random.Random(7_331)
    reports = [(toric, report) for report in toric_reports]
    for dim in (3, 3, 3, 3, 3, 3, 4, 4, 5, 6):
        g, alpha = ladder_geometry(rng, dim)
        reports.append((g, preceq_maximum(g, decomposition_polytope(g, alpha))))
    assert {report.status for _, report in reports} == {"maximum", "no-maximum"}
    for g, report in reports:
        rows = g.eff.generator_rows()
        if report.status == "maximum":
            assert len(report.domination) == len(report.polytope.vertices)
        for combo, v in zip(report.domination, report.polytope.vertices):
            assert len(combo) == len(rows)
            assert all(c >= 0 for c in combo)
            assert sum(c != 0 for c in combo) <= g.dim
            assert reproduces(combo, rows, (report.maximum - v).coords)
        for f in report.failures:
            assert f.separating == contains(g.eff, f.vertex - f.target).separating


def test_preceq_maximum_matches_pairwise_oracle(toric, toric_reports):
    # the column-maximum decision against the all-pairs scan: every toric
    # class sum c_i C_i with c_i in {0, 1, 2}, then seeded ladder classes
    # in dimensions 3 to 6 (these all have a maximum)
    cases = [(toric, report) for report in toric_reports]
    rng = random.Random(4_241)
    for dim in (3,) * 16 + (4,) * 8 + (5,) * 4 + (6,) * 4:
        g, alpha = ladder_geometry(rng, dim)
        cases.append((g, preceq_maximum(g, decomposition_polytope(g, alpha))))
    seen = set()
    for g, report in cases:
        status, maximum = pairwise_maximum(g, report.polytope)
        assert report.status == status
        assert (report.maximum and report.maximum.coords) == maximum
        seen.add((g is toric, status))
    assert seen == {(True, "maximum"), (True, "no-maximum"), (False, "maximum")}


def test_peel_without_a_combination_is_an_internal_error():
    # one generator with facet values (1, 0) cannot reach the slack (0, 1):
    # a broken invariant, not a question outside the domain
    with pytest.raises(CycleConesError) as err:
        zariski._peel([(1, 0)], [0, 1])
    assert not isinstance(err.value, DomainError)


def test_two_dimensional_geometries_always_have_maximum(rng):
    for _ in range(40):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        g = cone_geometry("pb", mov, eff, degree_functional(profile, k))
        a = F(rng.randint(0, 8), rng.randint(1, 2))
        b = F(rng.randint(0, 8), rng.randint(1, 2))
        alpha = ClassVector(
            class_basis(profile, k), (a, a * epsilon(profile, k) + b)
        )
        report = preceq_maximum(g, decomposition_polytope(g, alpha))
        assert report.status == "maximum"
        assert report.verify()


# -- decompose ----------------------------------------------------------------


def test_movable_class_is_its_own_positive_part(toric):
    m6 = ClassVector("toric3.curves", TORIC_M[5])
    result = decompose(toric, m6)
    assert result.negative.is_zero()
    assert result.positive.coords == m6.coords
    assert result.metadata["positive_part_status"] == "certified-preceq-maximum"


def test_toric_decompose_reports_tied_face(toric):
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    result = decompose(toric, alpha)
    assert verify_decomposition(toric, result)
    face = result.metadata["optimal_face"]
    assert [["0", "1", "0", "0", "2"], ["1", "0", "0", "0", "2"]] == sorted(face)
    assert result.metadata["optimum_unique"] is False
    assert result.metadata["positive_part_status"] == "objective-maximal-candidate"
    # canonical representative: lexicographically smallest optimal vertex
    assert result.positive.coords == (0, 1, 0, 0, 2)
    assert negative_boundary_check(toric, result)


def test_toric_two_objectives_give_distinct_unique_optima(toric):
    # where directedness fails, different valid degree functionals select
    # provably different unique positive parts
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    rng = random.Random(2_024)
    found = set()
    while len(found) < 2:
        bump = [rng.randint(0, 2) for _ in range(5)]
        objective = ClassVector(
            "toric3.divisors",
            tuple(F(c + b) for c, b in zip(TORIC_OBJECTIVE, bump)),
        )
        try:
            validate_objective(toric, objective)
        except InputError:
            continue
        result = decompose(toric, alpha, objective)
        if result.metadata["optimum_unique"]:
            found.add(result.positive.coords)
    assert len(found) >= 2


def test_objective_independence_under_maximum(rng):
    # 50 instances x 10 random valid objectives: whenever the candidate set
    # has a certified maximum, every objective returns exactly it
    count = 0
    while count < 50:
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        g = cone_geometry("pb", mov, eff, degree_functional(profile, k))
        a = F(rng.randint(0, 6), 1)
        b = F(rng.randint(0, 6), 1)
        eps = epsilon(profile, k)
        alpha = ClassVector(class_basis(profile, k), (a, a * eps + b))
        s = decomposition_polytope(g, alpha)
        report = preceq_maximum(g, s)
        assert report.status == "maximum"
        basis_dual = f"pb[{profile.text()}].N{k}*"
        for _ in range(10):
            f2 = F(rng.randint(1, 5))
            floor_part = (-eps * f2).__floor__()
            f1 = F(floor_part + 1 + rng.randint(0, 3))
            objective = ClassVector(basis_dual, (f1, f2))
            validate_objective(g, objective)
            result = decompose(g, alpha, objective)
            assert result.positive.coords == report.maximum.coords
        count += 1


def test_vertex_domination_extends_to_random_convex_combinations(rng):
    g = simple_2d()
    alpha = ClassVector("zz2", (2, 3))
    s = decomposition_polytope(g, alpha)
    report = preceq_maximum(g, s)
    assert report.status == "maximum"
    beta = report.maximum
    vertices = s.vertices
    for _ in range(50):
        weights = [F(rng.randint(0, 5)) for _ in vertices]
        total = sum(weights)
        if total == 0:
            continue
        point = None
        for w, v in zip(weights, vertices):
            part = v.scale(w / total)
            point = part if point is None else point + part
        assert contains(g.eff, beta - point)


def _bench_ladder(seed):
    """The (geometry, class) pool of the benchmark's decompose-ladder for
    one seed."""
    from cyclecones.fixtures import load

    toric = load("toric-3fold").geometry("curves")
    items = []
    for rung in bench_inputs().ladder(seed):
        basis = f"bench.ladder{rung['dim']}"
        for i, inst in enumerate(rung["instances"]):
            if rung["extra"] is None:  # a toric-3fold:curves class
                alpha = combine(inst["coeffs"], toric.eff.generator_rows(), toric.dim)
                items.append((toric, ClassVector(toric.basis, alpha)))
                continue
            g = cone_geometry(
                f"{rung['label']}-{i}",
                PolyCone.from_generators(basis, inst["mov"]),
                PolyCone.from_generators(basis, inst["eff"]),
                ClassVector(f"{basis}*", (1,) * rung["dim"]),
            )
            items.append((g, ClassVector(basis, inst["alpha"])))
    return items


def test_resumed_double_description_matches_a_cold_one(rng):
    # a decomposition polytope, and a dominator set built from it, resume
    # their double description from the geometry's movable prefix; the
    # result must be a cold call's: the same lineality, the same rays in
    # the same order, the same tight sets.  Five seeded pseudo-effective
    # classes per packaged fixture geometry, and the benchmark's ladder
    # pools of seeds 1 and 7919
    from cyclecones.fixtures import load

    cases = []
    for name in FIXTURE_NAMES:
        for g in load(name).geometries.values():
            gens = g.eff.generator_rows()
            for _ in range(5):
                coeffs = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
                cases.append((g, ClassVector(g.basis, combine(coeffs, gens, g.dim))))
    assert len({g.name for g, _ in cases}) >= 3
    for seed in (1, 7919):
        cases += _bench_ladder(seed)
    pairs = 0
    for g, alpha in cases:
        s = decomposition_polytope(g, alpha)
        assert s.start is g.mov_start.start and s.start.rows == len(g.mov.inequalities)
        systems = [s]
        if len(s.vertices) > 1:
            systems.append(dominator_set(g.eff, s, *s.vertices[-2:]))
            pairs += 1
        for p in systems:
            rows = (*p.inequalities, (0,) * p.dim + (1,))
            lineality, rays = double_description(rows, p.dim + 1)
            resumed = double_description(rows, p.dim + 1, p.start)
            assert resumed[0] == lineality, (g.name, alpha.coords)
            assert list(resumed[1].items()) == list(rays.items()), (g.name, alpha.coords)
    assert pairs > 100


def test_decompose_metadata_matches_the_report_route(rng):
    # decompose decides its verdict by a kernel test of the positive part,
    # and a movable class by no polytope at all; the oracle reads it off a
    # full preceq_maximum report on a cold polytope, for every class.
    # Every toric-3fold:curves class sum c_i C_i with c_i in {0, 1, 2}, the
    # benchmark's ladder pools of seeds 1 and 7919, and seeded 2-d
    # geometries; a movable class's whole record is the cold route's
    from cyclecones.fixtures import load

    toric = load("toric-3fold").geometry("curves")
    rows = toric.eff.generator_rows()
    cases = [
        (toric, ClassVector(toric.basis, combine(coeffs, rows, toric.dim)))
        for coeffs in itertools.product(range(3), repeat=len(rows))
    ]
    assert len(cases) == 243
    for seed in (1, 7919):
        cases += _bench_ladder(seed)
    for _ in range(40):
        profile = random_profile(rng)
        k = rng.randint(1, profile.rank - 1)
        eff, _, mov = cones_at(profile, k)
        g = cone_geometry("pb", mov, eff, degree_functional(profile, k))
        a = F(rng.randint(0, 8), rng.randint(1, 2))
        b = F(rng.randint(0, 8), rng.randint(1, 2))
        cases.append((g, ClassVector(class_basis(profile, k), (a, a * epsilon(profile, k) + b))))
    seen = {}
    movable = 0
    for g, alpha in cases:
        dec = decompose(g, alpha)
        metadata = dec.metadata
        assert repr(metadata) == repr(report_route_metadata(g, alpha)), (g.name, alpha.coords)
        key = (g is toric, metadata["preceq_maximum"])
        seen[key] = seen.get(key, 0) + 1
        if violated(g.mov.inequality_rows(), alpha.coords) is None:
            movable += 1
            cold = cold_route_decomposition(g, alpha)
            assert json.dumps(dec.to_json()) == json.dumps(cold.to_json()), (g.name, alpha.coords)
    assert set(seen) == set(itertools.product((True, False), ("maximum", "no-maximum")))
    assert 0 < movable < len(cases)


def test_decompose_builds_no_directedness_proof(toric, monkeypatch):
    # the verdict is recorded without a report; verify_decomposition builds
    # one, with peel certificates for a maximum and the pair search and its
    # dominator set for no maximum
    calls = []
    for name in ("preceq_maximum", "_peel", "dominator_set_empty"):
        def counted(*args, name=name, routine=getattr(zariski, name)):
            calls.append(name)
            return routine(*args)

        monkeypatch.setattr(zariski, name, counted)
    for coords, status, proof in (
        (TORIC_M[5], "maximum", "_peel"),
        (TORIC_ALPHA, "no-maximum", "dominator_set_empty"),
    ):
        dec = decompose(toric, ClassVector(toric.basis, coords))
        assert dec.metadata["preceq_maximum"] == status
        assert calls == []
        assert verify_decomposition(toric, dec)
        assert calls[0] == "preceq_maximum" and proof in calls
        calls.clear()


def test_boundary_class_decomposes(toric):
    c1 = ClassVector("toric3.curves", TORIC_C[0])
    result = decompose(toric, c1)
    assert verify_decomposition(toric, result)
    assert (result.positive + result.negative).coords == c1.coords


def test_negative_boundary_check_trivial_cases(toric):
    m6 = ClassVector("toric3.curves", TORIC_M[5])
    result = decompose(toric, m6)
    assert negative_boundary_check(toric, result)  # N = 0 counts as boundary

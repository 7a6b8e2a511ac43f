import itertools
import random
from fractions import Fraction

import pytest

from cyclecones.cones import PolyCone, contains
from cyclecones.errors import DomainError, InputError
from cyclecones.linalg import combine, dot, int_primitive, reproduces
from cyclecones.projbundle import (
    class_basis,
    cones_at,
    degree_functional,
    epsilon,
)
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (
    ConeGeometry,
    _dominators,
    cone_geometry,
    decompose,
    decomposition_polytope,
    dominator_set_empty,
    negative_boundary_check,
    pair_certified,
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
    maximize_affine,
    random_profile,
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


def test_geometry_needs_converted_cones():
    # preceq_maximum reads the converted eff cone's integer facet rows
    eff = PolyCone.from_generators("zv2", [(1, 0), (0, 1)])
    g = cone_geometry("good", eff, eff)
    with pytest.raises(InputError):
        ConeGeometry("bad", g.mov, eff)
    with pytest.raises(InputError):
        ConeGeometry("bad", eff, g.eff)
    assert ConeGeometry("good", g.mov, g.eff) == g


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
        assert list(_dominators(toric.eff, s, u, w).inequalities) == want


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
            assert pair_certified(toric.eff, s, u, w, empty, certificate)
            assert not pair_certified(toric.eff, s, u, w, not empty, certificate)
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


def test_boundary_class_decomposes(toric):
    c1 = ClassVector("toric3.curves", TORIC_C[0])
    result = decompose(toric, c1)
    assert verify_decomposition(toric, result)
    assert (result.positive + result.negative).coords == c1.coords


def test_negative_boundary_check_trivial_cases(toric):
    m6 = ClassVector("toric3.curves", TORIC_M[5])
    result = decompose(toric, m6)
    assert negative_boundary_check(toric, result)  # N = 0 counts as boundary

"""Every certificate verifier rejects a tampered certificate.

Each case builds a valid certificate with the library and exposes it as
coefficients plus the target they certify.  The verifier then gets: the
coefficients and the target both negated, so only the sign check can
reject (for a separating functional: negative on some generator); one
zero coefficient too many, so only the length check can reject; or the
target moved off the certified value.  The untampered certificate must
pass, so no rejection is vacuous.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
import pytest

from cyclecones import cones, fixtures, zariski
from cyclecones.cones import PolyCone, contains
from cyclecones.decomposition import Certificate, Decomposition
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.fixtures.checks import check_combination_reproduces, check_no_preceq_maximum
from cyclecones.linalg import combine, dot, reproduces
from cyclecones.polytope import RationalPolytope, inequality, vertex_enumeration
from cyclecones.rationals import rat, rat_str
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (
    DominationFailure,
    cone_geometry,
    decompose,
    decomposition_polytope,
    dominator_set,
    dominator_set_empty,
    preceq_maximum,
    verify_decomposition,
)

from conftest import TORIC_ALPHA, TORIC_C, TORIC_M, TORIC_OBJECTIVE

F = Fraction
BASIS = "tamper2"  # eff = the orthant, mov = {0 <= x <= y}


def _geometry():
    eff = PolyCone.from_generators(BASIS, [(1, 0), (0, 1)])
    mov = PolyCone.from_generators(BASIS, [(1, 1), (0, 1)])
    return cone_geometry("tamper", mov, eff, ClassVector(BASIS + "*", (1, 1)))


def _vector(coords):
    return ClassVector(BASIS, tuple(coords))


def contains_member():
    verdict = contains(_geometry().eff, _vector((3, 2)))

    def check(coeffs, target):
        return replace(verdict, combination=coeffs, vector=_vector(target)).verify()

    target = verdict.vector.coords
    return check, verdict.combination, target, (target[0] + 1, target[1])


def contains_separating():
    verdict = contains(_geometry().mov, _vector((3, 2)))
    assert not verdict

    def check(functional, target):
        # in the cone's dual basis, which a separating functional must use
        sep = ClassVector(verdict.cone.dual, functional)
        return replace(verdict, separating=sep, vector=_vector(target)).verify()

    f, target = verdict.separating.coords, verdict.vector.coords
    k = next(i for i, c in enumerate(f) if c != 0)
    moved = list(target)
    moved[k] -= Fraction(dot(f, target)) / f[k]  # now <f, target> = 0: no separation
    return check, f, target, tuple(moved)


def directedness_maximum():
    g = _geometry()
    report = preceq_maximum(g, decomposition_polytope(g, _vector((2, 3))))
    assert report.status == "maximum"
    vertices = report.polytope.vertices
    j = next(i for i, v in enumerate(vertices) if v.coords != report.maximum.coords)
    vertex = vertices[j]

    def check(combo, gap):
        # the report restricted to vertex j, whose gap maximum - vertex the
        # combination certifies
        polytope = replace(report.polytope, vertices=(vertex,))
        maximum = vertex + _vector(gap)
        return replace(
            report, polytope=polytope, maximum=maximum, domination=(combo,)
        ).verify()

    gap = (report.maximum - vertex).coords
    return check, report.domination[j], gap, (gap[0], gap[1] + 1)


def decomposition_positive_part():
    g = _geometry()
    dec = decompose(g, _vector((3, 2)))
    assert not dec.negative.is_zero()

    def check(combo, target):
        positive = _vector(target)
        certificates = (
            Certificate("positive-part-movable", {"combination": list(combo)}),
            dec.certificate("negative-part-pseudo-effective"),
        )
        # the optimum metadata moved along with the target, and the
        # combinations are checked before the recomputed optimum, so the
        # combination is what rejects
        objective = [rat(c) for c in dec.metadata["objective"]]
        metadata = {
            **dec.metadata,
            "objective_value": rat_str(dot(objective, target)),
            "optimal_face": [[rat_str(c) for c in target]],
            "optimum_unique": True,
        }
        return verify_decomposition(
            g,
            Decomposition(
                positive + dec.negative, positive, dec.negative, certificates, metadata
            ),
        )

    target = dec.positive.coords
    combo = tuple(dec.certificate("positive-part-movable").data["combination"])
    return check, combo, target, (target[0] + 1, target[1])


def fixture_combination_claim():
    cone = PolyCone.from_generators(BASIS, [(1, 0), (0, 1)])

    def check(coeffs, target):
        # verify_claims hands a check its arguments resolved and parsed; a
        # list without one coefficient per generator is refused as malformed
        # claim data before any witness, so it cannot pass
        args = dict(cone=cone, vector=_vector(target), coefficients=tuple(coeffs))
        if len(coeffs) != len(cone.generators):
            with pytest.raises(InputError, match="one per listed generator"):
                check_combination_reproduces(None, **args)
            return False
        status, _ = check_combination_reproduces(None, **args)
        return status == "pass"

    return check, (F(3), F(2)), (F(3), F(2)), (F(3), F(3))


def lp_optimality():
    rows = [((1, 0), 0), ((0, 1), 0), ((-1, -2), -4)]
    p = vertex_enumeration(
        RationalPolytope("tamperp", 2, tuple(inequality(a, b) for a, b in rows))
    )
    objective = (F(1), F(1))
    best = max(dot(objective, v.coords) for v in p.vertices)
    vertex = next(v for v in p.vertices if dot(objective, v.coords) == best)
    # a row r means <r[:-1], x> >= -r[-1]; the tight ones hold with equality
    tight = [r for r in p.inequalities if dot(r[:-1], vertex.coords) == -r[-1]]
    target = (*(-c for c in objective), best)
    y = nonneg_solve(tight, target)

    def check(coeffs, target):
        # target: minus the objective, then the maximum
        return reproduces(coeffs, tight, target)

    return check, y, target, target[:-1] + (target[-1] + 1,)


CASES = {
    case.__name__: case
    for case in (
        contains_member,
        contains_separating,
        directedness_maximum,
        decomposition_positive_part,
        fixture_combination_claim,
        lp_optimality,
    )
}


@pytest.mark.parametrize(
    "tamper", ["none", "negative-coefficient", "wrong-length", "perturbed-coordinate"]
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_verifiers_reject_tampered_certificates(case, tamper):
    check, certificate, target, moved = CASES[case]()
    certificate = tuple(certificate)
    if tamper == "negative-coefficient":
        certificate = tuple(-c for c in certificate)
        target = tuple(-c for c in target)
    elif tamper == "wrong-length":
        certificate += (F(0),)
    elif tamper == "perturbed-coordinate":
        target = moved
    assert check(certificate, tuple(target)) is (tamper == "none")


# -- directedness reports: the fields beyond the coefficient lists ------------


def _toric_geometry():
    eff = PolyCone.from_generators("toric3.curves", TORIC_C, dual="toric3.divisors")
    mov = PolyCone.from_generators("toric3.curves", TORIC_M, dual="toric3.divisors")
    return cone_geometry("toric", mov, eff, ClassVector("toric3.divisors", TORIC_OBJECTIVE))


def _toric_no_maximum():
    g = _toric_geometry()
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    report = preceq_maximum(g, decomposition_polytope(g, alpha))
    assert report.status == "no-maximum" and report.verify()
    return report


def test_no_maximum_claim_verifies_its_report_once(monkeypatch):
    calls = []

    def verify(report):
        calls.append(report)
        return False

    monkeypatch.setattr(zariski.DirectednessReport, "verify", verify)
    status, witness = check_no_preceq_maximum(
        None, geometry=_toric_geometry(), vector=ClassVector("toric3.curves", TORIC_ALPHA)
    )
    assert (status, witness, len(calls)) == ("fail", {"status": "no-maximum", "verified": False}, 1)


def test_directedness_rejects_maximum_outside_polytope():
    # eff generator 0 added to the maximum and 1 to each domination
    # combination's first coefficient: every combination still reproduces
    # maximum - vertex, but the moved point leaves the polytope
    g = _geometry()
    report = preceq_maximum(g, decomposition_polytope(g, _vector((2, 3))))
    assert report.status == "maximum" and report.verify()
    gens = report.eff.generator_rows()
    moved = report.maximum + report.eff.generators[0]
    domination = tuple((combo[0] + 1, *combo[1:]) for combo in report.domination)
    assert all(
        reproduces(combo, gens, (moved - v).coords)
        for combo, v in zip(domination, report.polytope.vertices)
    )
    assert not replace(report, maximum=moved, domination=domination).verify()


def test_directedness_rejects_degenerate_witness_pair():
    report = _toric_no_maximum()
    v0 = report.witness_pair[0]
    assert not replace(report, witness_pair=(v0, v0)).verify()


def test_directedness_rejects_failure_target_outside_pair():
    # a failure against a third vertex, with its own valid separation
    report = _toric_no_maximum()
    pair = {v.coords for v in report.witness_pair}
    vertices = report.polytope.vertices
    for k, failure in enumerate(report.failures):
        for t in vertices:
            verdict = contains(report.eff, failure.vertex - t)
            if t.coords in pair or verdict:
                continue
            third = DominationFailure(failure.vertex, t, verdict.separating)
            assert third.verify(report.eff)
            failures = report.failures[:k] + (third,) + report.failures[k + 1:]
            assert not replace(report, failures=failures).verify()
            return
    pytest.fail("no failure can be retargeted at a third vertex")


def test_directedness_rejects_witness_outside_polytope():
    # one more row, which the first witness violates, with a zero Farkas
    # multiplier: the vertex list, the failures and the Farkas vector all
    # still check, but the witness is no longer a point of the polytope
    report = _toric_no_maximum()
    s, (u, w) = report.polytope, report.witness_pair
    cut = inequality((1,) + (0,) * (s.dim - 1), u.coords[0] + 1)
    tampered = replace(s, inequalities=s.inequalities + (cut,))
    y = list(report.pair_certificate)
    y.insert(len(s.inequalities), 0)
    assert dominator_set(report.eff, tampered, u, w).certifies(True, tuple(y))
    assert not replace(report, polytope=tampered, pair_certificate=tuple(y)).verify()


def test_directedness_rejects_flipped_dominator_verdict():
    report = _toric_no_maximum()
    assert report.pair_dominator_set_empty is True
    flipped = not report.pair_dominator_set_empty
    assert not replace(report, pair_dominator_set_empty=flipped).verify()


def test_directedness_rejects_tampered_farkas_vector():
    # the Farkas vector with its last nonzero entry raised: the rows no
    # longer cancel
    report = _toric_no_maximum()
    y = list(report.pair_certificate)
    k = max(i for i, c in enumerate(y) if c)
    y[k] += 1
    assert not replace(report, pair_certificate=tuple(y)).verify()
    assert not replace(report, pair_certificate=None).verify()
    # zero cancels every row but proves nothing
    assert not replace(report, pair_certificate=(0,) * len(y)).verify()


def test_directedness_accepts_a_rescaled_farkas_vector():
    # a positive multiple of a Farkas vector proves the same emptiness
    report = _toric_no_maximum()
    doubled = tuple(2 * c for c in report.pair_certificate)
    dominators = dominator_set(report.eff, report.polytope, *report.witness_pair)
    assert dominators.certifies(True, doubled)
    assert replace(report, pair_certificate=doubled).verify()


def _p2_surfaces_maximum():
    g = fixtures.load("p2-hilb2").geometry("surfaces")
    report = preceq_maximum(g, decomposition_polytope(g, ClassVector(g.basis, (1, 0, 1))))
    assert report.status == "maximum" and report.verify()
    return report


def _relabelled(v):
    return ClassVector("other", v.coords)


def _first_failure(report, **fields):
    return (replace(report.failures[0], **fields), *report.failures[1:])


TAMPERED_REPORTS = {
    # p2-hilb2:surfaces at 1,0,1 has a maximum
    "maximum-missing": ("maximum", lambda r: replace(r, maximum=None)),
    "maximum-in-another-basis": ("maximum", lambda r: replace(r, maximum=_relabelled(r.maximum))),
    "domination-short": ("maximum", lambda r: replace(r, domination=r.domination[:-1])),
    "domination-long": (
        "maximum", lambda r: replace(r, domination=r.domination + r.domination[:1])
    ),
    # toric-3fold:curves at 1,1,0,1,2 has none
    "witness-pair-missing": ("no-maximum", lambda r: replace(r, witness_pair=None)),
    "witness-in-another-basis": (
        "no-maximum",
        lambda r: replace(r, witness_pair=(_relabelled(r.witness_pair[0]), r.witness_pair[1])),
    ),
    "failure-missing": ("no-maximum", lambda r: replace(r, failures=r.failures[1:])),
    "failure-target-in-another-basis": (
        "no-maximum",
        lambda r: replace(r, failures=_first_failure(r, target=_relabelled(r.failures[0].target))),
    ),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED_REPORTS))
def test_directedness_rejects_tampered_report(tamper):
    # each tamper leaves the rest of the report valid, so the one branch
    # it aims at rejects, and returns False instead of raising
    which, edit = TAMPERED_REPORTS[tamper]
    report = _p2_surfaces_maximum() if which == "maximum" else _toric_no_maximum()
    assert edit(report).verify() is False


def test_domination_failure_rejects_classes_in_another_space():
    report = _toric_no_maximum()
    failure = report.failures[0]
    assert failure.verify(report.eff)
    for fields in (
        {"target": _relabelled(failure.target)},
        {"vertex": _relabelled(failure.vertex)},
        {"target": ClassVector(failure.target.basis, failure.target.coords[:-1])},
        {"separating": _relabelled(failure.separating)},
    ):
        assert replace(failure, **fields).verify(report.eff) is False


# -- certificates are exact: int and Fraction entries only --------------------


def test_contains_certificate_rejects_inexact_coefficients():
    cone = PolyCone.from_generators("unit", [(1, 0), (0, 1)])
    verdict = contains(cone, ClassVector("unit", (1, 2)))
    assert verdict.combination == (2, 1) and verdict.verify()
    for combination in ((2.0, 1.0), (2, True)):
        assert not replace(verdict, combination=combination).verify()


def test_decomposition_rejects_inexact_combinations():
    g = _geometry()
    dec = decompose(g, _vector((3, 2)))
    assert verify_decomposition(g, dec)
    negative = dec.certificate("negative-part-pseudo-effective").data["combination"]
    assert negative == [0, 1]
    for fact, combination in (
        ("positive-part-movable", [0.0, 2.0]),
        ("negative-part-pseudo-effective", [0.0, 1.0]),
        ("negative-part-pseudo-effective", [False, True]),
    ):
        certificates = tuple(
            Certificate(fact, {"combination": combination}) if c.fact == fact else c
            for c in dec.certificates
        )
        assert not verify_decomposition(g, replace(dec, certificates=certificates))


def test_pair_certificate_rejects_inexact_farkas_vector():
    report = _toric_no_maximum()
    tripled = tuple(3 * c for c in report.pair_certificate)  # integral
    dominators = dominator_set(report.eff, report.polytope, *report.witness_pair)
    assert dominators.certifies(True, tripled)
    inexact = tuple(map(float, tripled))
    assert not dominators.certifies(True, inexact)
    assert not replace(report, pair_certificate=inexact).verify()


def test_point_certificate_rejects_inexact_coordinates():
    # a nonempty verdict with a float point fails rather than raising: on
    # the toric report, and on a toric pair whose dominator set has a point
    report = _toric_no_maximum()
    u, w = report.witness_pair
    inexact = tuple(map(float, u.coords))
    assert not dominator_set(report.eff, report.polytope, u, w).certifies(False, inexact)
    assert not replace(
        report, pair_dominator_set_empty=False, pair_certificate=inexact
    ).verify()
    g, s = _toric_geometry(), report.polytope
    u, w = next(
        pair for pair in combinations(s.vertices, 2)
        if not dominator_set_empty(g, s, *pair)[0]
    )
    point = dominator_set_empty(g, s, u, w)[1]
    dominators = dominator_set(report.eff, s, u, w)
    assert dominators.certifies(False, point)
    assert not dominators.certifies(False, tuple(map(float, point)))


# -- decompositions: the optimum metadata -------------------------------------


def _lex_smaller_optimum(metadata):
    # positive + (-1, 1, 0, 0, 0) attains the same objective value: the
    # positive part stays on the face but is no longer its lexicographic minimum
    objective = [rat(c) for c in metadata["objective"]]
    first = [rat(c) for c in metadata["optimal_face"][0]]
    shifted = [first[0] - 1, first[1] + 1, *first[2:]]
    assert dot(objective, shifted) == dot(objective, first)
    face = metadata["optimal_face"] + [[rat_str(c) for c in shifted]]
    return {**metadata, "optimal_face": face}


TAMPERED_OPTIMA = {
    "objective-value": lambda m: {**m, "objective_value": "999"},
    "face-vertex-value": lambda m: {**m, "optimal_face": [["0"] * 5]},
    "positive-not-lexmin": _lex_smaller_optimum,
    "uniqueness-flag": lambda m: {**m, "optimum_unique": not m["optimum_unique"]},
    "uniqueness-flag-as-int": lambda m: {**m, "optimum_unique": int(m["optimum_unique"])},
    "missing-key": lambda m: {k: v for k, v in m.items() if k != "optimal_face"},
    "malformed-value": lambda m: {**m, "objective_value": "1/0"},
    "geometry-name": lambda m: {**m, "geometry": "other"},
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED_OPTIMA))
def test_decomposition_rejects_tampered_optimum(tamper):
    g = _toric_geometry()
    dec = decompose(g, ClassVector("toric3.curves", TORIC_ALPHA))
    assert dec.metadata["optimum_unique"] is False and verify_decomposition(g, dec)
    metadata = TAMPERED_OPTIMA[tamper](dec.metadata)
    assert not verify_decomposition(g, replace(dec, metadata=metadata))


@pytest.mark.parametrize("tamper", sorted(TAMPERED_OPTIMA))
def test_movable_decomposition_rejects_tampered_optimum(tamper):
    # decompose finds a movable class's record with no polytope; the
    # verifier recomputes it, and the same tampers fail on the sixth mov
    # generator of toric-3fold:curves
    g = _toric_geometry()
    dec = decompose(g, ClassVector("toric3.curves", TORIC_M[5]))
    assert dec.negative.is_zero() and verify_decomposition(g, dec)
    metadata = TAMPERED_OPTIMA[tamper](dec.metadata)
    assert not verify_decomposition(g, replace(dec, metadata=metadata))


def test_movable_class_rejects_a_smaller_positive_part():
    # (1, 2) is movable; (1, 1) + (0, 1) splits it into a movable and an
    # eff part with honest combinations, but (1, 1) is not its positive part
    g = _geometry()
    dec = decompose(g, _vector((1, 2)))
    assert dec.negative.is_zero() and verify_decomposition(g, dec)
    smaller = _vertex_record(g, dec, _vector((1, 1)))
    assert smaller.negative == _vector((0, 1))
    assert not verify_decomposition(g, smaller)


def test_decomposition_rejects_a_zero_positive_part_with_the_true_metadata():
    # toric-3fold:curves at coefficients (1, 0, 1, 1, 1) on eff's generators:
    # the positive part is (0, 0, 0, 1, 1).  The forgery P = 0, N = alpha has
    # honest membership combinations and the true record's metadata, so only
    # the check that the positive part heads the optimal face rejects it
    g = fixtures.load("toric-3fold").geometry("curves")
    alpha = ClassVector(g.basis, combine((1, 0, 1, 1, 1), g.eff.generator_rows(), g.dim))
    dec = decompose(g, alpha)
    assert dec.positive.coords == (0, 0, 0, 1, 1) and verify_decomposition(g, dec)
    zero = alpha - alpha
    certificates = tuple(
        Certificate(fact, {"combination": list(contains(cone, part).combination)})
        for fact, cone, part in (
            ("positive-part-movable", g.mov, zero),
            ("negative-part-pseudo-effective", g.eff, alpha),
        )
    )
    forged = Decomposition(alpha, zero, alpha, certificates, dec.metadata)
    assert not verify_decomposition(g, forged)


def test_decomposition_rejects_certificate_without_combination():
    g = _geometry()
    dec = decompose(g, _vector((3, 2)))
    hollow = (Certificate("positive-part-movable", {}), *dec.certificates[1:])
    assert not verify_decomposition(g, replace(dec, certificates=hollow))


def test_decomposition_names_its_geometry():
    g = _toric_geometry()
    dec = decompose(g, ClassVector("toric3.curves", TORIC_ALPHA))
    assert verify_decomposition(g, dec)
    assert not verify_decomposition(replace(g, name="other"), dec)


def _vertex_record(g, dec, vertex):
    """``dec`` with ``vertex`` as its positive part, honest membership
    combinations and optimum metadata claiming that vertex alone."""
    negative = dec.input - vertex
    certificates = (
        Certificate(
            "positive-part-movable", {"combination": list(contains(g.mov, vertex).combination)}
        ),
        Certificate(
            "negative-part-pseudo-effective",
            {"combination": list(contains(g.eff, negative).combination)},
        ),
    )
    objective = [rat(c) for c in dec.metadata["objective"]]
    metadata = {
        **dec.metadata,
        "objective_value": rat_str(dot(objective, vertex.coords)),
        "optimal_face": [[rat_str(c) for c in vertex.coords]],
        "optimum_unique": True,
    }
    return Decomposition(dec.input, vertex, negative, certificates, metadata)


def test_decomposition_rejects_every_single_vertex_optimum():
    # the optimum is a two-vertex face; a record naming any one vertex as
    # the unique optimum is false, whether or not that vertex is optimal
    g = _toric_geometry()
    alpha = ClassVector("toric3.curves", TORIC_ALPHA)
    dec = decompose(g, alpha)
    assert len(dec.metadata["optimal_face"]) == 2
    vertices = decomposition_polytope(g, alpha).vertices
    assert len(vertices) == 7
    for vertex in vertices:
        assert not verify_decomposition(g, _vertex_record(g, dec, vertex)), vertex.coords


# -- decompositions: the directedness verdict -----------------------------------

TAMPERED_VERDICTS = {
    # toric-3fold:curves at 1,1,0,1,2 has no maximum
    "no-maximum-claimed-certified": (
        "toric",
        {"positive_part_status": "certified-preceq-maximum", "preceq_maximum": "maximum"},
    ),
    "no-maximum-status-only": ("toric", {"positive_part_status": "certified-preceq-maximum"}),
    "no-maximum-verdict-only": ("toric", {"preceq_maximum": "maximum"}),
    # tamper2 at (3, 2) has the positive part as its certified maximum
    "maximum-claimed-candidate": (
        "tamper2", {"positive_part_status": "objective-maximal-candidate"}
    ),
    "maximum-verdict-flipped": ("tamper2", {"preceq_maximum": "no-maximum"}),
    "verdict-missing": ("tamper2", {"preceq_maximum": None}),
    # tamper2 at (1, 2) is movable, its own certified maximum
    "movable-claimed-candidate": ("movable", {"positive_part_status": "objective-maximal-candidate"}),
    "movable-verdict-flipped": ("movable", {"preceq_maximum": "no-maximum"}),
    "movable-verdict-missing": ("movable", {"preceq_maximum": None}),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED_VERDICTS))
def test_decomposition_rejects_tampered_directedness_verdict(tamper):
    which, fields = TAMPERED_VERDICTS[tamper]
    if which == "toric":
        g = _toric_geometry()
        dec = decompose(g, ClassVector("toric3.curves", TORIC_ALPHA))
        assert dec.metadata["preceq_maximum"] == "no-maximum"
    else:
        g = _geometry()
        dec = decompose(g, _vector((3, 2) if which == "tamper2" else (1, 2)))
        assert dec.metadata["positive_part_status"] == "certified-preceq-maximum"
        assert dec.negative.is_zero() is (which == "movable")
    assert verify_decomposition(g, dec)
    metadata = {**dec.metadata, **fields}
    assert not verify_decomposition(g, replace(dec, metadata=metadata))


@pytest.mark.parametrize("which", ["toric", "tamper2"])
def test_decomposition_requires_the_proof_it_builds_to_verify(which, monkeypatch):
    # decompose records its verdict without a proof; the verifier builds
    # one with preceq_maximum, and a proof that fails its own re-check
    # rejects an untouched record
    from cyclecones import zariski

    if which == "toric":
        g, alpha = _toric_geometry(), ClassVector("toric3.curves", TORIC_ALPHA)

        def forge(report):  # the dominator-set verdict flipped
            return replace(report, pair_dominator_set_empty=not report.pair_dominator_set_empty)

    else:
        g, alpha = _geometry(), _vector((3, 2))

        def forge(report):  # a peel certificate for another difference
            return replace(report, domination=((F(1),) * 2,) + report.domination[1:])

    dec = decompose(g, alpha)
    assert verify_decomposition(g, dec)
    honest = zariski.preceq_maximum
    monkeypatch.setattr(zariski, "preceq_maximum", lambda g, s: forge(honest(g, s)))
    assert not verify_decomposition(g, dec)


# -- decompositions: what the verifier does not call a wrong record ----------


def test_verifier_work_budget_raises_instead_of_failing_the_record(monkeypatch):
    # decompose returns a movable class with no double description; the
    # verifier recomputes its polytope, whose budget error used to read as a
    # forged record (False), as on tests/data/hd10.json's movable class
    g = _toric_geometry()
    dec = decompose(g, ClassVector("toric3.curves", TORIC_M[5]))
    assert dec.negative.is_zero()
    monkeypatch.setattr(cones, "_MAX_DD_PAIRS", 1)
    with pytest.raises(DomainError, match="pair-test budget"):
        verify_decomposition(g, dec)


def test_verifier_internal_fault_raises_instead_of_failing_the_record(monkeypatch):
    g = _geometry()
    dec = decompose(g, _vector((3, 2)))  # a certified maximum: the report peels

    def broken(gen_values, slack):
        raise CycleConesError("representations disagree: peeling found no eff combination")

    monkeypatch.setattr(zariski, "_peel", broken)
    with pytest.raises(CycleConesError, match="peeling found no eff combination"):
        verify_decomposition(g, dec)


def test_verifier_fails_records_outside_the_geometry_before_any_double_description(
    monkeypatch,
):
    g = _geometry()
    dec = decompose(g, _vector((3, 2)))
    monkeypatch.setattr(cones, "_MAX_DD_PAIRS", 0)  # any double description raises
    outside = _vector((-1, 2))  # not pseudo-effective
    assert not verify_decomposition(g, replace(dec, input=outside, negative=outside - dec.positive))
    for vector in (_vector((3,)), _vector((3, 2, 0)), ClassVector("other", (3, 2))):
        record = replace(dec, input=vector, positive=vector, negative=vector.scale(0))
        assert not verify_decomposition(g, record)

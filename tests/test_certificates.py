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
from types import SimpleNamespace

import pytest

from cyclecones.cones import PolyCone, contains
from cyclecones.decomposition import Certificate, Decomposition
from cyclecones.fixtures.checks import check_combination_reproduces
from cyclecones.linalg import dot, reproduces
from cyclecones.polytope import RationalPolytope, inequality, vertex_enumeration
from cyclecones.rationals import rat, rat_str
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (
    DominationFailure,
    cone_geometry,
    decompose,
    decomposition_polytope,
    pair_certified,
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
        # a fresh basis name per length, so a wrong-length functional exists
        sep = ClassVector(f"tamper.f{len(functional)}", functional)
        return replace(verdict, separating=sep, vector=_vector(target)).verify()

    f, target = verdict.separating.coords, verdict.vector.coords
    k = next(i for i, c in enumerate(f) if c != 0)
    moved = list(target)
    moved[k] -= dot(f, target) / f[k]  # now <f, target> = 0: no separation
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
        fixture = SimpleNamespace(cone=lambda _: cone, vector=lambda _: _vector(target))
        args = {"cone": "eff", "vector": "v", "coefficients": list(coeffs)}
        return check_combination_reproduces(fixture, args)[0] == "pass"

    return check, (F(3), F(2)), (F(3), F(2)), (F(3), F(3))


def lp_optimality():
    p = vertex_enumeration(
        RationalPolytope.from_inequalities(
            "tamperp", 2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -4)]
        )
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
    assert pair_certified(report.eff, tampered, u, w, True, tuple(y))
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
    assert pair_certified(report.eff, report.polytope, *report.witness_pair, True, doubled)
    assert replace(report, pair_certificate=doubled).verify()


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
        dec = decompose(g, _vector((3, 2)))
        assert dec.metadata["positive_part_status"] == "certified-preceq-maximum"
    assert verify_decomposition(g, dec)
    metadata = {**dec.metadata, **fields}
    assert not verify_decomposition(g, replace(dec, metadata=metadata))

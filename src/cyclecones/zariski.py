"""Decomposition engine over explicit movable/pseudo-effective cone data.

Given the two cones and a pseudo-effective class, the candidate positive
parts form a bounded polytope: movable classes dominated by the input.
A positive part is selected by exact maximization of a degree functional
(strictly positive on the effective cone), and the engine certifies
whether the candidate set has a domination-order maximum; when it does,
the selected part equals it for every valid objective, and the output
says so, with certificates found by peeling along faces (no simplex).
When it does not, the order-theoretic failure is witnessed by a vertex
pair with no common dominator, checked by double description and
certified by a Farkas vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Any

from .cones import PolyCone, contains, dd_convert, is_salient
from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .linalg import dot, reproduces, separates, violated
from .polytope import (
    RationalPolytope,
    inequality,
    maximize_linear,
    vertex_enumeration,
)
from .rationals import rat_str
from .simplex import nonneg_solve
from .vectors import ClassVector


@dataclass(frozen=True)
class ConeGeometry:
    """Validated cone data: movable inside pseudo-effective, both converted."""

    name: str
    mov: PolyCone
    eff: PolyCone
    degree_functional: ClassVector | None = None

    def __post_init__(self):
        if not (self.mov.canonical and self.eff.canonical):
            raise InputError("cone geometry needs converted cones (use cone_geometry)")

    @property
    def basis(self) -> str:
        return self.eff.basis

    @property
    def dim(self) -> int:
        return self.eff.dim


def cone_geometry(
    name: str,
    mov: PolyCone,
    eff: PolyCone,
    degree_functional: ClassVector | None = None,
) -> ConeGeometry:
    """Build a ConeGeometry, enforcing every structural precondition."""
    if (mov.basis, mov.dim, mov.dual) != (eff.basis, eff.dim, eff.dual):
        raise InputError("movable and effective cones live in different spaces")
    eff = dd_convert(eff)
    mov = dd_convert(mov)
    if not is_salient(eff):
        raise DomainError("effective cone must be salient")
    eff_rows = eff.inequality_rows()
    for g in mov.generators:
        if violated(eff_rows, g.coords) is not None:
            raise InputError(
                "movable cone is not contained in the effective cone; "
                f"offending generator {[rat_str(c) for c in g.coords]}"
            )
    geometry = ConeGeometry(name, mov, eff, degree_functional)
    if degree_functional is not None:
        validate_objective(geometry, degree_functional)
    return geometry


def validate_objective(g: ConeGeometry, objective: ClassVector) -> None:
    """A degree functional must be strictly positive on every eff ray."""
    if objective.basis != g.eff.dual or objective.dim != g.dim:
        raise InputError("objective must be a functional in the dual basis")
    for ray in g.eff.generators:
        value = dot(objective.coords, ray.coords)
        if value <= 0:
            raise InputError(
                "objective is not strictly positive on the effective cone; "
                f"ray {[rat_str(c) for c in ray.coords]} gives {rat_str(value)}"
            )


def decomposition_polytope(g: ConeGeometry, alpha: ClassVector) -> RationalPolytope:
    """The polytope of movable classes dominated by ``alpha``, with vertices.

    Inequalities: the movable cone's on the candidate, and the effective
    cone's on the leftover.  Salience of the effective cone bounds it; it
    always contains the origin.
    """
    if alpha.basis != g.basis or alpha.dim != g.dim:
        raise InputError("class not in the geometry's coordinate space")
    rows = [inequality(l, 0) for l in g.mov.int_rows[1]]
    for m in g.eff.int_rows[1]:
        bound = dot(m, alpha.coords)
        if bound < 0:
            raise DomainError(
                "class is not pseudo-effective",
                separating_functional=[rat_str(c) for c in m],
            )
        rows.append(inequality([-c for c in m], -bound))
    polytope = RationalPolytope(g.basis, g.dim, tuple(rows), dual=g.eff.dual)
    return vertex_enumeration(polytope)


@dataclass(frozen=True)
class DominationFailure:
    """One vertex's certified failure to dominate a target."""

    vertex: ClassVector
    target: ClassVector
    separating: ClassVector

    def verify(self, eff: PolyCone) -> bool:
        gap = self.vertex - self.target
        return separates(self.separating.coords, eff.generator_rows(), gap.coords)


@dataclass(frozen=True)
class DirectednessReport:
    """Outcome of the maximum-element check on a decomposition polytope."""

    status: str  # "maximum" | "no-maximum"
    polytope: RationalPolytope
    eff: PolyCone
    maximum: ClassVector | None = None
    domination: tuple[tuple[Fraction, ...], ...] = ()
    witness_pair: tuple[ClassVector, ClassVector] | None = None
    failures: tuple[DominationFailure, ...] = ()
    pair_dominator_set_empty: bool | None = None
    pair_certificate: tuple[Fraction, ...] | None = None  # not in to_json

    def verify(self) -> bool:
        """Re-verify every recorded certificate by direct arithmetic.

        The maximum and both witnesses must satisfy every row of the
        polytope.  A Farkas vector then proves an empty dominator set
        outright; a nonempty verdict, like the domination table, still
        rests on the vertex list being complete.
        """
        vertices = self.polytope.vertices or ()
        if self.status == "maximum":
            if self.maximum is None or len(self.domination) != len(vertices):
                return False
            if not self.polytope.holds_at(self.maximum.coords):
                return False
            gens = self.eff.generator_rows()
            return all(
                reproduces(combo, gens, (self.maximum - v).coords)
                for combo, v in zip(self.domination, vertices)
            )
        if self.witness_pair is None:
            return False
        vertex_coords = {v.coords for v in vertices}
        pair = {v.coords for v in self.witness_pair}
        if len(pair) != 2 or not pair <= vertex_coords:
            return False  # two distinct vertices
        if not all(self.polytope.holds_at(v.coords) for v in self.witness_pair):
            return False
        if any(f.target.coords not in pair for f in self.failures):
            return False
        failed = {f.vertex.coords for f in self.failures}
        if failed != vertex_coords:
            return False
        return all(f.verify(self.eff) for f in self.failures) and pair_certified(
            self.eff, self.polytope, *self.witness_pair,
            self.pair_dominator_set_empty, self.pair_certificate,
        )

    def to_json(self) -> dict:
        payload: dict[str, Any] = {"status": self.status}
        if self.maximum is not None:
            payload["maximum"] = [rat_str(c) for c in self.maximum.coords]
        if self.witness_pair is not None:
            u, w = self.witness_pair
            payload["witness_pair"] = [
                [rat_str(c) for c in u.coords],
                [rat_str(c) for c in w.coords],
            ]
            payload["pair_dominator_set_empty"] = self.pair_dominator_set_empty
            payload["failures"] = [
                {
                    "vertex": [rat_str(c) for c in f.vertex.coords],
                    "fails_to_dominate": [rat_str(c) for c in f.target.coords],
                    "separating_functional": [
                        rat_str(c) for c in f.separating.coords
                    ],
                }
                for f in self.failures
            ]
        payload["vertices"] = [
            [rat_str(c) for c in v.coords] for v in (self.polytope.vertices or ())
        ]
        return payload


def preceq_maximum(g: ConeGeometry, s: RationalPolytope) -> DirectednessReport:
    """Decide whether the candidate polytope has a domination maximum.

    A maximum, if any, must be a vertex (salience), and dominating every
    vertex suffices for the whole polytope (convexity), so the decision is
    exact over a table of the vertices' eff facet values; certificates
    come from ``_peel``.  In the negative case some vertex pair has no
    vertex dominating both (a finite directed order would have a maximum);
    each failure names the first facet where the vertex falls short, and
    the pair gets an exact emptiness check of its whole dominator set.
    """
    s = vertex_enumeration(s)
    vertices = s.vertices
    if not vertices:
        raise DomainError("empty candidate polytope")

    # integer values: the canonical primitive facets (a positive rescaling
    # keeps the order and the peel's ratios) on points over one common
    # denominator
    facets = g.eff.int_rows[1]
    gens = g.eff.generator_rows()
    scale = lcm(*(c.denominator for row in gens for c in row),
                *(c.denominator for v in vertices for c in v.coords))

    def table(row) -> tuple[int, ...]:
        point = [c.numerator * (scale // c.denominator) for c in row]
        return tuple(dot(l, point) for l in facets)

    values = [table(v.coords) for v in vertices]

    def dominates(i: int, j: int) -> bool:
        return all(a >= b for a, b in zip(values[i], values[j]))

    indices = range(len(vertices))
    for top in indices:
        if all(dominates(top, j) for j in indices):
            gen_values = [table(gen) for gen in gens]
            domination = tuple(
                _peel(gen_values, [a - b for a, b in zip(values[top], values[j])])
                for j in indices
            )
            return DirectednessReport(
                "maximum", s, g.eff, maximum=vertices[top], domination=domination
            )

    for i, j in combinations(indices, 2):
        if any(dominates(k, i) and dominates(k, j) for k in indices):
            continue
        failures = []
        for k in indices:
            t = j if dominates(k, i) else i
            cut = next(l for l, (a, b) in enumerate(zip(values[k], values[t])) if a < b)
            cert = DominationFailure(vertices[k], vertices[t], g.eff.inequalities[cut])
            failures.append(cert)
        u, w = vertices[i], vertices[j]
        empty, certificate = dominator_set_empty(g, s, u, w)
        return DirectednessReport(
            "no-maximum",
            s,
            g.eff,
            witness_pair=(u, w),
            failures=tuple(failures),
            pair_dominator_set_empty=empty,
            pair_certificate=certificate,
        )
    raise DomainError(
        "inconsistent state: pairwise dominated vertices but no maximum"
    )


def _peel(gen_values, slack) -> tuple[Fraction, ...]:
    """Nonnegative eff-generator coefficients for a difference inside eff.

    Each step removes from the slack (the difference's facet values) the
    largest multiple of the first generator vanishing wherever it does, so
    in the residual's minimal face.  A new facet turns tight: at most
    ``dim`` steps, and zero slack is a zero residual (salience).
    """
    coeffs = [Fraction(0)] * len(gen_values)
    den = 1  # the residual's facet values are slack / den
    for _ in range(len(slack) + 1):  # each step makes another facet tight
        if not any(slack):
            return tuple(coeffs)
        zeros = [l for l, sl in enumerate(slack) if sl == 0]
        face = (k for k, gv in enumerate(gen_values) if not any(gv[l] for l in zeros))
        pick = next(face, None)
        if pick is None:
            break
        gv = gen_values[pick]
        ratios = ((sl, x) for x, sl in zip(gv, slack) if x > 0)
        sl, x = min(ratios, key=lambda pair: Fraction(*pair))
        coeffs[pick] += Fraction(sl, x * den)
        slack = [x * a - sl * b for a, b in zip(slack, gv)]
        den *= x
    raise DomainError("representations disagree: peeling found no eff combination")


def _dominators(eff: PolyCone, s: RationalPolytope, u, w) -> RationalPolytope:
    """``s`` with one more row <l, z> >= max(<l, u>, <l, w>) per eff facet l."""
    rows = tuple(
        inequality(l, max(dot(l, u.coords), dot(l, w.coords)))
        for l in eff.inequality_rows()
    )
    return RationalPolytope(s.basis, s.dim, s.inequalities + rows, dual=s.dual)


def pair_certified(eff: PolyCone, s: RationalPolytope, u, w, empty, certificate) -> bool:
    """Re-check a ``dominator_set_empty`` verdict on its certificate: a
    point of the set, or y >= 0 whose combination of the set's rows is
    zero but for a negative last entry."""
    dominators = _dominators(eff, s, u, w)
    rows = dominators.inequalities
    if empty is True and certificate is not None:
        return reproduces(certificate, [r[:-1] for r in rows], (0,) * s.dim) and (
            dot(certificate, [r[-1] for r in rows]) < 0
        )
    return empty is False and certificate is not None and dominators.holds_at(certificate)


def dominator_set_empty(
    g: ConeGeometry, s: RationalPolytope, u: ClassVector, w: ClassVector
) -> tuple[bool, tuple[Fraction, ...]]:
    """Exact emptiness of {z in s : z dominates u and z dominates w}, and a
    certificate: a point of the set, or a Farkas vector (Schrijver,
    *Theory of Linear and Integer Programming*, §7).

    Decided by one double description (``vertex_enumeration``) of the rows
    of ``s`` plus <l, z> >= max(<l, u>, <l, w>) per eff facet l.  This is
    the strong form of the witness: no point of the polytope, vertex or
    not, dominates both.  When the set is empty, ``nonneg_solve`` on those
    rows r_i = (a_i, -b_i) finds y >= 0 with sum y_i r_i = (0, ..., 0, -1),
    so sum y_i a_i = 0 and sum y_i b_i = 1: no point satisfies every row.
    """
    dominators = _dominators(g.eff, s, u, w)
    points = vertex_enumeration(dominators)
    if points.vertices:
        return False, points.vertices[0].coords
    y = nonneg_solve(dominators.inequalities, (0,) * s.dim + (-1,))
    if y is None:
        raise DomainError("representations disagree: no Farkas vector for an empty set")
    return True, y


def decompose(
    g: ConeGeometry,
    alpha: ClassVector,
    objective: ClassVector | None = None,
) -> Decomposition:
    """Positive part by exact degree maximization over the candidate set.

    The full optimal face is reported; the canonical representative is its
    lexicographically smallest vertex (a labelled convention, not a
    mathematical claim).  Metadata distinguishes a certified
    domination-order maximum from a merely objective-maximal candidate.
    """
    if objective is None:
        objective = g.degree_functional
    if objective is None:
        raise InputError("no objective supplied and the geometry has no default")
    validate_objective(g, objective)

    s = decomposition_polytope(g, alpha)
    value, face = maximize_linear(s, objective)
    positive = face[0]  # vertices arrive sorted: lexicographically smallest
    negative = alpha - positive

    report = preceq_maximum(g, s)
    certificates = (
        Certificate(
            "positive-part-movable",
            {"combination": list(contains(g.mov, positive).combination)},
        ),
        Certificate(
            "negative-part-pseudo-effective",
            {"combination": list(contains(g.eff, negative).combination)},
        ),
    )
    return Decomposition(
        input=alpha,
        positive=positive,
        negative=negative,
        certificates=certificates,
        metadata=_metadata(g, objective, value, face, report),
    )


def negative_boundary_check(g: ConeGeometry, dec: Decomposition) -> bool:
    """Report whether the negative part lies on the effective boundary.

    True when some facet functional of the effective cone vanishes on it
    (the zero class counts as boundary).  This is a report, not an
    assertion: it is produced for decompositions selected by degree
    maximization, whose negative parts are not covered by any contract.
    """
    n = dec.negative
    if n.is_zero():
        return True
    rows = g.eff.inequality_rows()
    if violated(rows, n.coords) is not None:
        return False
    return any(dot(l, n.coords) == 0 for l in rows)


def _metadata(g: ConeGeometry, objective, value, face, report) -> dict[str, Any]:
    """What ``decompose`` records about the optimum (``face[0]`` is the
    positive part) and the directedness verdict."""
    is_max = report.status == "maximum" and report.maximum.coords == face[0].coords
    status = "certified-preceq-maximum" if is_max else "objective-maximal-candidate"
    return {
        "method": "degree-maximization",
        "geometry": g.name,
        "objective": [rat_str(c) for c in objective.coords],
        "objective_value": rat_str(value),
        "optimal_face": [[rat_str(c) for c in v.coords] for v in face],
        "optimum_unique": len(face) == 1,
        "positive_part_status": status,
        "preceq_maximum": report.status,
        "canonical_choice": "lexicographically-smallest-optimal-vertex",
    }


def verify_decomposition(g: ConeGeometry, dec: Decomposition) -> bool:
    """Re-verify a decomposition against its geometry from scratch.

    The split and both membership combinations are checked by arithmetic.
    One recomputation for the recorded objective, which must be valid,
    checks the rest: the positive part heads the optimal face, the
    metadata (geometry name included) is what ``decompose`` records, and
    the directedness report verifies.  A malformed record fails.
    """
    if (dec.positive + dec.negative).coords != dec.input.coords:
        return False
    try:
        for fact, cone, part in (
            ("positive-part-movable", g.mov, dec.positive),
            ("negative-part-pseudo-effective", g.eff, dec.negative),
        ):
            cert = dec.certificate(fact)
            if cert is None or not reproduces(
                cert.data["combination"], cone.generator_rows(), part.coords
            ):
                return False
        objective = ClassVector(g.eff.dual, tuple(dec.metadata["objective"]))
        validate_objective(g, objective)
        s = decomposition_polytope(g, dec.input)
        value, face = maximize_linear(s, objective)
        report = preceq_maximum(g, s)
    except (KeyError, TypeError, CycleConesError):
        return False
    return (
        report.verify()
        and face[0] == dec.positive
        # repr, unlike ==, tells an optimum_unique of 1 from True
        and repr(dict(dec.metadata)) == repr(_metadata(g, objective, value, face, report))
    )

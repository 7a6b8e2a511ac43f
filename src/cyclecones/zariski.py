"""Decomposition engine over explicit movable/pseudo-effective cone data.

A ``ConeGeometry`` converts its two cones and checks them itself, however
it is built.  Given one and a pseudo-effective class, the candidate positive
parts form a bounded polytope: movable classes dominated by the input.
A positive part is selected by exact maximization of a degree functional
(strictly positive on the effective cone).  A domination-order maximum of
the candidate set, when one exists, is the unique optimum of every such
functional.  A vertex is that maximum iff its eff facet values are the
column-wise maxima over all vertices, and ``decompose`` records this
verdict for its positive part.  The proof is ``preceq_maximum``'s, by the
same test: that vertex, if one is, with one eff combination per vertex
(no simplex); else a vertex pair with disjoint dominator bitmasks, checked
by double description and certified by a Farkas vector.  On a simplicial
eff, where each generator is nonzero on one facet alone, a combination is
read off one facet per generator: it has the difference's facet values,
which fix a class of a salient eff, so it is exact.  Any other eff's
combinations are found by peeling along faces.  ``verify_decomposition``
builds that proof, re-verifies it, and cross-checks the recorded verdict
against it: two independent routes to one answer.  A step that cannot fail
on converted cones (a peel that finds no combination, an empty set without
a Farkas vector) raises ``CycleConesError``, an internal error, never a
``DomainError``.

A movable class needs no polytope.  It is a candidate, and it dominates
every candidate z, since it minus z is eff by the definition of the set;
so it is its own positive part, the domination maximum and the unique
optimum.  ``decompose`` returns it after one membership test on the mov
facets; ``verify_decomposition`` still recomputes the polytope and its
``preceq_maximum`` report for it, so the two routes stay independent.
Every other class's polytope extends the movable rows' prefix system
``ConeGeometry.mov_start``, and a dominator set extends the polytope;
``polytope`` owns their rows and certificates, and resumes each one's
double description from the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import ge
from typing import Any

from .cones import PolyCone, contains, dd_convert, is_salient
from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .linalg import dot, reproduces, separates, violated
from .polytope import (RationalPolytope, emptiness, inequality, maximize_linear,
                       vertex_enumeration, vertex_table)
from .rationals import rat_str
from .vectors import ClassVector


@dataclass(frozen=True)
class ConeGeometry:
    """Cone data that converts both cones and checks them when built: one
    space, eff salient, mov inside eff, a degree functional positive on eff."""

    name: str
    mov: PolyCone
    eff: PolyCone
    degree_functional: ClassVector | None = None

    def __post_init__(self):
        mov, eff = self.mov, self.eff
        if (mov.basis, mov.dim, mov.dual) != (eff.basis, eff.dim, eff.dual):
            raise InputError("movable and effective cones live in different spaces")
        object.__setattr__(self, "eff", dd_convert(eff))
        object.__setattr__(self, "mov", dd_convert(mov))
        if not is_salient(self.eff):
            raise DomainError("effective cone must be salient")
        eff_rows = self.eff.inequality_rows()
        for g in self.mov.generators:
            if violated(eff_rows, g.coords) is not None:
                raise InputError("movable cone is not contained in the effective cone; "
                                 f"offending generator {[rat_str(c) for c in g.coords]}")
        if self.degree_functional is not None:
            validate_objective(self, self.degree_functional)

    @property
    def basis(self) -> str:
        return self.eff.basis

    @property
    def dim(self) -> int:
        return self.eff.dim

    @cached_property
    def mov_start(self) -> RationalPolytope:
        """The prefix system of the mov rows <l, z> >= 0 that every
        decomposition polytope extends: built once, on first use."""
        rows = [inequality(l, 0) for l in self.mov.inequality_rows()]
        return RationalPolytope.prefix(self.basis, self.dim, rows, self.eff.dual)


def cone_geometry(
    name: str,
    mov: PolyCone,
    eff: PolyCone,
    degree_functional: ClassVector | None = None,
) -> ConeGeometry:
    """Build a ConeGeometry; its constructor converts and checks the cones."""
    return ConeGeometry(name, mov, eff, degree_functional)


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
    always contains the origin.  It extends ``g.mov_start``, so the vertex
    enumeration resumes from there.
    """
    g.eff.check_space(alpha)
    rows = []
    for m in g.eff.inequality_rows():
        bound = dot(m, alpha.coords)
        if bound < 0:
            raise DomainError(
                "class is not pseudo-effective",
                separating_functional=[rat_str(c) for c in m],
            )
        rows.append(inequality([-c for c in m], -bound))
    return vertex_enumeration(g.mov_start.extend(rows))


@dataclass(frozen=True)
class DominationFailure:
    """One vertex's certified failure to dominate a target."""

    vertex: ClassVector
    target: ClassVector
    separating: ClassVector

    def verify(self, eff: PolyCone) -> bool:
        """True iff ``separating``, in eff's dual basis, is >= 0 on eff and
        < 0 on vertex - target, two classes in eff's space."""
        space = (eff.basis, eff.dim)
        if any((v.basis, v.dim) != space for v in (self.vertex, self.target)):
            return False
        gap = self.vertex - self.target
        return self.separating.basis == eff.dual and separates(
            self.separating.coords, eff.generator_rows(), gap.coords
        )


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

        The maximum and both witnesses must be points of the polytope, in
        its basis.  A Farkas vector then proves an empty dominator set
        outright; a nonempty verdict, like the domination table, still
        rests on the vertex list being complete.
        """
        vertices = self.polytope.vertices or ()

        def point(v: ClassVector) -> bool:
            return v.basis == self.polytope.basis and self.polytope.holds_at(v.coords)

        if self.status == "maximum":
            if self.maximum is None or len(self.domination) != len(vertices):
                return False
            if not point(self.maximum):
                return False
            # point() pinned the maximum to the polytope's basis and length
            gens, top = self.eff.generator_rows(), self.maximum.coords
            return all(
                reproduces(combo, gens, tuple(a - b for a, b in zip(top, v.coords)))
                for combo, v in zip(self.domination, vertices)
            )
        if self.witness_pair is None:
            return False
        vertex_coords = {v.coords for v in vertices}
        pair = {v.coords for v in self.witness_pair}
        if len(pair) != 2 or not pair <= vertex_coords:
            return False  # two distinct vertices
        if not all(map(point, self.witness_pair)):
            return False
        if any(f.target.coords not in pair for f in self.failures):
            return False
        failed = {f.vertex.coords for f in self.failures}
        if failed != vertex_coords:
            return False
        return all(f.verify(self.eff) for f in self.failures) and dominator_set(
            self.eff, self.polytope, *self.witness_pair
        ).certifies(self.pair_dominator_set_empty, self.pair_certificate)

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
    exact over a table of the vertices' eff facet values.  A vertex
    dominates every vertex iff its row of the table is the column-wise
    maximum, so one pass over the columns decides; the row is unique, as
    the facet values of a salient full-dimensional eff fix the point.
    Certificates come from ``_peel``, one per vertex: on a simplicial eff
    read off one facet per generator, exact because the facet values fix
    the difference, otherwise peeled along faces.  In the negative case
    some vertex pair has no common dominator (a finite directed order has
    a maximum): the first whose dominator bitmasks are disjoint, V^2 row
    tests and V^2/2 ANDs at most.  Each failure names the first facet it
    falls short on; the pair's whole dominator set is checked empty.
    """
    s = vertex_enumeration(s)
    vertices = s.vertices
    if not vertices:
        raise DomainError("empty candidate polytope")

    scale, values, column_max = _facet_table(g, s)
    if column_max in values:
        top = values.index(column_max)
        facets, gens = g.eff.inequality_rows(), g.eff.generator_rows()
        # over the slack's denominator, so the peel's ratios are coefficients
        gen_values = [tuple(scale * dot(l, gen) for l in facets) for gen in gens]
        domination = tuple(
            _peel(gen_values, [a - b for a, b in zip(column_max, row)])
            for row in values
        )
        return DirectednessReport(
            "maximum", s, g.eff, maximum=vertices[top], domination=domination
        )

    indices = range(len(vertices))
    # up[i]: the vertices dominating vertex i, itself included, as bits
    up = [sum(1 << k for k in indices if all(map(ge, values[k], low))) for low in values]
    for i, j in combinations(indices, 2):
        if up[i] & up[j]:
            continue
        failures = []
        for k in indices:
            t = j if up[i] >> k & 1 else i  # a dominator of i cannot dominate j
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
    raise CycleConesError(
        "inconsistent state: pairwise dominated vertices but no maximum"
    )


def _facet_table(g: ConeGeometry, s: RationalPolytope):
    """``vertex_table`` of the eff facets and its column-wise maxima: a
    vertex dominates every vertex iff its row is the maxima."""
    scale, values = vertex_table(s, g.eff.inequality_rows())
    return scale, values, tuple(map(max, zip(*values)))


def _peel(gen_values, slack) -> tuple[Fraction, ...]:
    """Nonnegative eff-generator coefficients for a difference inside eff.

    On a full-dimensional simplicial eff, where each generator is nonzero
    on one facet alone and no two on the same one, the combination is read
    off in one pass: generator k's coefficient is the slack (the
    difference's facet values) over its own value on its facet.  That
    combination has the difference's value on every facet, and the facet
    values of a salient eff fix a class, so it is exact; it is also the
    only one.  Any other eff takes the face peel.  Each step removes from
    the slack the largest multiple of the first generator vanishing
    wherever it does, so in the residual's minimal face.  A new facet
    turns tight: at most ``dim`` steps, and zero slack is a zero residual
    (salience).  The steps run on integers: the least ratio is found by
    cross-multiplying, and the coefficients are kept over the residual's
    denominator, then read off as Fractions once.
    """
    lone = [[l for l, x in enumerate(gv) if x] for gv in gen_values]
    if sorted(lone) == [[l] for l in range(len(slack))]:
        return tuple(Fraction(slack[l], gv[l]) for (l,), gv in zip(lone, gen_values))
    coeffs = [0] * len(gen_values)  # the coefficients times den
    den = 1  # the residual's facet values are slack / den
    zero = Fraction(0)
    for _ in range(len(slack) + 1):  # each step makes another facet tight
        if not any(slack):
            return tuple(Fraction(c, den) if c else zero for c in coeffs)
        zeros = [l for l, sl in enumerate(slack) if sl == 0]
        face = (k for k, gv in enumerate(gen_values) if not any(gv[l] for l in zeros))
        pick = next(face, None)
        if pick is None:
            break
        gv = gen_values[pick]
        sl, x = None, 0  # the least ratio sl / x over x > 0, the first on ties
        for xi, si in zip(gv, slack):
            if xi > 0 and (sl is None or si * x < sl * xi):
                sl, x = si, xi
        coeffs = [x * c for c in coeffs]
        coeffs[pick] += sl
        slack = [x * a - sl * b for a, b in zip(slack, gv)]
        den *= x
    raise CycleConesError("representations disagree: peeling found no eff combination")


def dominator_set(eff: PolyCone, s: RationalPolytope, u, w) -> RationalPolytope:
    """{z in s : z dominates u and w}: ``s`` extended by one row <l, z> >=
    max(<l, u>, <l, w>) per eff facet l; ``certifies`` re-checks a verdict."""
    return s.extend(
        inequality(l, max(dot(l, u.coords), dot(l, w.coords)))
        for l in eff.inequality_rows()
    )


def dominator_set_empty(
    g: ConeGeometry, s: RationalPolytope, u: ClassVector, w: ClassVector
) -> tuple[bool, tuple[Fraction, ...]]:
    """``emptiness`` of ``dominator_set(g.eff, s, u, w)`` with its point or
    Farkas vector: the strong form of the witness, where an empty set
    means no point of ``s``, vertex or not, dominates both."""
    return emptiness(dominator_set(g.eff, s, u, w))


def decompose(
    g: ConeGeometry,
    alpha: ClassVector,
    objective: ClassVector | None = None,
) -> Decomposition:
    """Positive part by exact degree maximization over the candidate set.

    The full optimal face is reported; the canonical representative is its
    lexicographically smallest vertex (a labelled convention, not a
    mathematical claim).  Metadata records whether the positive part is
    the domination-order maximum of the candidate set, or a merely
    objective-maximal candidate.  That verdict is decided here, not
    proved: ``verify_decomposition`` proves it with ``preceq_maximum``.

    A movable ``alpha`` is its own positive part, found with no polytope:
    it is a candidate, and ``alpha - z`` is eff for every candidate z, so
    it is the domination maximum, hence the unique optimum, a one-vertex
    face.  Only a class outside mov takes the vertex enumeration.
    """
    if objective is not None:
        validate_objective(g, objective)  # the geometry checked its own
    elif (objective := g.degree_functional) is None:
        raise InputError("no objective supplied and the geometry has no default")
    g.eff.check_space(alpha)

    if violated(g.mov.inequality_rows(), alpha.coords) is None:
        value, face, is_max = dot(objective.coords, alpha.coords), (alpha,), True
    else:
        s = decomposition_polytope(g, alpha)
        value, face = maximize_linear(s, objective)
        # a domination maximum m is the unique optimum of an objective
        # strictly positive on eff (m - z is a nonzero eff class for every
        # other z of s), so preceq_maximum's test at the positive part decides
        _, values, column_max = _facet_table(g, s)
        is_max = values[s.vertices.index(face[0])] == column_max
    positive = face[0]  # vertices arrive sorted: lexicographically smallest
    negative = alpha - positive
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
        metadata=_metadata(g, objective, value, face, is_max),
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


def _metadata(g: ConeGeometry, objective, value, face, is_max: bool) -> dict[str, Any]:
    """What ``decompose`` records about the optimum (``face[0]`` is the
    positive part) and the directedness verdict: ``is_max`` says whether
    the positive part is the domination maximum of the candidate set."""
    status = "certified-preceq-maximum" if is_max else "objective-maximal-candidate"
    return {
        "method": "degree-maximization",
        "geometry": g.name,
        "objective": [rat_str(c) for c in objective.coords],
        "objective_value": rat_str(value),
        "optimal_face": [[rat_str(c) for c in v.coords] for v in face],
        "optimum_unique": len(face) == 1,
        "positive_part_status": status,
        "preceq_maximum": "maximum" if is_max else "no-maximum",
        "canonical_choice": "lexicographically-smallest-optimal-vertex",
    }


def verify_decomposition(g: ConeGeometry, dec: Decomposition) -> bool:
    """Re-verify a decomposition against its geometry from scratch.

    The record checked its split when built; both membership combinations
    are checked by arithmetic.
    One recomputation for the recorded objective, which must be valid,
    checks the rest: the positive part heads the optimal face, the
    ``preceq_maximum`` report verifies, and the metadata (geometry name
    included) is what ``decompose`` records, with the report's certified
    verdict (a maximum, at the positive part) in place of the column test
    ``decompose`` decided it by.  A malformed record fails; a budget or a
    fault raises.
    """
    try:
        g.eff.check_space(dec.input)
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
    except (KeyError, TypeError, InputError):
        return False
    # the combinations put the input in eff: no error below is the record's
    s = decomposition_polytope(g, dec.input)
    value, face = maximize_linear(s, objective)
    report = preceq_maximum(g, s)
    is_max = report.status == "maximum" and report.maximum.coords == face[0].coords
    return (
        report.verify()
        and face[0] == dec.positive
        # repr, unlike ==, tells an optimum_unique of 1 from True
        and repr(dict(dec.metadata)) == repr(_metadata(g, objective, value, face, is_max))
    )

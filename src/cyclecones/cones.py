"""Polyhedral cones as dual generator/inequality pairs, with exact conversion.

The converter is the double description method: constraints are inserted one
at a time into a growing cone, splitting rays on the new hyperplane and
combining adjacent positive/negative pairs.  Rays are primitive integer
tuples and their tight sets are ``int`` bitmasks, so the adjacency test is
a few machine-word operations per ray (Fukuda and Prodon, 1996; Terzer and
Stelling, 2008).  Lineality (non-pointed input) is handled natively, so the
zero cone and the full space are ordinary values.

``double_description`` returns ``(lineality, rays)``, where ``rays`` is a
dict from each primitive ray, in insertion order, to its tight set: bit
``i`` is set exactly when row ``i`` is nonzero and vanishes on the ray.
A dict, not a third value, keeps the result a pair that iterates and
counts like the ray list, which is what the benchmark's tracer unpacks.
The method is incremental: ``_dd_state`` keeps where a description stands
after some rows, and ``double_description`` resumes from such a state on
rows that begin with those rows, returning exactly what a cold call does.
``dd_convert`` runs one double description and, for most cones, reads the
irredundant supplied rows off that incidence; degenerate input takes a
second pass over the first pass's integer rows.  Supplied rows are checked
against the result in integers.  A coordinate is an ``int`` when it is
integral (``rationals.rat``), so the vectors of a canonical cone are its
primitive integer rows, and ``contains`` decides membership on them in
``int`` arithmetic.  Dimensions in this package stay small: at most 8 for
cones of classes, and one more for the homogenized inequality systems whose
vertices ``polytope.vertex_enumeration`` reads off.  No effort is spent on
insertion-order heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import CycleConesError, DomainError, InputError
from .linalg import Row, dot, int_primitive, nullspace, reproduces, separates, violated
from .rationals import rat, rat_str
from .simplex import nonneg_solve
from .vectors import ClassVector, dual_basis

# Most rays one double description insertion may hold.  The benchmark's
# largest output has 84; the pair scan grows with the square of the ray
# count, so a larger input fails with a DomainError instead of running on
# for minutes.
_MAX_DD_RAYS = 10_000

# Most positive/negative ray pairs one double description may test, summed
# over its insertions.  The pair tests are the method's work: the
# decomposition polytope of one dimension-10 geometry (227 rows in
# dimension 11) makes 37.7 million of them in 163 s of pair loops, 4.3 us
# each (Python 3.11, 2-vCPU Xeon VM), while never holding more than 5 667
# rays.  The budget is about 9 s of that work; the benchmark's heaviest
# double description makes 1 913.
_MAX_DD_PAIRS = 2_000_000


class DDState(NamedTuple):
    """Where a double description stands after its first ``rows`` rows:
    the bits of the nonzero ones among them, the lineality basis, the
    rays in insertion order with their tight sets, and the pair tests
    made so far.  ``_dd_state`` computes it; ``double_description``
    resumes from it, copying the lists, so a state can be shared."""

    rows: int
    processed: int
    lineality: list[tuple[int, ...]]
    rays: list[tuple[int, ...]]
    tight: list[int]
    pairs: int


def double_description(
    rows: Iterable[Sequence[Fraction]], dim: int, start: DDState | None = None
):
    """Generators of the cone {x : <r, x> >= 0 for every r in rows}.

    Returns ``(lineality, rays)``: a basis of the lineality space, as a
    list, and the extremal rays of the pointed quotient, as a dict from
    each ray to its tight set; both hold primitive integer tuples.
    Together they generate the cone as ``span(lineality) + cone(rays)``.
    ``rays`` iterates and counts like a ray list, in insertion order; the
    result stays a pair, not a triple, because the benchmark's tracer
    unpacks it as ``lineality, rays``.

    Insertion maintains three invariants: every processed constraint
    vanishes on the current lineality span, the ray list is exactly the
    extremal rays of the current cone modulo lineality, and each ray's
    tight set, an ``int`` whose bit ``i`` stands for row ``i``, holds every
    processed nonzero row vanishing on it and no other row: a zero row's
    bit is never set.  The returned dict holds these tight sets.
    Adjacency of a positive/negative ray pair is decided combinatorially:
    no third ray's tight set ``t`` may contain the pair's common tight set
    ``c`` (``c & t == c``).  A pair is rejected before that scan when ``c``
    has fewer than ``dim - len(lineality) - 2`` bits: two adjacent rays and
    the lineality space span a face of dimension ``len(lineality) + 2``,
    whose linear hull is cut out by the rows tight on it, and those have
    rank ``dim - len(lineality) - 2``.

    An insertion that would hold more than ``_MAX_DD_RAYS`` rays, or would
    bring the call's positive/negative pair tests past ``_MAX_DD_PAIRS``,
    raises ``DomainError`` instead of running on.  The pair count is
    checked once per insertion, before its pair loop.

    ``start``, when given, is ``_dd_state`` of exactly the first
    ``start.rows`` of ``rows``, in ``dim``: the call skips those rows
    unread and resumes from the state after them (the method is
    incremental).  A cold call, with no ``start``, resumes the same way
    from the empty state (``_dd_state``).  The prefix's pair tests count
    toward the budget, so a resumed call returns what a cold call returns,
    rays in the same order, and fails at the same ``row`` with the same
    ``pairs``.
    """
    state = _dd_state(rows, dim, start)
    return state.lineality, dict(zip(state.rays, state.tight))


def _dd_state(
    rows: Iterable[Sequence[Fraction]], dim: int, start: DDState | None = None
) -> DDState:
    """The state of ``double_description(rows, dim, start)`` after its last
    row: the insertion loop itself, which ``double_description`` reads off.
    A cold call, with no ``start``, resumes from the empty state: no row
    read, the whole space as lineality, no ray and no pair tested."""
    if start is None:
        identity = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        start = DDState(0, 0, identity, [], [], 0)
    # the prefix is skipped here, not tested for in the loop
    lineality, rays, tight = list(start.lineality), list(start.rays), list(start.tight)
    processed, pairs = start.processed, start.pairs
    idx, numbered = start.rows - 1, enumerate(islice(rows, start.rows, None), start.rows)

    for idx, raw in numbered:
        checked = tuple(x if type(x) is int else rat(x) for x in raw)
        if len(checked) != dim:
            raise InputError(f"constraint of length {len(checked)} in dimension {dim}")
        if not any(checked):
            continue
        a = int_primitive(checked)
        bit = 1 << idx
        earlier, processed = processed, processed | bit

        hit = next((i for i, l in enumerate(lineality) if dot(l, a) != 0), None)
        if hit is not None:
            z = lineality.pop(hit)
            az = dot(z, a)
            if az < 0:
                z = tuple(-x for x in z)
                az = -az
            lineality = [_project(l, z, az, a) for l in lineality]
            rays = [_project(r, z, az, a) for r in rays]
            # adjusted rays land exactly on the new hyperplane, and z is
            # tight on every earlier nonzero row, since those vanish on
            # lineality
            tight = [t | bit for t in tight]
            rays.append(z)
            tight.append(earlier)
            continue

        values = [sum(map(mul, r, a)) for r in rays]
        negative = [i for i, v in enumerate(values) if v < 0]
        if not negative:
            tight = [t if v else t | bit for t, v in zip(tight, values)]
            continue
        positive = [i for i, v in enumerate(values) if v > 0]
        pairs += len(positive) * len(negative)
        if pairs > _MAX_DD_PAIRS:
            raise DomainError(
                "double description exceeds its pair-test budget",
                dim=dim,
                row=idx,
                pairs=pairs,
            )

        new_rays = [rays[i] for i in positive]
        new_tight = [tight[i] for i in positive]
        for i, v in enumerate(values):
            if v == 0:
                new_rays.append(rays[i])
                new_tight.append(tight[i] | bit)
        need = dim - len(lineality) - 2
        minus = [(tight[i], values[i], rays[i]) for i in negative]
        for ip in positive:
            tp, vp, rp = tight[ip], values[ip], rays[ip]
            for tm, vm, rm in minus:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                holders = 0  # the pair itself, then any third ray
                for t in tight:
                    if common & t == common:
                        holders += 1
                        if holders > 2:
                            break
                if holders > 2:
                    continue
                combo = [vp * y - vm * x for x, y in zip(rp, rm)]
                content = gcd(*combo)
                new_rays.append(
                    tuple(combo) if content == 1 else tuple(c // content for c in combo)
                )
                new_tight.append(common | bit)
                if len(new_rays) > _MAX_DD_RAYS:
                    raise DomainError(
                        "double description exceeds its ray budget",
                        dim=dim,
                        row=idx,
                        rays=len(new_rays),
                    )
        rays, tight = new_rays, new_tight

    return DDState(idx + 1, processed, lineality, rays, tight, pairs)


def _project(v, z, az: int, a) -> tuple[int, ...]:
    """``az * v - <a, v> * z``, made primitive: a positive rescaling of the
    projection of ``v`` along ``z`` onto the hyperplane ``<a, x> = 0``.
    ``v`` is primitive, so when ``<a, v> = 0`` that is ``v`` itself."""
    av = sum(map(mul, v, a))
    if not av:
        return v
    return int_primitive(tuple(az * v_i - av * z_i for v_i, z_i in zip(v, z)))


def _generators_from_dd(lineality: list[Row], rays: list[Row]) -> list[Row]:
    gens = list(rays)
    for l in lineality:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return sorted(set(gens))


def _vectors(basis: str, rows, dim: int | None, what: str):
    """``rows`` as vectors of ``basis``, and their common dimension."""
    vectors = tuple(
        v if isinstance(v, ClassVector) else ClassVector(basis, v) for v in rows
    )
    if dim is None:
        if not vectors:
            raise InputError(f"dim required for a cone with no {what}")
        dim = vectors[0].dim
    return vectors, dim


@dataclass(frozen=True)
class PolyCone:
    """A convex polyhedral cone carried as a generator/inequality pair.

    ``generators`` live in ``basis``; ``inequalities`` are functionals in
    the dual basis named ``dual`` (by default ``dual_basis(basis)``), each
    meaning <functional, x> >= 0.  A representation is authoritative
    exactly when it is not None; an empty tuple is meaningful (no
    generators: the zero cone; no inequalities: the full space).

    ``canonical`` is set by ``dd_convert`` (and kept by ``dual_cone``) and
    by ``projbundle._plane_cones``, which checks its closed form in integers
    first; never by the constructor.  It is bookkeeping, not part of the
    value; ``dataclasses.replace`` resets it, so an edited cone is converted
    afresh.
    """

    basis: str
    dim: int
    generators: tuple[ClassVector, ...] | None = None
    inequalities: tuple[ClassVector, ...] | None = None
    dual: str | None = None
    canonical: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", dual_basis(self.basis))
        if self.generators is None and self.inequalities is None:
            raise InputError("cone needs at least one representation")
        for g in self.generators or ():
            if g.basis != self.basis or g.dim != self.dim:
                raise InputError("generator outside the cone's basis")
        for l in self.inequalities or ():
            if l.basis != self.dual or l.dim != self.dim:
                raise InputError("inequality functional outside the dual basis")

    @staticmethod
    def from_generators(
        basis: str, rows, dim: int | None = None, dual: str | None = None
    ) -> "PolyCone":
        vectors, dim = _vectors(basis, rows, dim, "generators")
        return PolyCone(basis, dim, generators=vectors, dual=dual)

    @staticmethod
    def from_inequalities(
        basis: str, rows, dim: int | None = None, dual: str | None = None
    ) -> "PolyCone":
        dual = dual_basis(basis) if dual is None else dual
        vectors, dim = _vectors(dual, rows, dim, "inequalities")
        return PolyCone(basis, dim, inequalities=vectors, dual=dual)

    def generator_rows(self) -> list[Row]:
        return [g.coords for g in self.generators or ()]

    def inequality_rows(self) -> list[Row]:
        return [l.coords for l in self.inequalities or ()]

    def check_space(self, vector: ClassVector) -> None:
        """An ``InputError`` unless ``vector`` has this cone's basis and dim."""
        if vector.basis != self.basis or vector.dim != self.dim:
            raise InputError("vector not in the cone's coordinate space")


def _irredundant_rows(rows, lineality, rays, dim: int):
    """The facet rows of K = {x : <r, x> >= 0 for every r in rows}, or None.

    ``rows`` are primitive integer rows and ``(lineality, rays)`` is K's
    double description of exactly these rows, so bit ``i`` of a ray's
    tight set stands for ``rows[i]``.  None means K is not
    full-dimensional or its pointed quotient has dimension at most 1.
    Otherwise each facet holds a ray and is cut out by a supplied row,
    unique up to positive scaling, and a face of the pointed quotient is
    fixed by the rays it holds (Fukuda and Prodon, 1996).  So the facet
    rows are the nonzero rows whose tight set over the rays no other row's
    tight set strictly contains; a row tight on no ray is never one of
    them.  Those row tight sets are the ray tight sets transposed: no dot
    product is taken.
    """
    if dim - len(lineality) < 2:
        return None
    holders = [0] * len(rows)  # per row, the bits of the rays it vanishes on
    for j, mask in enumerate(rays.values()):
        ray_bit = 1 << j
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= ray_bit
            mask ^= low
    everywhere = (1 << len(rays)) - 1
    by_tight: dict[int, set[tuple[int, ...]]] = {}
    for a, tight in zip(rows, holders):
        if not any(a):
            continue
        if tight == everywhere:
            return None  # an implicit equality (or no rays): K is not full-dimensional
        by_tight.setdefault(tight, set()).add(a)
    facets: set[tuple[int, ...]] = set()
    for tight, same in by_tight.items():
        if not any(t != tight and tight & t == tight for t in by_tight):
            facets |= same
    return sorted(facets)


def dd_convert(cone: PolyCone) -> PolyCone:
    """Return the same cone with both representations present and canonical.

    Canonical means: primitive vectors, sorted, irredundant (for a salient
    cone the generators are exactly the extremal rays; for a non-salient
    cone they are extremal rays of the pointed quotient plus a +/- pair per
    lineality basis vector).  If both representations were supplied, the
    inequalities are converted, and so are the generators on their own;
    unless the two give the same cone, the input is an ``InputError``.

    One double description of the supplied rows, read as inequalities,
    gives the canonical form of the other representation.  Those rows cut
    out K: the cone itself for inequality input, its dual for generator
    input.  When K is full-dimensional (no nonzero supplied row is tight
    on every ray) and its pointed quotient has dimension at least 2, the
    supplied representation's canonical form is read off the same pass:
    the primitive supplied rows whose tight sets over the rays are
    nonempty and maximal (``_irredundant_rows``).  Every other input takes
    a second double description of the first pass's output: no rays, a
    pointed quotient of dimension at most 1, or a supplied row that is an
    implicit equality.  There the canonical form holds that pass's own
    lineality basis and quotient representatives, which the supplied rows
    need not contain.
    """
    if cone.canonical:
        return cone
    from_inequalities = cone.inequalities is not None
    rows = cone.inequality_rows() if from_inequalities else cone.generator_rows()
    supplied = [int_primitive(row) for row in rows]
    lin, rays = double_description(supplied, cone.dim)
    first = _generators_from_dd(lin, rays)
    other = _irredundant_rows(supplied, lin, rays, cone.dim)
    if other is None:
        other = _generators_from_dd(*double_description(first, cone.dim))
    gen_rows, canonical_ineqs = (first, other) if from_inequalities else (other, first)

    result = PolyCone(
        cone.basis,
        cone.dim,
        generators=tuple(ClassVector(cone.basis, row) for row in gen_rows),
        inequalities=tuple(ClassVector(cone.dual, row) for row in canonical_ineqs),
        dual=cone.dual,
    )
    object.__setattr__(result, "canonical", True)

    if cone.generators is not None and cone.inequalities is not None:
        # same cone: each side's generators satisfy the other's inequalities
        alone = dd_convert(replace(cone, inequalities=None))
        sides = ((alone.generator_rows(), canonical_ineqs), (gen_rows, alone.inequality_rows()))
        if any(violated(rows, g) is not None for gens, rows in sides for g in gens):
            raise InputError(
                "inconsistent cone: the supplied generators and inequalities "
                "describe different cones"
            )
    elif cone.generators is not None:
        # the canonical generators must reproduce exactly the input cone;
        # every input generator has to satisfy the computed inequalities
        # (integer rows: a positive rescaling keeps every sign)
        if any(violated(canonical_ineqs, g) is not None for g in supplied):
            raise CycleConesError("double description produced an inconsistent pair")
    return result


def dual_cone(cone: PolyCone) -> PolyCone:
    """The dual cone {l : <l, x> >= 0 for all x in cone}, canonicalized.

    Generators of the primal become inequalities of the dual and vice
    versa; the result lives in the cone's dual basis, and its own dual is
    the cone's basis.
    """
    swapped = PolyCone(
        cone.dual,
        cone.dim,
        generators=cone.inequalities,
        inequalities=cone.generators,
        dual=cone.basis,
    )
    if cone.canonical:
        # for a canonical pair the swap is again canonical: the facets of a
        # cone are the extremal data of its dual and vice versa
        object.__setattr__(swapped, "canonical", True)
    return dd_convert(swapped)


@dataclass(frozen=True)
class ContainsResult:
    """Membership verdict plus an exactly re-checkable certificate."""

    cone: PolyCone
    vector: ClassVector
    member: bool
    combination: tuple[Fraction, ...] | None = None
    separating: ClassVector | None = None

    def __bool__(self) -> bool:
        return self.member

    def verify(self) -> bool:
        """Re-verify the certificate by direct arithmetic, trusting nothing:
        on the vector as given, not the primitive form the verdict used.
        A vector outside the cone's basis, or a separating functional
        outside its dual basis, fails."""
        if self.vector.basis != self.cone.basis:
            return False
        gens = self.cone.generator_rows()
        if self.member:
            return self.combination is not None and reproduces(
                self.combination, gens, self.vector.coords
            )
        return (
            self.separating is not None
            and self.separating.basis == self.cone.dual
            and separates(self.separating.coords, gens, self.vector.coords)
        )


def contains(cone: PolyCone, vector: ClassVector) -> ContainsResult:
    """Exact membership test with certificate.

    Membership is decided in ``int`` on the canonical cone, whose vectors
    are primitive integer rows: the first facet negative on
    ``int_primitive`` of the vector (a positive rescaling keeps every sign)
    is the separating functional.  A member's certificate, a nonnegative
    combination of the canonical generators, comes from exact phase-one
    simplex on those rows and the unscaled vector.
    ``ContainsResult.verify`` re-checks either certificate.
    """
    cone.check_space(vector)
    full = dd_convert(cone)
    point = int_primitive(vector.coords)
    cut = violated(full.inequality_rows(), point)
    if cut is not None:
        return ContainsResult(full, vector, False, separating=full.inequalities[cut])
    coeffs = nonneg_solve(full.generator_rows(), vector.coords)
    if coeffs is None:
        raise CycleConesError(
            "representations disagree: inequalities accept a vector the "
            "generators cannot produce",
            vector=[rat_str(c) for c in vector.coords],
        )
    return ContainsResult(full, vector, True, combination=coeffs)


def lineality_space(cone: PolyCone) -> list[Row]:
    """Basis of cone ∩ (−cone) as a linear space."""
    return nullspace(dd_convert(cone).inequality_rows(), cone.dim)


def is_salient(cone: PolyCone) -> bool:
    """True iff the cone contains no nonzero linear subspace."""
    return not lineality_space(cone)


def extremal_rays(cone: PolyCone) -> tuple[ClassVector, ...]:
    """The minimal primitive generating set of a salient cone, sorted."""
    full = dd_convert(cone)
    if lineality := lineality_space(full):
        raise DomainError(
            "extremal rays are only defined for salient cones",
            lineality=[[rat_str(x) for x in row] for row in lineality],
        )
    return full.generators

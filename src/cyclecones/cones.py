"""Polyhedral cones as dual generator/inequality pairs, with exact conversion.

The converter is the double description method: constraints are inserted one
at a time into a growing cone, splitting rays on the new hyperplane and
combining adjacent positive/negative pairs.  Lineality (non-pointed input)
is handled natively, so the zero cone and the full space are ordinary
values.  Dimensions in this package stay small: at most 8 for cones of
classes, and one more for the homogenized inequality systems whose
vertices ``polytope.vertex_enumeration`` reads off.  No effort is spent
on insertion-order heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, InputError
from .linalg import dot, int_primitive, nullspace, reproduces, separates, violated
from .rationals import rat
from .simplex import nonneg_solve
from .vectors import ClassVector, dual_basis

Row = tuple[Fraction, ...]


def double_description(rows: Iterable[Sequence[Fraction]], dim: int):
    """Generators of the cone {x : <r, x> >= 0 for every r in rows}.

    Returns ``(lineality, rays)``: a basis of the lineality space and the
    extremal rays of the pointed quotient, all primitive.  Together they
    generate the cone as ``span(lineality) + cone(rays)``.

    Insertion maintains three invariants: every processed constraint
    vanishes on the current lineality span, the ray list is exactly the
    extremal rays of the current cone modulo lineality, and each ray's
    recorded tight set matches the processed constraints vanishing on it.
    Adjacency of a positive/negative ray pair is decided combinatorially:
    no third ray's tight set may contain the pair's common tight set.
    """
    lineality: list[tuple[int, ...]] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[int, ...]] = []
    tight: list[set[int]] = []

    for idx, raw in enumerate(rows):
        checked = tuple(rat(x) for x in raw)
        if len(checked) != dim:
            raise InputError(f"constraint of length {len(checked)} in dimension {dim}")
        if not any(checked):
            continue
        a = int_primitive(checked)

        hit = next((i for i, l in enumerate(lineality) if dot(l, a) != 0), None)
        if hit is not None:
            z = lineality.pop(hit)
            az = dot(z, a)
            if az < 0:
                z = tuple(-x for x in z)
                az = -az
            lineality = [_project(l, z, az, a) for l in lineality]
            rays = [_project(r, z, az, a) for r in rays]
            for t in tight:  # adjusted rays land exactly on the new hyperplane
                t.add(idx)
            rays.append(z)
            tight.append(set(range(idx)))
            continue

        values = [dot(r, a) for r in rays]
        if all(v >= 0 for v in values):
            for i, v in enumerate(values):
                if v == 0:
                    tight[i].add(idx)
            continue

        positive = [i for i, v in enumerate(values) if v > 0]
        negative = [i for i, v in enumerate(values) if v < 0]
        zero = [i for i, v in enumerate(values) if v == 0]

        new_rays: list[tuple[int, ...]] = [rays[i] for i in positive]
        new_tight: list[set[int]] = [set(tight[i]) for i in positive]
        for i in zero:
            new_rays.append(rays[i])
            new_tight.append(tight[i] | {idx})
        for ip in positive:
            for im in negative:
                common = tight[ip] & tight[im]
                blocked = any(
                    k not in (ip, im) and common <= tight[k]
                    for k in range(len(rays))
                )
                if blocked:
                    continue
                combo = int_primitive(
                    tuple(
                        values[ip] * rays[im][j] - values[im] * rays[ip][j]
                        for j in range(dim)
                    )
                )
                new_rays.append(combo)
                new_tight.append(common | {idx})
        rays, tight = new_rays, new_tight

    return (
        [tuple(Fraction(x) for x in v) for v in lineality],
        [tuple(Fraction(x) for x in v) for v in rays],
    )


def _project(v, z, az: int, a) -> tuple[int, ...]:
    """``az * v - <a, v> * z``, made primitive: a positive rescaling of the
    projection of ``v`` along ``z`` onto the hyperplane ``<a, x> = 0``."""
    av = dot(v, a)
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
    ``canonical`` marks cones produced by ``dd_convert``; it is bookkeeping,
    not part of the value.
    """

    basis: str
    dim: int
    generators: tuple[ClassVector, ...] | None = None
    inequalities: tuple[ClassVector, ...] | None = None
    dual: str | None = None
    canonical: bool = field(default=False, compare=False)

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

    @staticmethod
    def zero(basis: str, dim: int) -> "PolyCone":
        return PolyCone(basis, dim, generators=())

    @staticmethod
    def full_space(basis: str, dim: int) -> "PolyCone":
        return PolyCone(basis, dim, inequalities=())

    def generator_rows(self) -> list[Row]:
        return [g.coords for g in self.generators or ()]

    def inequality_rows(self) -> list[Row]:
        return [l.coords for l in self.inequalities or ()]


def dd_convert(cone: PolyCone) -> PolyCone:
    """Return the same cone with both representations present and canonical.

    Canonical means: primitive vectors, sorted, irredundant (for a salient
    cone the generators are exactly the extremal rays; for a non-salient
    cone they are extremal rays of the pointed quotient plus a +/- pair per
    lineality basis vector).  If both representations were supplied, they
    are cross-checked against each other before being replaced.
    """
    if cone.canonical:
        return cone
    if cone.inequalities is not None:
        lin, rays = double_description(cone.inequality_rows(), cone.dim)
        gen_rows = _generators_from_dd(lin, rays)
        lin2, rays2 = double_description(gen_rows, cone.dim)
        canonical_ineqs = _generators_from_dd(lin2, rays2)
    else:
        lin, rays = double_description(cone.generator_rows(), cone.dim)
        canonical_ineqs = _generators_from_dd(lin, rays)
        lin2, rays2 = double_description(canonical_ineqs, cone.dim)
        gen_rows = _generators_from_dd(lin2, rays2)

    result = PolyCone(
        cone.basis,
        cone.dim,
        generators=tuple(ClassVector(cone.basis, row) for row in gen_rows),
        inequalities=tuple(ClassVector(cone.dual, row) for row in canonical_ineqs),
        dual=cone.dual,
        canonical=True,
    )

    if cone.generators is not None and cone.inequalities is not None:
        for g in cone.generators:
            if violated(canonical_ineqs, g.coords) is not None:
                raise InputError(
                    "inconsistent cone: a supplied generator violates the "
                    "supplied inequalities"
                )
        for l in cone.inequalities:
            if any(dot(l.coords, row) < 0 for row in gen_rows):
                raise InputError(
                    "inconsistent cone: a supplied inequality cuts off part "
                    "of the generated cone"
                )
    elif cone.generators is not None:
        # the canonical generators must reproduce exactly the input cone;
        # every input generator has to satisfy the computed inequalities
        for g in cone.generators:
            if violated(canonical_ineqs, g.coords) is not None:
                raise InputError("double description produced an inconsistent pair")
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
        # for a canonical pair the swap is again canonical: the facets of a
        # cone are the extremal data of its dual and vice versa
        canonical=cone.canonical,
    )
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
        """Re-verify the certificate by direct arithmetic, trusting nothing."""
        gens = self.cone.generator_rows()
        if self.member:
            return self.combination is not None and reproduces(
                self.combination, gens, self.vector.coords
            )
        return self.separating is not None and separates(
            self.separating.coords, gens, self.vector.coords
        )


def contains(cone: PolyCone, vector: ClassVector) -> ContainsResult:
    """Exact membership test with certificate.

    Membership is decided on the inequality representation; the positive
    certificate (a nonnegative generator combination) is then produced by
    exact phase-one simplex on the generator representation.
    """
    if vector.basis != cone.basis or vector.dim != cone.dim:
        raise InputError("vector not in the cone's coordinate space")
    full = cone if cone.canonical else dd_convert(cone)
    cut = violated(full.inequality_rows(), vector.coords)
    if cut is not None:
        return ContainsResult(full, vector, False, separating=full.inequalities[cut])
    gens = full.generators
    if vector.is_zero():
        return ContainsResult(full, vector, True, combination=(Fraction(0),) * len(gens))
    columns = [g.coords for g in gens]
    coeffs = nonneg_solve(columns, vector.coords)
    if coeffs is None:
        raise DomainError(
            "representations disagree: inequalities accept a vector the "
            "generators cannot produce",
            vector=[str(c) for c in vector.coords],
        )
    return ContainsResult(full, vector, True, combination=coeffs)


def lineality_space(cone: PolyCone) -> list[Row]:
    """Basis of cone ∩ (−cone) as a linear space."""
    full = cone if cone.canonical else dd_convert(cone)
    rows = full.inequality_rows()
    return nullspace(rows, ncols=cone.dim)


def is_salient(cone: PolyCone) -> bool:
    """True iff the cone contains no nonzero linear subspace."""
    return not lineality_space(cone)


def extremal_rays(cone: PolyCone) -> tuple[ClassVector, ...]:
    """The minimal primitive generating set of a salient cone, sorted."""
    full = cone if cone.canonical else dd_convert(cone)
    if not is_salient(full):
        raise DomainError(
            "extremal rays are only defined for salient cones",
            lineality=[[str(x) for x in row] for row in lineality_space(full)],
        )
    return full.generators


def cones_equal(a: PolyCone, b: PolyCone) -> bool:
    """Exact cone equality (basis-aware, representation-free)."""
    if a.basis != b.basis or a.dim != b.dim:
        return False
    ca, cb = dd_convert(a), dd_convert(b)
    gens_a = {g.coords for g in ca.generators}
    gens_b = {g.coords for g in cb.generators}
    if gens_a == gens_b:
        return True
    # mutual containment fallback for non-salient canonical forms, whose
    # quotient-ray representatives may legitimately differ
    ineqs_a, ineqs_b = ca.inequality_rows(), cb.inequality_rows()
    return all(violated(ineqs_b, g) is None for g in gens_a) and all(
        violated(ineqs_a, g) is None for g in gens_b
    )

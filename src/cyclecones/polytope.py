"""Bounded rational polytopes: exact vertex enumeration and optimization.

Each inequality <a, x> >= b is kept as its homogenized primitive integer
row r = (a, -b), which x satisfies iff <r, (x, 1)> >= 0.  Vertices and
boundedness come from one double description of these rows (Motzkin,
Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, 1996).  The linear
optimizer scans the vertices and proves the maximum with an LP-duality
certificate, one ``reproduces`` on the rows, checked on every call.
``vertex_table`` reads functionals at the vertices over one denominator.
Systems built by ``extend`` resume from their ``prefix``'s double
description; ``emptiness`` comes with a point or a Farkas vector, which
``certifies`` re-checks beside ``holds_at``, so callers read no row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .errors import CycleConesError, DomainError, InputError
from .linalg import all_exact, dot, int_primitive, numerators, reproduces, violated
from .rationals import rat_str
from .simplex import nonneg_solve
from . import cones
from .vectors import ClassVector, dual_basis


def inequality(a, b) -> tuple[int, ...]:
    """The homogenized row of <a, x> >= b (rationals): primitive integer (a, -b)."""
    return int_primitive((*a, -b))


@dataclass(frozen=True)
class RationalPolytope:
    """Points x with <r, (x, 1)> >= 0 for every row r (``inequality``,
    ``dim + 1`` entries) of ``inequalities``; objectives live in ``dual``.

    ``start``, set by ``prefix``, is ``cones._dd_state`` of the first
    ``start.rows`` rows in dimension ``dim + 1``; enumeration resumes from
    it.  It is bookkeeping, not part of the value: the vertices are the
    same either way."""

    basis: str
    dim: int
    inequalities: tuple[tuple[int, ...], ...]
    vertices: tuple[ClassVector, ...] | None = None
    dual: str | None = None
    start: cones.DDState | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", dual_basis(self.basis))
        if any(len(row) != self.dim + 1 for row in self.inequalities):
            raise InputError("inequality row outside the polytope's dimension")
        for v in self.vertices or ():
            if v.basis != self.basis or v.dim != self.dim:
                raise InputError("vertex outside the polytope's basis")

    @staticmethod
    def prefix(basis: str, dim: int, rows, dual: str) -> "RationalPolytope":
        """``rows`` with their double description as ``start``, for ``extend``."""
        p = RationalPolytope(basis, dim, tuple(rows), dual=dual)
        return replace(p, start=cones._dd_state(p.inequalities, dim + 1))

    def extend(self, rows) -> "RationalPolytope":
        """This system with ``rows`` appended: no vertices, the same ``start``."""
        return replace(self, inequalities=self.inequalities + tuple(rows), vertices=None)

    def holds_at(self, coords) -> bool:
        """True iff ``coords`` is a point satisfying every row: ``dim``
        coordinates, each an ``int`` or a ``Fraction`` (``linalg.all_exact``);
        anything else, a float or a string, is no point and fails."""
        if len(coords) != self.dim or not all_exact(coords):
            return False
        point = int_primitive((*coords, 1))  # a positive multiple of (x, 1)
        return violated(self.inequalities, point) is None

    def certifies(self, empty, certificate) -> bool:
        """Re-check an ``emptiness`` verdict: a point (``holds_at``), or y >= 0,
        rescaled or not, that cancels the rows but for a negative last entry."""
        rows = self.inequalities
        if empty is True and certificate is not None:
            combined = reproduces(certificate, [r[:-1] for r in rows], (0,) * self.dim)
            return combined and dot(certificate, [r[-1] for r in rows]) < 0
        return empty is False and certificate is not None and self.holds_at(certificate)


def _homogenized(p: RationalPolytope):
    """Vertices and a recession direction from one double description.

    The cone {(x, t) : <r, (x, t)> >= 0 for every row r, t >= 0} has the
    vertices, scaled by t > 0, as its rays with t > 0; a ray with t = 0 or
    any lineality is a nonzero direction d with <a, d> >= 0 for every row.
    The rays are primitive integer tuples, so a vertex is read off as
    ``Fraction(c, t)`` per coordinate.  Over ``D``, the lcm of the rays'
    last entries, the integers ``c·(D // t)`` are the vertex scaled by D,
    so sorting on them is the lexicographic order of the vertices.
    Returns ``(vertices, direction)``, sorted vertices and None when the
    system is bounded, ``((), direction)`` otherwise.
    """
    rows = (*p.inequalities, (0,) * p.dim + (1,))
    lineality, rays = cones.double_description(rows, p.dim + 1, p.start)
    witnesses = lineality or [r for r in rays if r[-1] == 0]
    if witnesses:
        return (), ClassVector(p.basis, witnesses[0][:-1])
    common = lcm(*(r[-1] for r in rays))
    rays = sorted(rays, key=lambda r: [c * (common // r[-1]) for c in r[:-1]])
    points = (r[:-1] if r[-1] == 1 else [Fraction(c, r[-1]) for c in r[:-1]] for r in rays)
    return tuple(ClassVector(p.basis, x) for x in points), None


def recession_direction(p: RationalPolytope) -> ClassVector | None:
    """A nonzero direction of the recession cone, or None when bounded.

    No caller in the package.  It stays because ``bench/tracing.py`` wraps
    it by name; tests check ``vertex_enumeration``'s error details with it.
    """
    return _homogenized(p)[1]


def vertex_enumeration(p: RationalPolytope) -> RationalPolytope:
    """The same polytope with its exact, irredundant vertex list attached.

    Requires boundedness: an unbounded system raises a domain error
    carrying a recession direction.  An infeasible system yields an empty
    vertex list.  Vertices and the boundedness verdict come from one
    double description of the homogenized system.
    """
    if p.vertices is not None:
        return p
    vertices, direction = _homogenized(p)
    if direction is not None:
        raise DomainError(
            "inequality system is unbounded",
            recession_direction=[rat_str(c) for c in direction.coords],
        )
    return replace(p, vertices=vertices)


def emptiness(p: RationalPolytope) -> tuple[bool, tuple[Fraction, ...]]:
    """Exact emptiness of a bounded system by one double description, and
    a certificate for ``certifies``: its first vertex, or y >= 0 from
    ``nonneg_solve`` with sum y_i r_i = (0, ..., 0, -1) over the rows
    r_i = (a_i, -b_i), so sum y_i a_i = 0 and sum y_i b_i = 1: no point
    (Farkas; Schrijver, *Theory of Linear and Integer Programming*, §7)."""
    points = vertex_enumeration(p)
    if points.vertices:
        return False, points.vertices[0].coords
    y = nonneg_solve(p.inequalities, (0,) * p.dim + (-1,))
    if y is None:
        raise CycleConesError("representations disagree: no Farkas vector for an empty set")
    return True, y


def vertex_table(p: RationalPolytope, functionals) -> tuple[int, list[tuple]]:
    """``(D, rows)``: D the lcm of the enumerated vertices' denominators, row
    i the values <l, D·v_i> of ``functionals`` (integers for integer ones).
    A positive rescaling: every comparison is the one on the rationals."""
    common, points = numerators(*(v.coords for v in p.vertices))
    return common, [tuple(dot(l, x) for l in functionals) for x in points]


def maximize_linear(p: RationalPolytope, objective: ClassVector):
    """Exact maximum of a linear objective and all vertices attaining it.

    The maximum is read off the enumerated vertices and proved by an
    LP-duality certificate, checked on every call: multipliers y >= 0 on
    the rows r_i = (a_i, -b_i) tight at an optimal vertex with
    sum y_i r_i = (-objective, maximum), so that
    <objective, x> = -sum y_i <a_i, x> <= -sum y_i b_i = maximum on the
    whole polytope.  Ties are never broken here; the whole optimal face's
    vertex set is returned, sorted.
    """
    if objective.basis != p.dual or objective.dim != p.dim:
        raise InputError("objective must be a functional in the dual basis")
    enumerated = vertex_enumeration(p)
    if not enumerated.vertices:
        raise DomainError("cannot optimize over an empty polytope")
    _, rows = vertex_table(enumerated, [objective.coords])
    top = max(rows)
    optimal = tuple(v for v, row in zip(enumerated.vertices, rows) if row == top)
    best = dot(objective.coords, optimal[0].coords)

    point = int_primitive((*optimal[0].coords, 1))
    tight = [r for r in p.inequalities if dot(r, point) == 0]
    target = (*(-c for c in objective.coords), best)
    y = nonneg_solve(tight, target)
    if y is None or not reproduces(y, tight, target):
        raise CycleConesError(
            f"no optimality certificate for vertex scan maximum {rat_str(best)}",
            objective=[rat_str(c) for c in objective.coords],
            vertex=[rat_str(c) for c in optimal[0].coords],
        )
    return best, optimal

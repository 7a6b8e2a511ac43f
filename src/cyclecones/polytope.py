"""Bounded rational polytopes: exact vertex enumeration and optimization.

Each inequality <a, x> >= b is kept as its homogenized primitive integer
row r = (a, -b), which x satisfies iff <r, (x, 1)> >= 0.  Vertices and
boundedness come from one double description of these rows (Motzkin,
Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, 1996).  The linear
optimizer scans the vertices and proves the maximum with an LP-duality
certificate, one ``reproduces`` on the rows, checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CycleConesError, DomainError, InputError
from .linalg import dot, int_primitive, reproduces, violated
from .rationals import rat
from .simplex import nonneg_solve
from . import cones
from .vectors import ClassVector, dual_basis


def inequality(a, b) -> tuple[int, ...]:
    """The homogenized row of <a, x> >= b (rationals): primitive integer (a, -b)."""
    return int_primitive((*a, -b))


@dataclass(frozen=True)
class RationalPolytope:
    """Points x with <r, (x, 1)> >= 0 for every row r (``inequality``,
    ``dim + 1`` entries) of ``inequalities``; objectives live in ``dual``."""

    basis: str
    dim: int
    inequalities: tuple[tuple[int, ...], ...]
    vertices: tuple[ClassVector, ...] | None = None
    dual: str | None = None

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", dual_basis(self.basis))
        if any(len(row) != self.dim + 1 for row in self.inequalities):
            raise InputError("inequality row outside the polytope's dimension")
        for v in self.vertices or ():
            if v.basis != self.basis or v.dim != self.dim:
                raise InputError("vertex outside the polytope's basis")

    @staticmethod
    def from_inequalities(basis: str, dim: int, rows) -> "RationalPolytope":
        """The polytope of ``rows``, pairs ``(a, b)`` meaning <a, x> >= b."""
        ineqs = tuple(inequality(map(rat, a), rat(b)) for a, b in rows)
        return RationalPolytope(basis, dim, ineqs)

    def holds_at(self, coords) -> bool:
        """True iff ``coords`` is a point satisfying every row."""
        point = int_primitive((*coords, 1))  # a positive multiple of (x, 1)
        return len(coords) == self.dim and violated(self.inequalities, point) is None


def _homogenized(p: RationalPolytope):
    """Vertices and a recession direction from one double description.

    The cone {(x, t) : <r, (x, t)> >= 0 for every row r, t >= 0} has the
    vertices, scaled by t > 0, as its rays with t > 0; a ray with t = 0 or
    any lineality is a nonzero direction d with <a, d> >= 0 for every row.
    The rays are primitive integer tuples, so a vertex is read off as
    ``Fraction(c, t)`` per coordinate.
    Returns ``(vertices, direction)``, sorted vertices and None when the
    system is bounded, ``((), direction)`` otherwise.
    """
    rows = (*p.inequalities, (0,) * p.dim + (1,))
    lineality, rays = cones.double_description(rows, p.dim + 1)
    witnesses = lineality or [r for r in rays if r[-1] == 0]
    if witnesses:
        return (), ClassVector(p.basis, witnesses[0][:-1])
    points = sorted(tuple(Fraction(c, r[-1]) for c in r[:-1]) for r in rays)
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
            recession_direction=[str(c) for c in direction.coords],
        )
    return replace(p, vertices=vertices)


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
    values = [dot(objective.coords, v.coords) for v in enumerated.vertices]
    best = max(values)
    optimal = tuple(
        v for v, val in zip(enumerated.vertices, values) if val == best
    )

    point = int_primitive((*optimal[0].coords, 1))
    tight = [r for r in p.inequalities if dot(r, point) == 0]
    target = (*(-c for c in objective.coords), best)
    y = nonneg_solve(tight, target)
    if y is None or not reproduces(y, tight, target):
        raise CycleConesError(
            f"no optimality certificate for vertex scan maximum {best}",
            objective=[str(c) for c in objective.coords],
            vertex=[str(c) for c in optimal[0].coords],
        )
    return best, optimal

"""Bounded rational polytopes: exact vertex enumeration and optimization.

Vertices and boundedness come from one double description of the
homogenized inequality system (Motzkin, Raiffa, Thompson and Thrall,
1953; Fukuda and Prodon, 1996).  The linear optimizer scans the vertices
and proves the maximum with an LP-duality certificate that is re-verified
by direct arithmetic on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CycleConesError, DomainError, InputError
from .linalg import dot, reproduces
from .rationals import rat
from .simplex import nonneg_solve
from . import cones
from .vectors import ClassVector, dual_basis


@dataclass(frozen=True)
class AffineInequality:
    """<functional, x> >= offset, with the functional in the dual basis."""

    functional: ClassVector
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "offset", rat(self.offset))

    def value_at(self, point: ClassVector) -> Fraction:
        return dot(self.functional.coords, point.coords)


@dataclass(frozen=True)
class RationalPolytope:
    """Points satisfying every inequality; functionals live in ``dual``."""

    basis: str
    dim: int
    inequalities: tuple[AffineInequality, ...]
    vertices: tuple[ClassVector, ...] | None = None
    dual: str | None = None

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", dual_basis(self.basis))
        for ineq in self.inequalities:
            if ineq.functional.basis != self.dual or ineq.functional.dim != self.dim:
                raise InputError("inequality functional outside the dual basis")
        for v in self.vertices or ():
            if v.basis != self.basis or v.dim != self.dim:
                raise InputError("vertex outside the polytope's basis")

    @staticmethod
    def from_inequalities(basis: str, dim: int, rows) -> "RationalPolytope":
        dual = dual_basis(basis)
        ineqs = tuple(
            AffineInequality(
                ClassVector(dual, tuple(rat(x) for x in row)), rat(offset)
            )
            for row, offset in rows
        )
        return RationalPolytope(basis, dim, ineqs)


def _homogenized(p: RationalPolytope):
    """Vertices and a recession direction from one double description.

    The cone {(x, t) : <a, x> - b t >= 0, t >= 0} over the system has the
    vertices, scaled by t > 0, as its rays with t > 0; a ray with t = 0 or
    any lineality is a nonzero direction d with <a, d> >= 0 for every row.
    The rays are primitive integer tuples, so a vertex is read off as
    ``Fraction(c, t)`` per coordinate.
    Returns ``(vertices, direction)``, sorted vertices and None when the
    system is bounded, ``((), direction)`` otherwise.
    """
    rows = [(*ineq.functional.coords, -ineq.offset) for ineq in p.inequalities]
    rows.append((Fraction(0),) * p.dim + (Fraction(1),))
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
    the inequalities <a_i, x> >= b_i tight at an optimal vertex with
    objective = -sum y_i a_i and sum y_i b_i = -maximum, so that
    <objective, x> = -sum y_i <a_i, x> <= maximum on the whole polytope.
    Ties are never broken here; the whole optimal face's vertex set is
    returned, sorted.
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

    tight = [
        ineq for ineq in p.inequalities if ineq.value_at(optimal[0]) == ineq.offset
    ]
    target = tuple(-c for c in objective.coords)
    y = nonneg_solve([ineq.functional.coords for ineq in tight], target)
    if y is None or not _certifies(tight, y, target, best):
        raise CycleConesError(
            f"no optimality certificate for vertex scan maximum {best}",
            objective=[str(c) for c in objective.coords],
            vertex=[str(c) for c in optimal[0].coords],
        )
    return best, optimal


def _certifies(tight, y, target, best) -> bool:
    """Re-verify the dual certificate by direct arithmetic."""
    rows = [ineq.functional.coords for ineq in tight]
    return reproduces(y, rows, target) and (
        dot(y, [ineq.offset for ineq in tight]) == -best
    )

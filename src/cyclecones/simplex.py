"""Exact two-phase simplex over Fractions.

Used for linear optimization over polytopes and for nonnegative-combination
feasibility certificates.  Bland's rule throughout, so termination is
guaranteed; reduced costs are recomputed from the basis each iteration,
which is plenty fast at the problem sizes in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import CycleConesError
from .linalg import pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _optimize(rows, basis, costs, allowed):
    """Maximize costs·z over the current standard-form tableau.

    ``allowed`` restricts entering columns (used to freeze artificials in
    phase two).  Returns OPTIMAL or UNBOUNDED; tableau and basis are
    updated in place.  The reduced-cost row is initialized from the basis
    once and then maintained through pivots (Bland's rule on it).
    """
    ncols = len(rows[0]) - 1
    reduced = [Fraction(c) for c in costs] + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb != 0:
            reduced = [a - cb * b for a, b in zip(reduced, rows[i])]
    while True:
        enter = next(
            (j for j in range(ncols) if allowed[j] and reduced[j] > 0), None
        )
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(rows)):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        pivot(rows, leave, enter)
        basis[leave] = enter
        factor = reduced[enter]
        if factor != 0:
            reduced = [a - factor * b for a, b in zip(reduced, rows[leave])]


def _value(rows, basis, costs) -> Fraction:
    return sum(
        (costs[bi] * rows[i][-1] for i, bi in enumerate(basis)),
        Fraction(0),
    )


def solve_standard(matrix, rhs, costs):
    """Maximize costs·z subject to matrix·z = rhs, z >= 0.

    Returns ``(status, value, z)``; value and z are None unless OPTIMAL.
    """
    m = len(matrix)
    if m == 0:
        return OPTIMAL, Fraction(0), ()
    n = len(matrix[0])
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in matrix[i]] + [Fraction(rhs[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)

    # phase one: artificial basis, minimize the artificial total
    for i in range(m):
        rows[i] = rows[i][:-1] + [
            Fraction(int(i == j)) for j in range(m)
        ] + [rows[i][-1]]
    total = n + m
    basis = [n + i for i in range(m)]
    phase1_costs = [Fraction(0)] * n + [Fraction(-1)] * m
    allowed = [True] * total
    status = _optimize(rows, basis, phase1_costs, allowed)
    if status != OPTIMAL:
        raise CycleConesError("phase-one simplex cannot be unbounded")
    if _value(rows, basis, phase1_costs) != 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if i >= len(rows):
            continue
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                pivot(rows, i, col)
                basis[i] = col

    rows = [row[:n] + [row[-1]] for row in rows]
    phase2_costs = [Fraction(c) for c in costs]
    allowed = [True] * n
    status = _optimize(rows, basis, phase2_costs, allowed)
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        solution[bi] = rows[i][-1]
    return OPTIMAL, _value(rows, basis, phase2_costs), tuple(solution)


def nonneg_solve(columns: Sequence[Sequence[Fraction]], target) -> tuple | None:
    """Find coefficients c >= 0 with sum_j c_j * columns[j] = target, or None."""
    target = [Fraction(x) for x in target]
    dim = len(target)
    if not columns:
        return () if all(x == 0 for x in target) else None
    matrix = [[Fraction(col[i]) for col in columns] for i in range(dim)]
    status, _, solution = solve_standard(
        matrix, target, [Fraction(0)] * len(columns)
    )
    if status != OPTIMAL:
        return None
    return solution


def maximize_affine(functionals, offsets, objective):
    """Maximize objective·x over {x : functionals·x >= offsets}, x free.

    Free variables are split as x = u - w; each constraint gains a surplus
    variable.  Returns ``(status, value, x)``.
    """
    m = len(functionals)
    if m == 0:
        raise CycleConesError("maximize_affine requires at least one constraint")
    dim = len(functionals[0])
    matrix = []
    for row, off in zip(functionals, offsets):
        ext = (
            [Fraction(x) for x in row]
            + [-Fraction(x) for x in row]
            + [Fraction(0)] * m
        )
        matrix.append(ext)
    for i in range(m):
        matrix[i][2 * dim + i] = Fraction(-1)
    rhs = [Fraction(x) for x in offsets]
    costs = (
        [Fraction(x) for x in objective]
        + [-Fraction(x) for x in objective]
        + [Fraction(0)] * m
    )
    status, value, z = solve_standard(matrix, rhs, costs)
    if status != OPTIMAL:
        return status, None, None
    point = tuple(z[i] - z[dim + i] for i in range(dim))
    return OPTIMAL, value, point

"""Exact two-phase simplex over Fractions.

Used for nonnegative-combination feasibility certificates: membership
combinations in ``cones.contains`` and LP-duality multipliers in
``polytope.maximize_linear``.  Bland's rule throughout, so termination is
guaranteed; the reduced-cost row is kept up to date through the pivots,
which is plenty fast at the problem sizes in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import CycleConesError
from .linalg import dot, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _optimize(rows, basis, costs):
    """Maximize costs·z over the current standard-form tableau.

    Returns OPTIMAL or UNBOUNDED; tableau and basis are updated in place.
    The reduced-cost row is initialized from the basis once and then
    maintained through pivots (Bland's rule on it).
    """
    ncols = len(costs)
    reduced = [Fraction(c) for c in costs] + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb != 0:
            reduced = [a - cb * b for a, b in zip(reduced, rows[i])]
    while True:
        enter = next((j for j in range(ncols) if reduced[j] > 0), None)
        if enter is None:
            return OPTIMAL
        # least ratio; Bland's rule breaks ties by the leaving variable
        ratios = [
            (row[-1] / row[enter], basis[i], i)
            for i, row in enumerate(rows)
            if row[enter] > 0
        ]
        if not ratios:
            return UNBOUNDED
        leave = min(ratios)[2]
        pivot(rows, leave, enter)
        basis[leave] = enter
        factor = reduced[enter]
        if factor != 0:
            reduced = [a - factor * b for a, b in zip(reduced, rows[leave])]


def _value(rows, basis, costs) -> Fraction:
    return dot([costs[bi] for bi in basis], [row[-1] for row in rows])


def solve_standard(matrix, rhs, costs):
    """Maximize costs·z subject to matrix·z = rhs, z >= 0.

    ``costs`` has one entry per column.  Returns ``(status, value, z)``;
    value and z are None unless OPTIMAL.
    """
    m, n = len(matrix), len(costs)
    # phase one: artificial basis, minimize the artificial total
    rows = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        units = [Fraction(int(i == j)) for j in range(m)]
        row = [sign * Fraction(x) for x in matrix[i]]
        rows.append(row + units + [sign * Fraction(rhs[i])])
    basis = [n + i for i in range(m)]
    phase1_costs = [Fraction(0)] * n + [Fraction(-1)] * m
    status = _optimize(rows, basis, phase1_costs)
    if status != OPTIMAL:
        raise CycleConesError("phase-one simplex cannot be unbounded")
    if _value(rows, basis, phase1_costs) != 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i], basis[i]
            else:
                pivot(rows, i, col)
                basis[i] = col

    rows = [row[:n] + [row[-1]] for row in rows]
    phase2_costs = [Fraction(c) for c in costs]
    status = _optimize(rows, basis, phase2_costs)
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        solution[bi] = rows[i][-1]
    return OPTIMAL, _value(rows, basis, phase2_costs), tuple(solution)


def nonneg_solve(columns: Sequence[Sequence[Fraction]], target) -> tuple | None:
    """Find coefficients c >= 0 with sum_j c_j * columns[j] = target, or None."""
    if not columns:
        return () if all(x == 0 for x in target) else None
    matrix = [list(row) for row in zip(*columns)]
    status, _, solution = solve_standard(
        matrix, target, [Fraction(0)] * len(columns)
    )
    return solution if status == OPTIMAL else None


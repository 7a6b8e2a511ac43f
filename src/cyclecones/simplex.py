"""Exact phase-one simplex on integer rows, for nonnegative combinations.

``nonneg_solve`` finds the membership combinations of ``cones.contains``
and the LP-duality multipliers of ``polytope.maximize_linear``: a basic
solution of matrix·z = rhs, z >= 0.  That is phase one of the two-phase
method: an artificial column per row, Bland's rule on minus the
artificial total, then each artificial still basic is driven out, or
its (redundant) row deleted.

Each tableau row is a list of ``int``s standing for itself over its
*scale*, its positive entry in the row's basic column; the reduced-cost
row is one more such row over an implicit positive denominator.  A pivot
is ``linalg.int_pivot``.  Every decision compares the rationals a
Fraction tableau would hold: the entering column has the first positive
reduced cost; a ratio rhs/entry does not depend on the row's scale, so
the ratio test cross-multiplies, ties going to the lower basis index;
the system is feasible iff each row still basic in an artificial has
rhs 0.  So the pivots, and the solution ``Fraction(rhs, scale)``, are
the Fraction routine's, call for call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import CycleConesError, DomainError
from .linalg import int_pivot, numerators

_MAX_SIMPLEX_PIVOTS = 10_000  # per call; past it, a domain error


def solve_standard(matrix, rhs, ncols: int) -> tuple[Fraction, ...] | None:
    """A basic solution z >= 0 of matrix·z = rhs (``ncols`` columns), or None."""
    m, n = len(matrix), ncols
    rows = []
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        den, (ints,) = numerators((*row, b))
        ints = [-x for x in ints] if b < 0 else ints
        rows.append(ints[:-1] + [den * (i == j) for j in range(m)] + ints[-1:])
    basis = list(range(n, n + m))
    pivots = 0

    def step(r: int, c: int) -> None:
        nonlocal pivots
        pivots += 1
        if pivots > _MAX_SIMPLEX_PIVOTS:
            raise DomainError(
                "simplex exceeds its pivot budget", rows=m, columns=n, pivots=pivots
            )
        int_pivot(rows, r, c)
        basis[r] = c

    # reduced costs of maximizing minus the artificial total, priced out
    # against the artificial basis
    rows.append([0] * n + [-1] * m + [0])
    for i in range(m):
        int_pivot(rows, i, n + i)
    while True:
        reduced = rows[m]
        enter = next((j for j in range(n + m) if reduced[j] > 0), None)
        if enter is None:
            break
        leave, bn, bd = None, 0, 1  # the least ratio so far, bn / bd
        for i, row in enumerate(rows[:m]):
            if row[enter] > 0:
                cross, best = row[-1] * bd, bn * row[enter]
                if leave is None or cross < best or (
                    cross == best and basis[i] < basis[leave]
                ):
                    leave, bn, bd = i, row[-1], row[enter]
        if leave is None:
            raise CycleConesError("phase-one simplex cannot be unbounded")
        step(leave, enter)
    rows.pop()
    if any(b >= n and row[-1] for row, b in zip(rows, basis)):
        return None

    # drive leftover artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i], basis[i]
            else:
                step(i, col)
    solution = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        solution[b] = Fraction(row[-1], row[b])
    return tuple(solution)


def nonneg_solve(columns: Sequence[Sequence[Fraction]], target) -> tuple | None:
    """Find coefficients c >= 0 with sum_j c_j * columns[j] = target, or None."""
    if not any(target):  # phase one keeps a zero rhs, so it would find this too
        return (Fraction(0),) * len(columns)
    if not columns:
        return None
    matrix = [list(row) for row in zip(*columns)]
    return solve_standard(matrix, target, len(columns))

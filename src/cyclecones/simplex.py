"""Exact phase-one simplex on integer rows, for nonnegative combinations.

``nonneg_solve`` finds the membership combinations of ``cones.contains``
and the LP-duality multipliers of ``polytope.maximize_linear``: a basic
solution of matrix·z = rhs, z >= 0, by phase one of the two-phase method
(an artificial column per row, Bland's rule on minus the artificial
total, then each artificial still basic driven out or its row deleted).

``linalg.numerators`` clears the rows over one denominator den, a row
negated where its rhs is negative; an artificial column is den·e_i.  The
method is revised: it pivots an (m+1) × (m+3) matrix of ints.  A basic
row holds its row u of the basis inverse, a 0, a slot and its rhs; the
reduced-cost row holds weights w on the rows, a weight S on the costs
(-1 on an artificial, else 0), a slot and the objective.  A row stands
for the tableau row u·columns + S·costs, so an entry or a reduced cost
is a dot product with an integer column, and the artificial basis is
priced in closed form (w all 1, S = den).  A pivot writes the entering
column into the slot and calls ``linalg.int_pivot``, which keeps each
row a positive multiple of the Fraction tableau's.  So every decision
compares that tableau's rationals: the first positive reduced cost
enters, artificials included; the ratio test cross-multiplies, ties
going to the lower basis index; each artificial still basic must have
rhs 0.  Pivots and solutions are the full tableau's, call for call.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import CycleConesError, DomainError
from .linalg import int_pivot, numerators

_MAX_SIMPLEX_PIVOTS = 10_000  # per call; past it, a domain error


def solve_standard(matrix, rhs, ncols: int) -> tuple[Fraction, ...] | None:
    """A basic solution z >= 0 of matrix·z = rhs (``ncols`` columns), or None."""
    m, n, slot = len(matrix), ncols, len(matrix) + 1
    den, ints = numerators(*((*row, b) for row, b in zip(matrix, rhs)))
    signed = [[-x for x in row] if row[-1] < 0 else row for row in ints]
    *cols, beta = zip(*signed, [0] * (n + 1))  # a column's last entry is its cost
    cols += [(0,) * i + (den,) + (0,) * (m - i - 1) + (-1,) for i in range(m)]
    rows = [[0] * i + [1] + [0] * (m - i + 1) + [b] for i, b in enumerate(beta[:m])]
    rows.append([1] * m + [den, 0, sum(beta)])
    basis, pivots = list(range(n, n + m)), 0

    def step(r: int, c: int) -> None:
        nonlocal pivots
        pivots += 1
        if pivots > _MAX_SIMPLEX_PIVOTS:
            raise DomainError("simplex exceeds its pivot budget", rows=m, columns=n, pivots=pivots)
        int_pivot(rows, r, slot)
        basis[r] = c

    while True:
        cost = rows[m]
        for enter, col in enumerate(cols):
            if (d := sum(map(mul, cost, col))) > 0:
                break
        else:
            break  # phase one is optimal
        cost[slot] = d
        leave, bn, bd = None, 0, 1  # the least ratio so far, bn / bd
        for i, row in enumerate(rows[:m]):
            e = row[slot] = sum(map(mul, row, col))
            if e > 0 and (leave is None or (row[-1] * bd, basis[i]) < (bn * e, basis[leave])):
                leave, bn, bd = i, row[-1], e
        if leave is None:
            raise CycleConesError("phase-one simplex cannot be unbounded")
        step(leave, enter)
    rows.pop()
    if any(b >= n and row[-1] for row, b in zip(rows, basis)):
        return None

    # drive leftover artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if sum(map(mul, rows[i], cols[j]))), None)
            if col is None:
                del rows[i], basis[i]
                continue
            for row in rows:
                row[slot] = sum(map(mul, row, cols[col]))
            step(i, col)
    solution = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        solution[b] = Fraction(row[-1], sum(map(mul, row, cols[b])))  # rhs over scale
    return tuple(solution)


def nonneg_solve(columns: Sequence[Sequence[Fraction]], target) -> tuple | None:
    """Find coefficients c >= 0 with sum_j c_j * columns[j] = target, or None."""
    if not any(target):  # phase one keeps a zero rhs, so it would find this too
        return (Fraction(0),) * len(columns)
    if not columns:
        return None
    matrix = [list(row) for row in zip(*columns)]
    return solve_standard(matrix, target, len(columns))

"""Shared randomized-data helpers for the test suite.

All randomness is seeded per test, so failures reproduce exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cyclecones.cones import PolyCone
from cyclecones.projbundle import HNProfile
from cyclecones.simplex import OPTIMAL, solve_standard
from cyclecones.vectors import ClassVector


def random_cone(rng: random.Random, dim: int, basis: str) -> PolyCone:
    count = rng.randint(1, dim + 2)
    rows = []
    while len(rows) < count:
        row = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        if any(row):
            rows.append(row)
    return PolyCone.from_generators(basis, rows, dim=dim)


def random_vector(rng: random.Random, dim: int, basis: str) -> ClassVector:
    return ClassVector(
        basis,
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)),
    )


def random_member(rng: random.Random, cone: PolyCone) -> ClassVector:
    total = None
    for g in cone.generators:
        part = g.scale(Fraction(rng.randint(0, 4), rng.randint(1, 2)))
        total = part if total is None else total + part
    return total


def random_profile(rng: random.Random, max_pieces: int = 4, max_rank: int = 5,
                   max_degree: int = 10) -> HNProfile:
    while True:
        pieces = []
        count = rng.randint(1, max_pieces)
        ranks = [rng.randint(1, max_rank) for _ in range(count)]
        if sum(ranks) < 2:
            continue
        degrees = [rng.randint(-max_degree, max_degree) for _ in range(count)]
        slopes = [Fraction(d, r) for d, r in zip(degrees, ranks)]
        if all(a < b for a, b in zip(slopes, slopes[1:])):
            return HNProfile(tuple(zip(ranks, degrees)))


def bareiss_det(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], sign = m[pivot], m[c], -sign
        for i in range(c + 1, n):
            m[i] = [(m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev for j in range(n)]
        prev = m[c][c]
    return sign * m[n - 1][n - 1] if n else 1


def maximize_affine(functionals, offsets, objective):
    """LP oracle: maximize objective·x over {x : functionals·x >= offsets}.

    Free variables are split as x = u - w, and each constraint gains a
    surplus variable, for the library's exact simplex.  Returns
    ``(status, value, x)``.
    """
    m, dim = len(functionals), len(functionals[0])
    matrix = []
    for i, row in enumerate(functionals):
        surplus = [Fraction(-(i == j)) for j in range(m)]
        split = [Fraction(x) for x in row] + [-Fraction(x) for x in row]
        matrix.append(split + surplus)
    costs = [Fraction(x) for x in objective]
    costs += [-c for c in costs] + [Fraction(0)] * m
    status, value, z = solve_standard(matrix, offsets, costs)
    if status != OPTIMAL:
        return status, None, None
    return OPTIMAL, value, tuple(z[i] - z[dim + i] for i in range(dim))


@pytest.fixture
def rng():
    return random.Random(0xC1C1E5)


# toric threefold data, shared across unit tests (the fixture file carries
# the same numbers; unit tests deliberately avoid the fixture loader)
TORIC_D = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (Fraction(-2, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(-2, 3), Fraction(-2, 3), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-2, 3), Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 3)),
)
TORIC_A = (
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 1),
    (0, 0, 1, 0, 1),
    (1, 1, 1, -1, 1),
    (0, 0, 0, 0, 1),
)
TORIC_C = (
    (1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0),
    (0, 0, 1, 1, 0),
    (-1, -1, -1, -2, 1),
    (0, 0, 0, -1, 0),
)
TORIC_M = (
    (1, 0, 0, 0, 2),
    (0, 1, 0, 0, 2),
    (0, 0, 1, 0, 2),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1),
    (1, 1, 1, 0, 3),
)
TORIC_ALPHA = (1, 1, 0, 1, 2)
TORIC_OBJECTIVE = (2, 2, 2, -1, 5)  # sum of the five nef generators

import random
from collections import Counter
from fractions import Fraction

import pytest

from cyclecones.linalg import (
    combine,
    dot,
    echelon,
    int_primitive,
    mat_rank,
    nullspace,
    reproduces,
    separates,
    solve_unique,
    violated,
)

from conftest import bareiss_det, pivot, rref

F = Fraction


def test_solve_unique_square():
    assert solve_unique([[F(2), F(0)], [F(0), F(3)]], [F(4), F(9)]) == (F(2), F(3))


def test_solve_unique_overdetermined_consistent():
    a = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert solve_unique(a, [F(1), F(2), F(3)]) == (F(1), F(2))


def test_solve_unique_detects_inconsistency_and_freedom():
    assert solve_unique([[F(1), F(1)]], [F(1)]) is None
    a = [[F(1), F(0)], [F(1), F(0)]]
    assert solve_unique(a, [F(1), F(2)]) is None


def test_rank_and_nullspace():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(0)]]
    assert mat_rank(a) == 2
    basis = nullspace(a)
    assert len(basis) == 1
    vec = basis[0]
    for row in a:
        assert sum(r * v for r, v in zip(row, vec)) == 0


def test_determinant_signs():
    # the determinant is a test oracle (leading minors, Cramer's rule)
    assert bareiss_det([[F(-2), F(1)], [F(1), F(-2)]]) == 3
    assert bareiss_det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert bareiss_det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_kernel_pairings_and_certificates():
    assert dot((F(1), F(-1)), (F(2), F(3))) == -1
    assert dot((1, -1), (2, 3)) == -1 and type(dot((1, -1), (2, 3))) is int
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    rows = [(F(1), F(0)), (F(1), F(1))]
    assert combine((F(1, 2), F(2)), rows, 2) == (F(5, 2), F(2))
    assert combine((), [], 3) == (0, 0, 0)
    assert reproduces((F(1, 2), F(2)), rows, (F(5, 2), F(2)))
    assert not reproduces((F(-1), F(2)), rows, (F(1), F(2)))  # negative
    assert not reproduces((F(1, 2), F(2), F(0)), rows, (F(5, 2), F(2)))  # length
    assert not reproduces((F(1, 2), F(2)), rows, (F(5, 2), F(3)))  # coordinate
    assert reproduces((), [], (0, 0)) and not reproduces((), [], (0, 1))
    assert separates((F(0), F(1)), rows, (F(1), F(-1)))
    assert not separates((F(0), F(1)), rows, (F(1), F(0)))
    assert not separates((F(-1), F(1)), rows, (F(1), F(0)))  # negative on a row
    assert not separates((F(0), F(1), F(0)), rows, (F(1), F(-1)))  # length
    assert violated(rows, (F(1), F(0))) is None
    assert violated([(F(1), F(0)), (F(0), F(1))], (F(1), F(-1))) == 1


def test_int_primitive_and_pivot():
    assert int_primitive((F(2, 3), F(-4, 3), F(0))) == (1, -2, 0)
    assert int_primitive((-6, 4)) == (-3, 2)
    assert int_primitive((F(0), F(0))) == (0, 0)
    rows = [[F(2), F(4), F(2)], [F(1), F(3), F(0)]]
    pivot(rows, 0, 0)
    assert rows == [[1, 2, 1], [0, 1, -1]]


def test_echelon_identity():
    rows, pivots = echelon([[F(2), F(0)], [F(0), F(5)]])
    assert pivots == [0, 1]
    assert rows == [[1, 0], [0, 1]]


def _random_matrix(rng):
    """A seeded matrix of 0-7 rows and 0-8 columns, and its feature tags."""
    m, n = rng.randint(0, 7), rng.randint(0, 8)
    tags = {"tall"} if m > n else {"wide"} if m < n else set()
    rows = []
    for _ in range(m):
        kind = rng.choice(("fresh", "fresh", "fresh", "zero", "duplicate",
                           "rescaled", "negated"))
        if kind == "zero" or (not rows and kind != "fresh"):
            row = [F(0)] * n
            kind = "zero-row"
        elif kind == "fresh":
            row = [F(rng.randint(-4, 4) * (rng.random() < 0.7), rng.choice((1, 1, 2, 3)))
                   for _ in range(n)]
        else:
            scale = {"duplicate": 1, "negated": -1}.get(kind)
            scale = scale or F(rng.choice((-3, -2, 2, 5)), rng.randint(1, 3))
            row = [scale * x for x in rng.choice(rows)]
        tags.add(kind)
        rows.append(row)
    if m and n and rng.random() < 0.25:
        c = rng.randrange(n)
        for row in rows:
            row[c] = F(0)
        tags.add("zero-column")
    if any(x.denominator > 1 for row in rows for x in row):
        tags.add("fractional")
    return rows, n, tags


def _oracle_nullspace(reduced, pivots, n):
    basis = []
    for f in (f for f in range(n) if f not in pivots):
        vec = [F(0)] * n
        vec[f] = F(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def _oracle_solve(matrix, rhs, n):
    reduced, pivots = rref([row + [b] for row, b in zip(matrix, rhs)])
    if n in pivots:
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    return "unique", tuple(reduced[r][n] for r in range(n))


def test_elimination_matches_fraction_rref_oracle():
    # 600 seeded matrices, each feature below at least 50 times; per
    # matrix, one consistent and one random right-hand side
    rng = random.Random(1_968_022)
    seen = Counter()
    for _ in range(600):
        matrix, n, tags = _random_matrix(rng)
        reduced, pivots = rref(matrix)
        rows, got = echelon(matrix)
        assert got == pivots, matrix
        for r, row in enumerate(rows):
            if r < len(pivots):
                scale = row[pivots[r]]
                assert scale > 0 and tuple(F(x, scale) for x in row) == reduced[r]
            else:
                assert not any(row) and not any(reduced[r])
        assert mat_rank(matrix) == len(pivots)
        basis = nullspace(matrix, ncols=n)
        assert basis == _oracle_nullspace(reduced, pivots, n)
        assert all(dot(row, v) == 0 for row in matrix for v in basis)
        if len(pivots) < min(len(matrix), n):
            tags.add("rank-deficient")
        seen.update(tags)
        if not matrix:
            continue
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        consistent = [dot(row, x) for row in matrix]
        noise = [F(rng.randint(-3, 3)) for _ in matrix]
        for rhs in (consistent, noise):
            kind, expected = _oracle_solve(matrix, rhs, n)
            assert solve_unique(matrix, rhs) == expected, (matrix, rhs)
            if kind == "unique":
                assert [dot(row, expected) for row in matrix] == rhs
            seen[kind] += 1
    features = ("tall", "wide", "zero-row", "zero-column", "duplicate", "rescaled",
                "negated", "fractional", "rank-deficient", "unique",
                "inconsistent", "underdetermined")
    assert all(seen[f] >= 50 for f in features), seen


def test_empty_matrix_elimination():
    assert echelon([]) == ([], [])
    assert nullspace([], ncols=2) == [(F(1), F(0)), (F(0), F(1))]
    assert solve_unique([], []) == ()
    with pytest.raises(ValueError):
        nullspace([])
    with pytest.raises(ValueError):
        solve_unique([[F(1)]], [])

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from cyclecones import linalg
from cyclecones.linalg import (
    combine,
    dot,
    echelon,
    int_primitive,
    mat_rank,
    nullspace,
    numerators,
    reproduces,
    separates,
    solve_unique,
    violated,
)

from conftest import bareiss_det, fraction_int_primitive, fraction_reproduces, pivot, rref

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
    basis = nullspace(a, 3)
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
    assert not reproduces((F(-1, 2),), [(1,)], (F(-1, 2),))  # negative, not an integer
    assert not reproduces((F(1, 2), F(2), F(0)), rows, (F(5, 2), F(2)))  # length
    assert not reproduces((F(1, 2), F(2)), rows, (F(5, 2), F(3)))  # coordinate
    assert not reproduces((F(1, 2), F(2)), rows, (F(5, 2), F(2), 0))  # long target
    assert not reproduces((F(1, 2), F(2)), rows, (F(5, 2),))  # short target
    assert reproduces((), [], (0, 0)) and not reproduces((), [], (0, 1))
    assert separates((F(0), F(1)), rows, (F(1), F(-1)))
    assert not separates((F(0), F(1)), rows, (F(1), F(0)))
    assert not separates((F(-1), F(1)), rows, (F(1), F(0)))  # negative on a row
    assert not separates((F(0), F(1), F(0)), rows, (F(1), F(-1)))  # length
    assert not separates((1, 0), [(1, 0, -5)], (-1, 0))  # a row's length
    assert violated(rows, (F(1), F(0))) is None
    assert violated([(F(1), F(0)), (F(0), F(1))], (F(1), F(-1))) == 1


def test_dot_builds_no_fraction_on_integer_rows(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    assert type(dot((1, 2), (3, 4))) is int and dot((5,), (-1,)) == -5
    assert built == []
    assert dot((), ()) == 0 and built == [(0,)]


def test_reproduces_rejects_inexact_entries():
    # floats, bools and strings, in a coefficient or in the target
    rows = [(2,), (1,)]
    assert reproduces([F(1, 2), 0], rows, (1,)) and reproduces([0, 1], rows, (1,))
    assert not reproduces([0.5, 0], rows, (1,))
    assert not reproduces([0, True], rows, (1,))
    assert not reproduces(["1", 0], rows, (2,))
    assert not reproduces([1, 0], rows, (2.0,))
    assert not reproduces([0, 1], rows, (True,))
    assert not reproduces([1, 0], rows, ("2",))


def _random_triple(rng):
    """Coefficients, rows, a target and how the target was made; exact
    entries only."""
    dim, count = rng.randint(1, 4), rng.randint(0, 4)

    def entry(lo, hi):
        if rng.random() < 0.5:
            return F(rng.randint(lo, hi), rng.randint(1, 4))
        return rng.randint(lo, hi)

    rows = [tuple(entry(-3, 3) for _ in range(dim)) for _ in range(count)]
    coeffs = [rng.choice((0, 0, entry(0, 4), entry(-2, 4))) for _ in range(count)]
    target = list(combine(coeffs, rows, dim + rng.randint(0, 1)))
    kind = rng.choice(("exact", "exact", "off", "random")) if target else "exact"
    if kind == "off":
        den = lcm(*(x.denominator for x in (*coeffs, *target)))
        target[rng.randrange(len(target))] += F(rng.choice((-1, 1)), den)
    elif kind == "random":
        target = [entry(-4, 4) for _ in target]
    if rng.random() < 0.1:
        coeffs = coeffs[:-1] if coeffs and rng.random() < 0.5 else coeffs + [1]
    return coeffs, rows, tuple(target), kind


def test_reproduces_matches_fraction_oracle():
    # 600 seeded triples; both verdicts occur, and zero and negative
    # coefficients, Fraction rows, wrong lengths, targets one entry longer
    # than the rows and off-by-1/den targets each occur at least 30 times
    rng = random.Random(2_718_281)
    seen = Counter()
    for _ in range(600):
        coeffs, rows, target, kind = _random_triple(rng)
        want = fraction_reproduces(coeffs, rows, target)
        assert reproduces(coeffs, rows, target) is want, (coeffs, rows, target)
        seen[want] += 1
        seen[kind] += 1
        seen["zero"] += 0 in coeffs
        seen["negative"] += any(c < 0 for c in coeffs)
        seen["fraction-row"] += any(type(x) is F for row in rows for x in row)
        seen["wrong-length"] += len(coeffs) != len(rows)
        seen["long-target"] += any(len(row) != len(target) for row in rows)
        seen["fraction-target"] += any(type(x) is F for x in target)
    assert all(seen[k] >= 30 for k in seen) and len(seen) == 11, seen


def _random_rows(rng):
    """0-4 rows of 0-6 entries and their kinds: all ``int``, all
    ``Fraction``, mixed, or empty."""
    rows, kinds = [], set()
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("int", "fraction", "mixed", "empty"))
        length = 0 if kind == "empty" else rng.randint(2 if kind == "mixed" else 1, 6)
        row = [F(rng.randint(-9, 9), rng.randint(1, 12)) if kind == "fraction"
               or (kind == "mixed" and rng.random() < 0.5) else rng.randint(-9, 9)
               for _ in range(length)]
        if kind == "mixed":  # one entry of each type at least
            row[0], row[-1] = rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(2, 12))
        rows.append(tuple(row))
        kinds.add(kind)
    return rows, kinds or {"no-rows"}


def test_numerators_matches_fraction_arithmetic():
    # 600 seeded row lists: den is the lcm of every entry's denominator,
    # taken over all rows at once, and each row is x·den entry by entry, in
    # ints; every kind of row, and no rows at all, occurs at least 50 times
    rng = random.Random(4_669_201)
    seen = Counter()
    for _ in range(600):
        rows, kinds = _random_rows(rng)
        den, ints = numerators(*rows)
        want = 1
        for x in (F(x) for row in rows for x in row):
            want = want * x.denominator // gcd(want, x.denominator)
        assert type(den) is int and den == want, rows
        assert len(ints) == len(rows)
        for row, got in zip(rows, ints):
            assert type(got) is list and all(type(v) is int for v in got), (rows, got)
            assert got == [F(x) * den for x in row], rows
        seen.update(kinds)
    assert numerators() == (1, [])
    assert numerators(()) == (1, [[]])
    assert numerators((F(1, 2), 3), (F(-2, 3),)) == (6, [[3, 18], [-4]])
    assert len(seen) == 5 and min(seen.values()) >= 50, seen


def test_int_primitive_and_pivot():
    assert int_primitive((F(2, 3), F(-4, 3), F(0))) == (1, -2, 0)
    assert int_primitive((-6, 4)) == (-3, 2)
    assert int_primitive((F(0), F(0))) == (0, 0)
    rows = [[F(2), F(4), F(2)], [F(1), F(3), F(0)]]
    pivot(rows, 0, 0)
    assert rows == [[1, 2, 1], [0, 1, -1]]


def _random_primitive_row(rng):
    """A row and its kind: all-``int`` (zero, negative content, one entry,
    large entries or plain) or mixed ``int``/``Fraction``."""
    kind = rng.choice(("zero", "negative", "single", "large", "int", "mixed", "mixed"))
    length = 1 if kind == "single" else rng.randint(1, 7)
    if kind == "zero":
        return (0,) * length, kind
    bound = 10**30 if kind == "large" else 9
    row = [rng.randint(-bound, bound) for _ in range(length)]
    if kind == "negative":  # content at least 2, a negative first entry
        content = rng.randint(2, 6)
        row = [content * -rng.randint(1, 9)] + [content * x for x in row[1:]]
    if kind == "mixed":
        k = rng.randrange(length)
        row[k] = F(rng.randint(-9, 9), rng.randint(2, 6))
    return tuple(row), kind


def test_int_primitive_matches_fraction_oracle(monkeypatch):
    # 600 seeded rows: all-int rows take the gcd-only path, which never
    # scales by denominators; every kind occurs at least 50 times
    scaled = []

    def counting(*rows):
        scaled.append(rows)
        return numerators(*rows)

    monkeypatch.setattr(linalg, "numerators", counting)
    rng = random.Random(1_618_033)
    seen = Counter()
    for _ in range(600):
        row, kind = _random_primitive_row(rng)
        before = len(scaled)
        got = int_primitive(row)
        assert got == fraction_int_primitive(row), row
        assert all(type(x) is int for x in got)
        assert (len(scaled) > before) == (kind == "mixed"), row
        seen[kind] += 1
        seen["divided"] += kind != "mixed" and got != row
    assert len(seen) == 7 and min(seen.values()) >= 50, seen


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
        solve_unique([[F(1)]], [])

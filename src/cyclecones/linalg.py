"""The exact kernel: rows of Fractions (or integers) and their arithmetic.

Every pairing, combination and elimination in the package goes through
these functions, and every certificate is re-checked with them:

- ``dot``: the pairing sum a_i b_i; integer rows stay integers.
- ``combine``: the combination sum c_i row_i.
- ``reproduces``: a nonnegative combination of rows equals a target.
- ``separates``: a functional is nonnegative on rows, negative on a vector.
- ``violated``: the first functional negative on a vector, if any.
- ``int_primitive``: coprime integer form of a row, orientation kept.
- ``pivot``: one Gauss-Jordan pivot on a list of rows.
- ``rref``, ``mat_rank``, ``nullspace``, ``solve_unique``: elimination.

Problem sizes in this package stay below dimension ~10, so there is no
pivoting strategy beyond the first nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Row = tuple[Fraction, ...]


def dot(a, b):
    """The pairing sum a_i b_i of two rows of equal length."""
    products = map(mul, a, b)
    # starting from the first product keeps integer rows in integers and
    # spares Fraction rows a mixed int + Fraction addition
    return sum(products, next(products, Fraction(0)))


def combine(coeffs, rows, dim: int) -> Row:
    """The combination sum c_i rows_i, a row of length ``dim``."""
    total = [Fraction(0)] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                total[i] += c * x
    return tuple(total)


def reproduces(coeffs, rows, target) -> bool:
    """True iff one nonnegative coefficient per row combines to ``target``."""
    return (
        len(coeffs) == len(rows)
        and all(c >= 0 for c in coeffs)
        and combine(coeffs, rows, len(target)) == tuple(target)
    )


def separates(functional, rows, vector) -> bool:
    """True iff ``functional`` is >= 0 on every row and < 0 on ``vector``."""
    return (
        len(functional) == len(vector)
        and all(dot(functional, row) >= 0 for row in rows)
        and dot(functional, vector) < 0
    )


def violated(functionals, vector) -> int | None:
    """Index of the first functional negative on ``vector``; None if none is.

    None means ``vector`` lies in the cone {x : <l, x> >= 0 for every l}.
    """
    return next(
        (i for i, l in enumerate(functionals) if dot(l, vector) < 0), None
    )


def int_primitive(row) -> tuple[int, ...]:
    """Coprime integer form of a rational row, preserving orientation."""
    common = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (common // x.denominator) for x in row]
    content = gcd(*ints)
    if content <= 1:
        return tuple(ints)
    return tuple(v // content for v in ints)


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """Scale row ``r`` to a 1 in column ``c`` and clear that column elsewhere."""
    inv = 1 / rows[r][c]
    rows[r] = [x * inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            factor = rows[i][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]


def _to_rows(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = _to_rows(matrix)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


def mat_rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix, ncols: int | None = None) -> list[Row]:
    """Basis of the right null space {x : Mx = 0}."""
    rows = _to_rows(matrix)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def solve_unique(matrix, rhs) -> Row | None:
    """Solve Mx = b when the solution exists and is unique, else None.

    None covers both inconsistent systems and systems with free variables;
    callers that need to distinguish should inspect ranks themselves.
    """
    rows = _to_rows(matrix)
    b = [Fraction(x) for x in rhs]
    if len(rows) != len(b):
        raise ValueError("matrix/rhs size mismatch")
    if not rows:
        return ()
    ncols = len(rows[0])
    augmented = [row + [bv] for row, bv in zip(rows, b)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:  # pivot in the rhs column: inconsistent
        return None
    if len([p for p in pivots if p < ncols]) < ncols:
        return None
    solution = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        solution[p] = reduced[r][ncols]
    return tuple(solution)

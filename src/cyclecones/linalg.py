"""Small exact linear algebra kernel over Fraction matrices.

Matrices are sequences of row sequences of Fractions.  Everything here is
plain Gaussian elimination; problem sizes in this package stay below
dimension ~10, so there is no pivoting strategy beyond the first nonzero.
"""

from __future__ import annotations

from fractions import Fraction
Row = tuple[Fraction, ...]


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
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
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


def determinant(matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                factor = rows[i][c] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def in_row_span(matrix, vector) -> bool:
    """True iff ``vector`` lies in the row span of ``matrix``."""
    rows = _to_rows(matrix)
    vec = [Fraction(x) for x in vector]
    base = mat_rank(rows) if rows else 0
    return mat_rank(rows + [vec]) == base


"""The exact kernel: rows of ``int``s and ``Fraction``s and their arithmetic.

Every pairing, combination and elimination in the package goes through
these functions, and every certificate is re-checked with them:

- ``dot``: the pairing sum a_i b_i; integer rows stay integers.
- ``combine``: the combination sum c_i row_i.
- ``all_exact``: every entry is an ``int`` or a ``Fraction``, the entries a
  certificate may hold.
- ``reproduces``: a nonnegative combination of rows equals a target,
  checked on integers over one common denominator.
- ``separates``: a functional is nonnegative on rows, negative on a vector.
- ``violated``: the first functional negative on a vector, if any.
- ``numerators``: rationals times a common denominator, as integers.
- ``int_primitive``: coprime integer form of a row, orientation kept; a
  row of ``int``s is only divided by its content.
- ``int_pivot``: one Gauss-Jordan pivot on integer rows, fraction-free.
- ``echelon``: reduced row echelon form by ``int_pivot``.
- ``mat_rank``, ``nullspace``, ``solve_unique``: read off ``echelon``.

Problem sizes in this package stay below dimension ~10, so there is no
pivoting strategy beyond the first nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Row = tuple[int | Fraction, ...]


def dot(a, b):
    """The pairing sum a_i b_i of two rows of equal length; 0 of empty rows."""
    products = map(mul, a, b)
    # starting from the first product keeps integer rows in integers and
    # spares Fraction rows a mixed int + Fraction addition
    first = next(products, None)
    if first is None:
        return Fraction(0)
    return sum(products, first)


def combine(coeffs, rows, dim: int) -> Row:
    """The combination sum c_i rows_i, a row of length ``dim``; integer
    coefficients on integer rows give an integer row."""
    total = [0] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                total[i] += c * x
    return tuple(total)


def all_exact(values) -> bool:
    """True iff every entry is exactly an ``int`` or a ``Fraction``, not a
    float, a bool, a string or a subclass."""
    return all(type(x) is int or type(x) is Fraction for x in values)


def reproduces(coeffs, rows, target) -> bool:
    """True iff one nonnegative coefficient per row combines to ``target``.

    Every row must have the target's length, and every coefficient and
    target entry must be an ``int`` or a ``Fraction``; any other type (a
    float, a bool, a string) fails.  Over ``den``, the lcm of their
    denominators, the integer coefficients ``c·den`` must combine to
    ``den·target``: a positive rescaling of the same test, with no
    Fraction arithmetic on integer rows.
    """
    entries = (*coeffs, *target)
    if len(coeffs) != len(rows) or not all_exact(entries):
        return False
    # exact entries: a coefficient's sign is its numerator's
    if any(c.numerator < 0 for c in coeffs) or any(len(row) != len(target) for row in rows):
        return False
    den = lcm(*(x.denominator for x in entries))
    scaled = combine(numerators(coeffs, den), rows, len(target))
    return scaled == tuple(numerators(target, den))


def separates(functional, rows, vector) -> bool:
    """True iff ``functional`` is >= 0 on every row and < 0 on ``vector``,
    all of one length."""
    return (
        len(functional) == len(vector)
        and all(len(row) == len(vector) and dot(functional, row) >= 0 for row in rows)
        and dot(functional, vector) < 0
    )


def violated(functionals, vector) -> int | None:
    """Index of the first functional negative on ``vector``; None if none is.

    None means ``vector`` lies in the cone {x : <l, x> >= 0 for every l}.
    """
    return next(
        (i for i, l in enumerate(functionals) if dot(l, vector) < 0), None
    )


def numerators(values, den: int) -> list[int]:
    """The integers x·den of rationals ``values`` whose denominators divide
    ``den`` (an ``int`` is its own numerator over 1)."""
    return [x.numerator * (den // x.denominator) for x in values]


def int_primitive(row) -> tuple[int, ...]:
    """Coprime integer form of a rational row, preserving orientation.

    A row of exact ``int``s is only divided by its content; any other row
    is first scaled by the lcm of its denominators to integers.
    """
    if all(type(x) is int for x in row):
        ints = row
    else:
        ints = numerators(row, lcm(*(x.denominator for x in row)))
    content = gcd(*ints)
    if content <= 1:
        return tuple(ints)
    return tuple(v // content for v in ints)


def int_pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Fraction-free Gauss-Jordan pivot on integer rows, in place.

    If each row is a positive multiple of a Fraction row, it stays one of
    the row the Fraction pivot (row ``r`` scaled to a 1 in column ``c``, the
    column cleared elsewhere) leaves.  Row ``r`` is negated if its entry
    ``a`` in column ``c`` is negative; every other row with an entry
    ``b != 0`` there becomes ``a·row − b·rows[r]`` divided by its content
    (Edmonds 1967; Bareiss 1968).
    """
    prow = rows[r]
    a = prow[c]
    if a < 0:
        a = -a
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        b = row[c]
        if b and i != r:
            new = [a * x - b * y for x, y in zip(row, prow)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def echelon(matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on integer rows, and the list of pivot columns.

    Each row starts as ``int_primitive`` of its input row, and every step is
    an ``int_pivot`` on the first nonzero entry at or below the current row,
    swapped up.  So row r is a positive multiple of the reduced row, whose
    entries are ``Fraction(x, row[pivots[r]])``; rows below the pivots are 0.
    """
    rows = [list(int_primitive(row)) for row in matrix]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        int_pivot(rows, r, c)
        pivots.append(c)
    return rows, pivots


def mat_rank(matrix) -> int:
    return len(echelon(matrix)[1])


def nullspace(matrix, ncols: int) -> list[Row]:
    """Basis of the right null space {x : Mx = 0} of a matrix with
    ``ncols`` columns."""
    rows, pivots = echelon(matrix)
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = Fraction(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def solve_unique(matrix, rhs) -> Row | None:
    """Solve Mx = b when the solution exists and is unique, else None.

    None covers both inconsistent systems and systems with free variables;
    callers that need to distinguish should inspect ranks themselves.
    """
    matrix, rhs = list(matrix), list(rhs)
    if len(matrix) != len(rhs):
        raise ValueError("matrix/rhs size mismatch")
    if not matrix:
        return ()
    ncols = len(matrix[0])
    rows, pivots = echelon([(*row, b) for row, b in zip(matrix, rhs)])
    # a pivot in the rhs column: inconsistent; fewer pivots: a free variable
    if ncols in pivots or len(pivots) < ncols:
        return None
    return tuple(Fraction(row[ncols], row[p]) for row, p in zip(rows, pivots))

"""Surface-style decompositions over an explicit pairing matrix.

Input: a symmetric Gram matrix with nonnegative off-diagonal entries
(distinct "curves" meet nonnegatively) and a nonnegative coefficient
vector.  Output: a splitting into a part pairing nonnegatively against
every basis vector and a leftover supported on a negative-definite
block, orthogonal to the first part on its own support.  Each route
carries its own fraction-free elimination of ``[gram | pairings]``.
``decompose`` pivots the full integer rows with ``linalg.int_pivot`` and
grows the support by the indices that pair negatively.  The independent
oracle ``brute_force`` searches every negative-definite support instead
of every subset, on columns: only the live block (the columns of negative
self-pairing that the search has not yet passed) and the pairing column,
integers over one common denominator, each step a Bareiss pivot that
divides exactly by the previous pivot.  That loses no splitting: a valid
one lives on a negative-definite support T, and its negative part is the
unique orthogonality solve on T, so the search finds it at T.  Negative
definiteness passes to principal submatrices, so no superset of a
support that fails it needs a visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .linalg import combine, int_pivot, int_primitive, numerators
from .rationals import rat, rat_str
from .vectors import ClassVector


@dataclass(frozen=True)
class PairingBasis:
    """Labelled basis vectors with their exact symmetric pairing matrix.

    By symmetry, ``combine(coeffs, gram, rank)`` is the tuple of pairings
    <sum_j coeffs_j v_j, v_i>.  Gram entries are ``rationals.rat``.
    """

    labels: tuple[str, ...]
    gram: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        gram = tuple(tuple(map(rat, row)) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        r = len(self.labels)
        if len(gram) != r or any(len(row) != r for row in gram):
            raise InputError("gram matrix shape does not match the labels")
        for i in range(r):
            for j in range(r):
                if gram[i][j] != gram[j][i]:
                    raise InputError("gram matrix must be symmetric")
                if i != j and gram[i][j] < 0:
                    raise InputError(
                        f"off-diagonal pairing <{self.labels[i]}, "
                        f"{self.labels[j]}> is negative"
                    )

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def basis_name(self) -> str:
        return "pairing[" + ",".join(self.labels) + "]"

    def submatrix(self, support) -> list[list[Fraction]]:
        return [[self.gram[i][j] for j in support] for i in support]


def is_negative_definite(matrix) -> bool:
    """True iff every elimination pivot, taken without row exchanges, is < 0.

    The k-th pivot is the ratio of the leading principal minors of orders
    k and k - 1, so all pivots are negative exactly when (-1)^k times the
    k-th leading minor is positive for every k.  A zero pivot means a
    singular leading minor: not negative definite.  The pivots run on
    ``int_primitive`` rows with ``int_pivot``, which keeps every row a
    positive multiple of the Fraction row, so each diagonal entry has the
    sign of the Fraction pivot.
    """
    rows = [list(int_primitive(row)) for row in matrix]
    for k in range(len(rows)):
        if rows[k][k] >= 0:
            return False
        int_pivot(rows, k, k)
    return True


def _build(basis: PairingBasis, coeffs, support_coeffs) -> Decomposition:
    name = basis.basis_name
    negative = ClassVector(name, tuple(support_coeffs))
    total = ClassVector(name, tuple(coeffs))
    positive = total - negative
    support = tuple(i for i, c in enumerate(support_coeffs) if c != 0)
    # the pairings on the positive part's integer numerators over one denominator
    den, (ints,) = numerators(positive.coords)
    pairings = combine(ints, basis.gram, basis.rank)
    if den > 1:
        pairings = [Fraction(v, den) for v in pairings]
    certificates = (
        Certificate("positive-pairings-nonnegative", {"values": list(pairings)}),
        Certificate(
            "orthogonal-on-support",
            {"support": [basis.labels[i] for i in support]},
        ),
        Certificate("support-negative-definite", {"submatrix": basis.submatrix(support)}),
    )
    return Decomposition(
        input=total,
        positive=positive,
        negative=negative,
        certificates=certificates,
        metadata={"support": list(support)},
    )


def _postconditions_hold(basis: PairingBasis, coeffs, support_coeffs) -> bool:
    """The literal output contract, re-checked from scratch.

    The positive part's pairings are taken on its integer numerators over
    one common denominator; a positive rescaling keeps every sign and
    every zero.
    """
    if any(c < 0 for c in support_coeffs):
        return False
    _, (total, negative) = numerators(coeffs, support_coeffs)
    positive = [c - n for c, n in zip(total, negative)]
    pairings = combine(positive, basis.gram, basis.rank)
    if any(v < 0 for v in pairings):
        return False
    support = [i for i, c in enumerate(support_coeffs) if c != 0]
    if any(pairings[i] != 0 for i in support):
        return False
    return is_negative_definite(basis.submatrix(support))


def _checked(basis: PairingBasis, coeffs) -> tuple[int | Fraction, ...]:
    """The input by ``rationals.rat``, one per basis vector, all >= 0.
    Rank 0 needs no early return: both routes reach the empty splitting."""
    coeffs = tuple(map(rat, coeffs))
    if len(coeffs) != basis.rank:
        raise InputError("coefficient vector length does not match the basis")
    if any(c < 0 for c in coeffs):
        raise InputError("coefficients must be nonnegative")
    return coeffs


def decompose(basis: PairingBasis, coeffs) -> Decomposition:
    """Support growth on a carried elimination of the full integer rows.

    Once the support S is pivoted, the last column holds positive
    multiples of the solve's x_i for i in S and of the positive part's
    pairings for i not in S; each pass pivots in every i whose entry is
    negative.  Outside the surface-type regime (a grown support that is
    not negative definite, or a negative x_i) it fails loudly.  A fixed
    point that fails the postcondition check is a broken invariant, an
    internal error.
    """
    coeffs = _checked(basis, coeffs)
    rank = basis.rank
    initial = combine(coeffs, basis.gram, rank)
    rows = [list(int_primitive(row + (v,))) for row, v in zip(basis.gram, initial)]
    support: list[int] = []
    while grow := [i for i in range(rank) if rows[i][rank] < 0]:
        if any(i in support for i in grow):
            raise DomainError(
                "outside surface-type regime: orthogonality solve has "
                "negative coefficients",
                support=[basis.labels[i] for i in support],
            )
        support = sorted(support + grow)
        for j in grow:
            if rows[j][j] >= 0:
                raise DomainError(
                    "outside surface-type regime: support gram is not "
                    "negative definite",
                    support=[basis.labels[i] for i in support],
                    submatrix=[[rat_str(x) for x in row] for row in basis.submatrix(support)],
                )
            int_pivot(rows, j, j)
    solved = {i: Fraction(rows[i][rank], rows[i][i]) for i in support}
    support_coeffs = [solved.get(i, Fraction(0)) for i in range(rank)]
    if not _postconditions_hold(basis, coeffs, support_coeffs):
        raise CycleConesError(
            "support growth fixed point violates the output contract",
            support=[basis.labels[i] for i in support],
        )
    return _build(basis, coeffs, support_coeffs)


def _pivot_live(cols, d, r, p):
    """One step of ``brute_force``'s search: a Bareiss pivot on row ``r`` at
    live column ``p``, keeping only the columns after ``p``.

    The columns hold integers over the one positive denominator ``d``.  The
    pivot entry is ``-a < 0``; each later column with entry ``e`` in row
    ``r`` becomes ``(a·x + y·e) // d``, ``y`` running over column ``p``, with
    ``-e`` in row ``r``, and ``a`` is the new denominator.  By Sylvester's
    identity every division is exact (Bareiss 1968).  Returns the new
    columns and denominator; the arguments are never edited.
    """
    pivot = cols[p]
    a = -pivot[r]
    child = []
    for col in cols[p + 1:]:
        e = col[r]
        if e:
            new = [(a * x + y * e) // d for x, y in zip(col, pivot)]
        else:
            new = [a * x // d for x in col]
        new[r] = -e
        child.append(new)
    return child, a


def brute_force(basis: PairingBasis, coeffs) -> Decomposition:
    """Independent oracle: search every negative-definite support.

    Supports S are visited depth first in lexicographic order, one
    fraction-free Gauss-Jordan step ``_pivot_live`` each.  A node holds its
    live columns (indices of negative self-pairing not yet passed, the only
    columns a later step reads), then the pairing column, as integers over
    one denominator d; the root holds them times the lcm of their
    denominators, over d = 1.  Over d, a row i ∈ S holds the solve, and a
    row i ∉ S a positive multiple of the Schur complement of S.  So S gives
    a candidate when the last column is >= 0, with x_i its entry over d
    for i ∈ S; and a child S ∪ {j}, j > max S, is negative definite exactly
    when row j of column j is < 0, the test ``is_negative_definite`` makes.
    A failed child's subtree is skipped.  An index of nonnegative
    self-pairing never enters: over a negative-definite S its Schur
    complement is at least its diagonal entry.  A valid splitting is the
    unique solve on its negative-definite support, so none is missed.

    Each distinct candidate must pass the full postcondition check;
    exactly one must emerge.  Zero or several distinct results signal
    broken input data (or a broken invariant) and raise.
    """
    coeffs = _checked(basis, coeffs)
    rank = basis.rank
    # 2^16 supports at most: on a rank-16 A_16 chain, whose every support is
    # negative definite, `bck --brute-force` with an all-ones class takes
    # about 0.38 s wall, interpreter start and import from source included
    # (Python 3.11, 2 vCPUs)
    if rank > 16:
        raise DomainError(
            f"brute force rank {rank} exceeds the cap of 16", rank=rank, cap=16
        )

    initial = combine(coeffs, basis.gram, rank)
    live = tuple(i for i in range(rank) if basis.gram[i][i] < 0)
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}  # -> its support

    def visit(cols, d: int, support: tuple[int, ...], live: tuple[int, ...]) -> None:
        last = cols[-1]
        if min(last, default=0) >= 0:
            negative = [Fraction(0)] * rank
            for i in support:
                negative[i] = Fraction(last[i], d)
            found[tuple(negative)] = tuple(i for i in support if negative[i])
        for p, j in enumerate(live):
            if cols[p][j] < 0:
                child, a = _pivot_live(cols, d, j, p)
                visit(child, a, support + (j,), live[p + 1:])

    # the live gram columns (a row, by symmetry) and the pairings, in integers
    cols = [basis.gram[j] for j in live] + [initial]
    visit(numerators(*cols)[1], 1, (), live)
    # in the order a loop over subsets by size, then lexicographic, meets them
    ordered = sorted(found, key=lambda key: (len(found[key]), found[key]))
    for support_coeffs in ordered:
        if not _postconditions_hold(basis, coeffs, support_coeffs):
            raise CycleConesError(
                "brute force candidate violates the output contract",
                negative=[rat_str(x) for x in support_coeffs],
            )
    if not ordered:
        raise DomainError("no valid decomposition exists for this input")
    if len(ordered) > 1:
        raise DomainError(
            "multiple distinct decompositions found; uniqueness is broken",
            negatives=[[rat_str(x) for x in key] for key in ordered],
        )
    return _build(basis, coeffs, list(ordered[0]))


def verify(basis: PairingBasis, dec: Decomposition) -> bool:
    """Re-verify a decomposition's certificates by direct arithmetic; the
    record checked its split when it was built."""
    space = (basis.basis_name, basis.rank)
    if any((v.basis, v.dim) != space for v in (dec.input, dec.positive, dec.negative)):
        return False
    return _postconditions_hold(basis, dec.input.coords, dec.negative.coords)

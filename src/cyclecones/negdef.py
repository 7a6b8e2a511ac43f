"""Surface-style decompositions over an explicit pairing matrix.

Input: a symmetric Gram matrix with nonnegative off-diagonal entries
(distinct "curves" meet nonnegatively) and a nonnegative coefficient
vector.  Output: a splitting into a part pairing nonnegatively against
every basis vector and a leftover supported on a negative-definite
block, orthogonal to the first part on its own support.  Both routes
walk one elimination of the integer rows ``[gram_i | pairing_i]``:
``decompose`` grows the support by the indices that pair negatively, and
the independent oracle ``brute_force`` searches every negative-definite
support instead of every subset.  That loses no splitting: a valid one
lives on a negative-definite support T, and its negative part is the
unique orthogonality solve on T, so the search finds it at T.  Negative
definiteness passes to principal submatrices, so no superset of a
support that fails it needs a visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .linalg import combine, int_pivot, int_primitive
from .rationals import rat, rat_str
from .vectors import ClassVector


@dataclass(frozen=True)
class PairingBasis:
    """Labelled basis vectors with their exact symmetric pairing matrix.

    By symmetry, ``combine(coeffs, gram, rank)`` is the tuple of pairings
    <sum_j coeffs_j v_j, v_i>.
    """

    labels: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        gram = tuple(tuple(rat(x) for x in row) for row in self.gram)
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
    pairings = combine(positive.coords, basis.gram, basis.rank)
    certificates = (
        Certificate(
            "positive-pairings-nonnegative",
            {"values": [rat_str(v) for v in pairings]},
        ),
        Certificate(
            "orthogonal-on-support",
            {"support": [basis.labels[i] for i in support]},
        ),
        Certificate(
            "support-negative-definite",
            {
                "submatrix": [
                    [rat_str(x) for x in row] for row in basis.submatrix(support)
                ]
            },
        ),
    )
    return Decomposition(
        input=total,
        positive=positive,
        negative=negative,
        certificates=certificates,
        metadata={"support": list(support)},
    )


def _postconditions_hold(basis: PairingBasis, coeffs, support_coeffs) -> bool:
    """The literal output contract, re-checked from scratch."""
    if any(c < 0 for c in support_coeffs):
        return False
    positive = [c - n for c, n in zip(coeffs, support_coeffs)]
    pairings = combine(positive, basis.gram, basis.rank)
    if any(v < 0 for v in pairings):
        return False
    support = [i for i, c in enumerate(support_coeffs) if c != 0]
    if any(pairings[i] != 0 for i in support):
        return False
    return is_negative_definite(basis.submatrix(support))


def _checked(basis: PairingBasis, coeffs) -> tuple[Fraction, ...]:
    """The input as Fractions, one per basis vector, all >= 0.  Rank 0
    needs no early return: both routes reach the empty splitting."""
    coeffs = tuple(rat(c) for c in coeffs)
    if len(coeffs) != basis.rank:
        raise InputError("coefficient vector length does not match the basis")
    if any(c < 0 for c in coeffs):
        raise InputError("coefficients must be nonnegative")
    return coeffs


def decompose(basis: PairingBasis, coeffs) -> Decomposition:
    """Support growth on ``brute_force``'s carried elimination.

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


def brute_force(basis: PairingBasis, coeffs) -> Decomposition:
    """Independent oracle: search every negative-definite support.

    Supports S are visited depth first in lexicographic order, carrying
    the Gauss-Jordan state of the integer rows ``[gram_i | pairing_i]``,
    one ``int_pivot`` per step.  For j ∉ S the entry (j, j) is a positive
    multiple of the Schur complement of S in S ∪ {j}, so the child
    S ∪ {j}, j > max S, is negative definite exactly when it is < 0, the
    test ``is_negative_definite`` makes; a failed child's whole subtree is
    skipped.  The last column holds positive multiples of the solve's x_i
    for i ∈ S and of the positive part's pairings for i ∉ S, so S gives a
    candidate when that column is >= 0.  A valid splitting is the unique
    solve on its negative-definite support, so none is missed.

    Each distinct candidate must pass the full postcondition check;
    exactly one must emerge.  Zero or several distinct results signal
    broken input data (or a broken invariant) and raise.
    """
    coeffs = _checked(basis, coeffs)
    rank = basis.rank
    if rank > 16:
        raise InputError("brute force is limited to rank <= 16")

    initial = combine(coeffs, basis.gram, rank)
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}  # -> its support

    def visit(rows: list[list[int]], support: tuple[int, ...]) -> None:
        if all(row[rank] >= 0 for row in rows):
            negative = [Fraction(0)] * rank
            for i in support:
                negative[i] = Fraction(rows[i][rank], rows[i][i])
            found[tuple(negative)] = tuple(i for i in support if negative[i])
        for j in range(support[-1] + 1 if support else 0, rank):
            if rows[j][j] < 0:
                child = rows[:]  # int_pivot rebinds rows, never edits one
                int_pivot(child, j, j)
                visit(child, support + (j,))

    visit([list(int_primitive(row + (v,))) for row, v in zip(basis.gram, initial)], ())
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
    """Re-verify a decomposition's certificates by direct arithmetic."""
    coeffs = dec.input.coords
    support_coeffs = dec.negative.coords
    if (dec.positive + dec.negative).coords != coeffs:
        return False
    return _postconditions_hold(basis, coeffs, support_coeffs)

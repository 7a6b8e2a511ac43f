"""Surface-style decompositions over an explicit pairing matrix.

Input: a symmetric Gram matrix with nonnegative off-diagonal entries
(distinct "curves" meet nonnegatively) and a nonnegative coefficient
vector.  Output: a splitting into a part pairing nonnegatively against
every basis vector and a leftover supported on a negative-definite
block, orthogonal to the first part on its own support.  The iterative
algorithm grows the support; a brute-force subset enumeration serves as
an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .decomposition import Certificate, Decomposition
from .errors import DomainError, InputError
from .linalg import combine, int_pivot, int_primitive, solve_unique
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
    """Support-growth decomposition.

    Start from the indices pairing negatively against the input; solve for
    the unique support-supported correction that is orthogonal to the
    support; enlarge the support by any indices that still pair
    negatively; repeat.  Outside the surface-type regime (a grown support
    with non-negative-definite Gram, or a solve with a negative
    coefficient) the operation fails loudly instead of guessing.
    """
    coeffs = _checked(basis, coeffs)
    initial = combine(coeffs, basis.gram, basis.rank)
    support: set[int] = {i for i, v in enumerate(initial) if v < 0}
    solution: dict[int, Fraction] = {}
    for _ in range(basis.rank + 1):
        ordered = sorted(support)
        if ordered:
            sub = basis.submatrix(ordered)
            if not is_negative_definite(sub):
                raise DomainError(
                    "outside surface-type regime: support gram is not "
                    "negative definite",
                    support=[basis.labels[i] for i in ordered],
                    submatrix=[[rat_str(x) for x in row] for row in sub],
                )
            solved = solve_unique(sub, [initial[i] for i in ordered])
            if solved is None or any(x < 0 for x in solved):
                raise DomainError(
                    "outside surface-type regime: orthogonality solve has "
                    "negative coefficients",
                    support=[basis.labels[i] for i in ordered],
                )
            solution = dict(zip(ordered, solved))
        support_coeffs = [solution.get(i, Fraction(0)) for i in range(basis.rank)]
        positive = [c - n for c, n in zip(coeffs, support_coeffs)]
        violated = {
            i
            for i, v in enumerate(combine(positive, basis.gram, basis.rank))
            if v < 0 and i not in support
        }
        if not violated:
            if not _postconditions_hold(basis, coeffs, support_coeffs):
                raise DomainError(
                    "outside surface-type regime: fixed point violates the "
                    "output contract",
                    support=[basis.labels[i] for i in sorted(support)],
                )
            return _build(basis, coeffs, support_coeffs)
        support |= violated
    raise DomainError("support growth failed to stabilize")


def brute_force(basis: PairingBasis, coeffs) -> Decomposition:
    """Independent oracle: try every support subset.

    Each subset gets the orthogonality solve and the full postcondition
    check; exactly one distinct valid splitting must emerge.  Zero or
    several distinct results signal broken input data (or a broken
    invariant) and raise.
    """
    coeffs = _checked(basis, coeffs)
    if basis.rank > 16:
        raise InputError("brute force is limited to rank <= 16")

    initial = combine(coeffs, basis.gram, basis.rank)
    found: dict[tuple, list] = {}
    indices = range(basis.rank)
    for size in range(basis.rank + 1):
        for subset in combinations(indices, size):
            support_coeffs = [Fraction(0)] * basis.rank
            if subset:
                sub = basis.submatrix(subset)
                solved = solve_unique(sub, [initial[i] for i in subset])
                if solved is None:
                    continue
                for i, x in zip(subset, solved):
                    support_coeffs[i] = x
            if _postconditions_hold(basis, coeffs, support_coeffs):
                found.setdefault(tuple(support_coeffs), []).append(subset)
    if not found:
        raise DomainError("no valid decomposition exists for this input")
    if len(found) > 1:
        raise DomainError(
            "multiple distinct decompositions found; uniqueness is broken",
            negatives=[[rat_str(x) for x in key] for key in found],
        )
    (support_coeffs,) = found
    return _build(basis, coeffs, list(support_coeffs))


def verify(basis: PairingBasis, dec: Decomposition) -> bool:
    """Re-verify a decomposition's certificates by direct arithmetic."""
    coeffs = dec.input.coords
    support_coeffs = dec.negative.coords
    if (dec.positive + dec.negative).coords != coeffs:
        return False
    return _postconditions_hold(basis, coeffs, support_coeffs)

import random
from fractions import Fraction

import pytest

from cyclecones.errors import DomainError, InputError
from cyclecones.linalg import combine
from cyclecones.negdef import (
    PairingBasis,
    brute_force,
    decompose,
    is_negative_definite,
    verify,
)

from conftest import bareiss_det

F = Fraction


def test_negative_definite_minor_signs():
    assert is_negative_definite([[F(-2), F(1)], [F(1), F(-2)]])
    assert not is_negative_definite([[F(-2), F(3)], [F(3), F(-2)]])
    assert not is_negative_definite([[F(1)]])
    assert is_negative_definite([])  # empty support is vacuously fine


def _minor_criterion(matrix):
    """Sylvester: (-1)^k times every k-th leading principal minor is > 0."""
    return all(
        (-1) ** k * bareiss_det([row[:k] for row in matrix[:k]]) > 0
        for k in range(1, len(matrix) + 1)
    )


def _random_symmetric(rng, n):
    """Symmetric integer matrices of five shapes: definite, semidefinite,
    singular (a repeated row and column), indefinite, or arbitrary."""
    kind = rng.choice(("definite", "semidefinite", "singular", "indefinite", "raw"))
    if kind == "raw":
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        return m
    # -B B^T (+ shift): rank(B) < n makes it only semidefinite
    cols = n if kind in ("definite", "indefinite") else rng.randint(0, max(n - 1, 0))
    b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(n)]
    m = [[-sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
    if kind == "definite":
        m = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    elif kind == "indefinite" and n:
        k = rng.randrange(n)
        m[k][k] += rng.randint(1, 40)
    elif kind == "singular" and n >= 2:
        i, j = rng.sample(range(n), 2)
        m[j] = list(m[i])
        for row in m:
            row[j] = row[i]
    return m


def test_negative_definite_matches_leading_minors():
    rng = random.Random(0x5E6D)
    seen = {True: 0, False: 0}
    for _ in range(600):
        m = _random_symmetric(rng, rng.randint(0, 8))
        expected = _minor_criterion(m)
        assert is_negative_definite(m) == expected, m
        assert is_negative_definite([[F(x) for x in row] for row in m]) == expected
        seen[expected] += 1
    # a zero pivot in the middle: semidefinite, singular leading minor
    assert not is_negative_definite([[-1, 1, 0], [1, -1, 0], [0, 0, -1]])
    assert not _minor_criterion([[-1, 1, 0], [1, -1, 0], [0, 0, -1]])
    assert min(seen.values()) >= 100


def test_basis_validation():
    with pytest.raises(InputError):
        PairingBasis(("a", "b"), ((F(1), F(-1)), (F(-1), F(1))))
    with pytest.raises(InputError):
        PairingBasis(("a", "b"), ((F(1), F(2)), (F(3), F(1))))
    with pytest.raises(InputError):
        PairingBasis(("a",), ((F(1), F(0)),))


def test_already_nef_input():
    basis = PairingBasis(("a", "b"), ((F(1), F(1)), (F(1), F(2))))
    result = decompose(basis, (3, 1))
    assert result.negative.is_zero()
    assert verify(basis, result)


def test_single_negative_class_is_its_own_negative_part():
    basis = PairingBasis(("Z",), ((F(-2),),))
    result = decompose(basis, (1,))
    assert result.positive.coords == (0,)
    assert result.negative.coords == (1,)
    assert verify(basis, result)
    oracle = brute_force(basis, (1,))
    assert oracle.negative.coords == result.negative.coords


def test_mixed_diagonal_case():
    basis = PairingBasis(("a", "b"), ((F(1), F(0)), (F(0), F(-1))))
    result = decompose(basis, (1, 2))
    assert result.positive.coords == (1, 0)
    assert result.negative.coords == (0, 2)
    assert brute_force(basis, (1, 2)).negative.coords == (0, 2)


def test_cascading_support_growth():
    basis = PairingBasis(("a", "b"), ((F(-2), F(1)), (F(1), F(-2))))
    result = decompose(basis, (2, 1))
    assert result.positive.is_zero()
    assert result.negative.coords == (2, 1)
    assert brute_force(basis, (2, 1)).negative.coords == (2, 1)


def test_empty_basis():
    basis = PairingBasis((), ())
    result = decompose(basis, ())
    assert result.positive.coords == () and result.negative.coords == ()
    assert brute_force(basis, ()).negative.coords == ()


def test_negative_coefficients_rejected():
    basis = PairingBasis(("a",), ((F(1),),))
    with pytest.raises(InputError):
        decompose(basis, (-1,))


def test_nonnegative_pairings_short_circuit():
    # both basis vectors pair nonnegatively against the input, so nothing
    # enters the support even though the pair block is indefinite
    basis = PairingBasis(("a", "b"), ((F(-1), F(2)), (F(2), F(-1))))
    result = decompose(basis, (1, 1))
    assert result.negative.is_zero()
    assert verify(basis, result)


def _random_admissible(rng):
    r = rng.randint(1, 5)
    gram = [[F(0)] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = F(rng.randint(-5, 5))
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = F(rng.randint(0, 5))
    labels = tuple(f"v{i}" for i in range(r))
    coeffs = tuple(F(rng.randint(0, 5)) for _ in range(r))
    return PairingBasis(labels, tuple(tuple(row) for row in gram)), coeffs


def test_oracle_equivalence_on_random_instances():
    # 200 admissible random instances: the support-growth algorithm and the
    # subset-enumeration oracle agree whenever both succeed, and whenever
    # the algorithm refuses, no valid decomposition exists at all.  (On this
    # seed no admissible instance refuses, matching the classical existence
    # statement; the error path stays exercised as a guard, not a feature.)
    rng = random.Random(881_117)
    succeeded = 0
    for _ in range(200):
        basis, coeffs = _random_admissible(rng)
        try:
            fast = decompose(basis, coeffs)
        except DomainError:
            with pytest.raises(DomainError):
                brute_force(basis, coeffs)
            continue
        oracle = brute_force(basis, coeffs)
        assert fast.negative.coords == oracle.negative.coords
        assert verify(basis, fast)
        succeeded += 1
    assert succeeded == 200


def test_support_growth_beyond_initial_violations():
    # only the first vector pairs negatively at the start; orthogonalizing
    # there drags the second below zero, so the support must grow to both
    basis = PairingBasis(
        ("a", "b", "c"),
        (
            (F(-2), F(1), F(0)),
            (F(1), F(-2), F(0)),
            (F(0), F(0), F(1)),
        ),
    )
    coeffs = (2, 1, 1)
    pairings = combine(coeffs, basis.gram, basis.rank)
    initial = [i for i, v in enumerate(pairings) if v < 0]
    assert initial == [0]
    result = decompose(basis, coeffs)
    assert set(result.metadata["support"]) == {0, 1}
    assert result.negative.coords == (2, 1, 0)
    assert result.positive.coords == (0, 0, 1)
    assert verify(basis, result)
    assert brute_force(basis, coeffs).negative.coords == result.negative.coords


def test_uniqueness_never_violated_on_random_instances():
    rng = random.Random(4_242)
    for _ in range(120):
        basis, coeffs = _random_admissible(rng)
        try:
            brute_force(basis, coeffs)
        except DomainError as err:
            assert "multiple distinct" not in str(err.value)

import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecones import cli, linalg, negdef
from cyclecones.decomposition import Decomposition
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.linalg import combine
from cyclecones.vectors import ClassVector
from cyclecones.negdef import (
    PairingBasis,
    brute_force,
    decompose,
    is_negative_definite,
    verify,
)

from conftest import (
    bareiss_det,
    bench_inputs,
    chain_gram,
    pivot,
    rowwise_brute_force,
    solve_per_step_decompose,
    subset_brute_force,
)


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
    cases = [
        ((-1,), "coefficients must be nonnegative"),
        ((1, 1), "coefficient vector length does not match the basis"),
    ]
    for route in (decompose, brute_force):
        for coeffs, message in cases:
            with pytest.raises(InputError) as caught:
                route(basis, coeffs)
            assert caught.value.message == message


def test_brute_force_rank_limit():
    labels = tuple(f"e{i}" for i in range(17))
    gram = tuple(tuple(F(-(i == j)) for j in range(17)) for i in range(17))
    with pytest.raises(DomainError) as caught:
        brute_force(PairingBasis(labels, gram), (0,) * 17)
    assert caught.value.message == "brute force rank 17 exceeds the cap of 16"
    assert caught.value.details == {"rank": 17, "cap": 16}


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
            assert "multiple distinct" not in err.message


def _basis(gram) -> PairingBasis:
    return PairingBasis(
        tuple(f"v{i}" for i in range(len(gram))), tuple(tuple(row) for row in gram)
    )


def _chain(rank, diagonal, neighbour) -> PairingBasis:
    """A tridiagonal gram: ``diagonal`` on the diagonal, ``neighbour`` beside it."""
    return _basis([
        [diagonal if i == j else neighbour if abs(i - j) == 1 else 0 for j in range(rank)]
        for i in range(rank)
    ])


def _forged(gram) -> PairingBasis:
    """A basis whose gram skips validation.  With nonnegative off-diagonal
    pairings the splitting is unique, so negative ones are how a test
    reaches the oracle's "several found" error."""
    basis = _basis([[int(i == j) for j in range(len(gram))] for i in range(len(gram))])
    object.__setattr__(basis, "gram", tuple(tuple(Fraction(x) for x in row) for row in gram))
    return basis


def _outcome(route, basis, coeffs):
    """A route's result as JSON, or the type and payload of its error."""
    try:
        return route(basis, coeffs).to_json()
    except CycleConesError as err:
        return type(err).__name__, err.payload()


def _bench_pairings(seed, rounds=2):
    """The first ``rounds`` rounds of pairing instances of the benchmark's
    small-batch workload for ``seed``."""
    return [
        (_basis(inst["gram"]), tuple(inst["coeffs"]))
        for rung in bench_inputs().small_batch(seed)
        if rung["label"] != "slope"
        for inst in rung["instances"][: rounds * rung["per_round"]]
    ]


HAND_CASES = [
    # rank 0: the empty splitting
    (_basis([]), ()),
    # nothing pairs negatively, though the pair block is indefinite
    (_basis([[-1, 2], [2, -1]]), (1, 1)),
    # the subset loop also reaches (1, 0) from {v0, v1}, which is not
    # negative definite but whose solve (1, 0) has a zero coordinate
    (_basis([[-1, 0], [0, 1]]), (1, 0)),
    # {v0, v1} is singular and not negative definite; the splitting is on {v0}
    (_basis([[-1, 1], [1, -1]]), (2, 1)),
    # input errors, raised before any search
    (_basis([[-1]]), (-1,)),
    (_basis([[-1]]), (1, 1)),
    (_basis([[-(i == j) for j in range(17)] for i in range(17)]), (0,) * 17),
    # no valid splitting at all
    (_forged([[0, -1], [-1, 0]]), (1, 0)),
    # two splittings, on {v1} and on {v0, v2}: listed by support size first
    (_forged([[-1, -2, 1], [-2, -1, 0], [1, 0, -2]]), (2, 3, 0)),
]


def test_brute_force_matches_subset_oracle():
    rng = random.Random(0xB0F_5EA)
    instances = [_random_admissible(rng) for _ in range(300)]
    instances += [pair for seed in (1, 2, 3) for pair in _bench_pairings(seed)]
    instances += HAND_CASES
    errors = set()
    for basis, coeffs in instances:
        expected = _outcome(subset_brute_force, basis, coeffs)
        assert _outcome(brute_force, basis, coeffs) == expected, (basis, coeffs)
        if isinstance(expected, tuple):
            errors.add(expected[1]["message"])
    assert len(instances) == 300 + 36 + len(HAND_CASES)
    assert errors == {
        "coefficients must be nonnegative",
        "coefficient vector length does not match the basis",
        "brute force rank 17 exceeds the cap of 16",
        "no valid decomposition exists for this input",
        "multiple distinct decompositions found; uniqueness is broken",
    }


def test_brute_force_candidate_must_pass_postconditions(monkeypatch):
    # a candidate that fails the contract is a broken invariant, not an
    # input without a splitting
    monkeypatch.setattr(negdef, "_postconditions_hold", lambda *args: False)
    with pytest.raises(CycleConesError) as caught:
        brute_force(_basis([[-2]]), (1,))
    assert type(caught.value) is CycleConesError
    assert caught.value.payload() == {
        "message": "brute force candidate violates the output contract",
        "negative": ["1"],
    }


def test_decompose_fixed_point_must_pass_postconditions(monkeypatch, tmp_path):
    # the carried elimination guarantees the contract, so a fixed point
    # that fails it is a broken invariant (exit 3), not an input outside
    # the surface-type regime (exit 2)
    monkeypatch.setattr(negdef, "_postconditions_hold", lambda *args: False)
    with pytest.raises(CycleConesError) as caught:
        decompose(_basis([[-2]]), (1,))
    assert type(caught.value) is CycleConesError
    assert caught.value.payload() == {
        "message": "support growth fixed point violates the output contract",
        "support": ["v0"],
    }
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"labels": ["Z"], "gram": [["-2"]], "source": "t"}))
    document, code = cli.run(["bck", "--gram", str(path), "--class", "1"])
    assert code == 3 and document["status"] == "internal_error"
    error = document["payload"]["error"]
    assert error["type"] == "CycleConesError"
    assert error["frame"].startswith("negdef.py:") and error["frame"].endswith(" in decompose")


def _count_pivots(monkeypatch) -> list:
    """Count every ``int_pivot`` call, from ``negdef`` or from ``linalg``'s
    own eliminations."""
    calls = []
    real = linalg.int_pivot

    def counting(rows, r, c):
        calls.append((r, c))
        real(rows, r, c)

    monkeypatch.setattr(negdef, "int_pivot", counting)
    monkeypatch.setattr(linalg, "int_pivot", counting)
    return calls


def _count_search_steps(monkeypatch) -> list:
    """Count every ``_pivot_live`` call, the oracle's search steps."""
    calls = []
    real = negdef._pivot_live

    def counting(rows, scales, r, p):
        calls.append((r, p))
        return real(rows, scales, r, p)

    monkeypatch.setattr(negdef, "_pivot_live", counting)
    return calls


def test_brute_force_pivots_once_per_negative_definite_support(monkeypatch):
    # Every principal submatrix of a negative-definite matrix is negative
    # definite, and a support with a nonnegative diagonal entry is not one.
    # Each gram below has a negative-definite block of negative curves, so
    # it has 2^k - 1 nonempty negative-definite supports (k = 12 for the
    # chain, k < 10 for the bench matrix, k = 4 for the mixed chain).  The
    # search may take one step per support, plus the postcondition check of
    # its one candidate: at most rank pivots.  In the mixed chain, curves of
    # self-pairing 0 and 1 sit between the negative ones; each subset of the
    # negative ones is negative definite, so the search takes exactly
    # 2^4 - 1 steps.
    chain = chain_gram(12)
    chain_case = (PairingBasis(tuple(chain["labels"]), chain["gram"]), (1,) * 12)
    bench_case = next(pair for pair in _bench_pairings(1, rounds=1) if pair[0].rank == 10)
    mixed = _basis([
        [-2, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, -3, 1, 0, 0],
        [0, 0, 1, 1, 1, 0],
        [0, 0, 0, 1, -2, 1],
        [0, 0, 0, 0, 1, -2],
    ])
    mixed_case = (mixed, (1, 2, 3, 1, 2, 1))
    for basis, coeffs in (chain_case, bench_case, mixed_case):
        negative = [i for i in range(basis.rank) if basis.gram[i][i] < 0]
        assert is_negative_definite(basis.submatrix(negative))
        steps = _count_search_steps(monkeypatch)
        pivots = _count_pivots(monkeypatch)
        result = brute_force(basis, coeffs)
        monkeypatch.undo()
        assert verify(basis, result)
        assert len(steps) <= 2 ** len(negative) - 1, (basis.rank, len(steps))
        assert len(pivots) <= basis.rank, (basis.rank, len(pivots))
        if basis is mixed:
            assert len(steps) == 2 ** len(negative) - 1


def _random_fraction_surface(rng):
    """A pairing of rank 0 to 10 with Fraction entries of denominators 2-6:
    curves meet nonnegatively, and the negative curves form a strictly
    diagonally dominant block (so each of its supports is negative
    definite) or, one time in three, have drawn diagonals."""
    r = rng.randint(0, 10)
    negative = set(rng.sample(range(r), rng.randint(0, r)))
    dominant = rng.random() < 2 / 3
    gram = [[F(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.4:
                gram[i][j] = gram[j][i] = F(rng.randint(1, 6), rng.randint(2, 6))
    for i in range(r):
        if i not in negative:
            gram[i][i] = F(rng.randint(0, 12), rng.randint(2, 6))
        elif dominant:
            block = sum(gram[i][j] for j in negative if j != i)
            gram[i][i] = -block - F(rng.randint(1, 6), rng.randint(2, 6))
        else:
            gram[i][i] = -F(rng.randint(1, 12), rng.randint(2, 6))
    coeffs = tuple(F(rng.randint(0, 12), rng.randint(2, 6)) for _ in range(r))
    return _basis(gram), coeffs


def _record_search(monkeypatch, basis=None, coeffs=None):
    """Record ``brute_force``'s search: each support it visits, in order,
    and each candidate it checks.  Given the instance, also hold every
    step to a Fraction Gauss-Jordan elimination of ``scale·[gram | pairings]``
    on the live columns, ``scale`` the lcm of their denominators: a column
    over the step's denominator must equal that elimination's column,
    which is the solve on the support's rows and ``scale`` times the Schur
    complement of the support elsewhere.  A floor division that was not
    exact would break the equality."""
    visits, checked = [()], []
    nodes = {}  # id of a node's columns -> (columns, support, Fraction rows, first column)
    real_step, real_check = negdef._pivot_live, negdef._postconditions_hold
    if basis is not None:
        rank = basis.rank
        live = [j for j in range(rank) if basis.gram[j][j] < 0]
        pairings = combine(coeffs, basis.gram, rank)
        rows = [[*(basis.gram[i][j] for j in live), pairings[i]] for i in range(rank)]
        scale = lcm(*(F(x).denominator for row in rows for x in row))

    def step(cols, d, r, p):
        child, a = real_step(cols, d, r, p)
        if id(cols) not in nodes:  # the root
            assert d == 1
            if basis is not None:
                assert [[col[i] for col in cols] for i in range(rank)] == [
                    [x * scale for x in row] for row in rows]
            nodes[id(cols)] = (cols, (), [[F(x) for x in row] for row in rows]
                               if basis is not None else None, 0)
        _, support, fraction_rows, first = nodes[id(cols)]
        support += (r,)
        visits.append(support)
        if basis is not None:
            fraction_rows = [list(row) for row in fraction_rows]
            pivot(fraction_rows, r, first + p)
            first += p + 1
            for k, col in enumerate(child):
                want = [
                    row[first + k] * (1 if i in support else scale)
                    for i, row in enumerate(fraction_rows)
                ]
                assert [F(x, a) for x in col] == want, (support, k)
        nodes[id(child)] = (child, support, fraction_rows, first)
        return child, a

    def check(basis, coeffs, support_coeffs):
        checked.append(tuple(support_coeffs))
        return real_check(basis, coeffs, support_coeffs)

    monkeypatch.setattr(negdef, "_pivot_live", step)
    monkeypatch.setattr(negdef, "_postconditions_hold", check)
    return visits, checked


def _rowwise_expectation(basis, coeffs):
    """``rowwise_brute_force``'s outcome, the supports it visits and its
    candidates in the order it checks them."""
    log = []
    outcome = _outcome(lambda b, c: rowwise_brute_force(b, c, log), basis, coeffs)
    found = {neg for _, neg in log if neg is not None}
    nonzero = lambda neg: tuple(i for i, x in enumerate(neg) if x)
    ordered = sorted(found, key=lambda neg: (len(nonzero(neg)), nonzero(neg)))
    return outcome, [support for support, _ in log], ordered


def test_brute_force_search_matches_the_rowwise_oracle(monkeypatch):
    # the column search visits the supports of the row-major one in the
    # same order, checks the same candidates in the same order and returns
    # the same record or error, on every small-batch pairing problem of the
    # benchmark's seeds 1 and 7919 and on seeded Fraction grams
    rng = random.Random(0xC01_5EA)
    instances = [pair for seed in (1, 7919) for pair in _bench_pairings(seed, rounds=24)]
    instances += [_random_fraction_surface(rng) for _ in range(150)]
    instances += HAND_CASES
    steps = outcomes = 0
    for basis, coeffs in instances:
        expected, visits, ordered = _rowwise_expectation(basis, coeffs)
        got_visits, got_checked = _record_search(monkeypatch)
        got = _outcome(brute_force, basis, coeffs)
        monkeypatch.undo()
        assert got == expected, (basis, coeffs)
        if visits:  # an input error stops both before any search
            assert got_visits == visits, (basis, coeffs)
            assert got_checked == ordered, (basis, coeffs)
        steps += len(visits)
        outcomes += not isinstance(expected, tuple)
    assert len(instances) == 2 * 144 + 150 + len(HAND_CASES)
    assert outcomes >= 2 * 144 + 100 and steps > 20_000


def test_brute_force_steps_are_exact_fraction_gauss_jordan(monkeypatch):
    # every step's columns over its denominator equal a Fraction elimination,
    # on Fraction grams, the first round of each seed's pairing problems and
    # rank-10 chains whose 1023 nonempty supports are all negative definite
    rng = random.Random(0xE1A_C7)
    instances = [_random_fraction_surface(rng) for _ in range(60)]
    instances += [pair for seed in (1, 7919) for pair in _bench_pairings(seed, rounds=1)]
    instances += [(_chain(10, -2, 1), (1,) * 10), (_chain(10, F(-5, 2), F(1, 3)), (1,) * 10)]
    steps = 0
    for basis, coeffs in instances:
        visits, _ = _record_search(monkeypatch, basis, coeffs)
        result = brute_force(basis, coeffs)
        monkeypatch.undo()
        assert result.to_json() == rowwise_brute_force(basis, coeffs).to_json()
        steps += len(visits) - 1
    assert steps > 2 * 1023


def _random_forged(rng):
    """A gram that skips validation: off-diagonals -2..3, diagonals -4..2."""
    r = rng.randint(1, 5)
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = rng.randint(-4, 2)
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = rng.randint(-2, 3)
    coeffs = tuple(rng.choice((F(0), F(1), F(2), F(3), F(1, 2))) for _ in range(r))
    return _forged(gram), coeffs


NOT_NEGATIVE_DEFINITE = "outside surface-type regime: support gram is not negative definite"
NEGATIVE_COEFFICIENTS = (
    "outside surface-type regime: orthogonality solve has negative coefficients"
)


def test_decompose_matches_solve_per_step_oracle():
    # forged grams reach both regime errors, whose payloads must match too
    rng = random.Random(0xDEC0_5E)
    instances = [_random_admissible(rng) for _ in range(1000)]
    instances += [_random_forged(rng) for _ in range(1000)]
    errors = set()
    for basis, coeffs in instances:
        expected = _outcome(solve_per_step_decompose, basis, coeffs)
        assert _outcome(decompose, basis, coeffs) == expected, (basis, coeffs)
        if isinstance(expected, tuple):
            errors.add(expected[1]["message"])
    assert {NOT_NEGATIVE_DEFINITE, NEGATIVE_COEFFICIENTS} <= errors


def test_decompose_regime_error_payloads():
    cases = [
        (
            _forged([[-2, -2], [-2, -2]]),
            (0, 1),
            {
                "message": NOT_NEGATIVE_DEFINITE,
                "support": ["v0", "v1"],
                "submatrix": [["-2", "-2"], ["-2", "-2"]],
            },
        ),
        # {v0, v2} is negative definite; its solve is (3, -2)
        (
            _forged([[-2, -2, -1], [-2, -2, 1], [-1, 1, -1]]),
            (0, 1, 2),
            {"message": NEGATIVE_COEFFICIENTS, "support": ["v0", "v2"]},
        ),
    ]
    for basis, coeffs, payload in cases:
        for route in (decompose, solve_per_step_decompose):
            with pytest.raises(DomainError) as caught:
                route(basis, coeffs)
            assert caught.value.payload() == payload


def test_decompose_pivots_twice_per_support_index(monkeypatch):
    # one pivot per support index in the search, and one more in the
    # postcondition check of the result
    chain = chain_gram(12)
    chain_case = (PairingBasis(tuple(chain["labels"]), chain["gram"]), (1,) * 12)
    bench_case = next(pair for pair in _bench_pairings(1, rounds=1) if pair[0].rank == 6)
    for basis, coeffs in (chain_case, bench_case):
        calls = _count_pivots(monkeypatch)
        result = decompose(basis, coeffs)
        monkeypatch.undo()
        assert verify(basis, result)
        support = result.metadata["support"]
        assert support
        assert len(calls) <= 2 * len(support), (basis.rank, len(support), len(calls))


@st.composite
def _admissible(draw):
    rank = draw(st.integers(0, 6))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = draw(st.integers(-5, 5))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(0, 5))
    coeffs = draw(st.lists(st.integers(0, 5), min_size=rank, max_size=rank))
    return _basis(gram), tuple(coeffs)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_admissible())
def test_brute_force_property_against_oracle_and_support_growth(instance):
    basis, coeffs = instance
    expected = _outcome(subset_brute_force, basis, coeffs)
    assert _outcome(brute_force, basis, coeffs) == expected
    try:
        fast = decompose(basis, coeffs)
    except DomainError:
        return
    assert fast.to_json() == expected


def test_verify_fails_a_record_outside_the_pairing_space():
    # zip used to truncate the mismatch: the 1-coordinate record verified,
    # and the 3-coordinate one raised IndexError
    basis = PairingBasis(("a", "b"), ((-2, 1), (1, -2)))
    name = basis.basis_name
    for basis_name, input_, positive, negative in (
        (name, (1,), (0,), (1,)),
        (name, (1, 0, 0), (0, 0, 0), (1, 0, 0)),
        ("pairing[b,a]", (1, 0), (0, 0), (1, 0)),
    ):
        record = Decomposition(
            *(ClassVector(basis_name, v) for v in (input_, positive, negative)), (), {}
        )
        assert not verify(basis, record)
    assert verify(basis, decompose(basis, (1, 0)))


def test_verify_fails_a_record_that_breaks_a_postcondition():
    # records in the pairing space that only one check rejects: without
    # it, the positive part pairs to zero on the support, nonnegatively
    # elsewhere, and the support's block is negative definite
    basis = PairingBasis(("a", "b"), ((-2, 1), (1, 0)))
    name = basis.basis_name
    for input_, positive, negative in (
        ((0, 2), (1, 2), (-1, 0)),  # a negative coefficient in the negative part
        ((1, 1), (0, 1), (1, 0)),  # a pairing of 1 on the support
    ):
        record = Decomposition(
            *(ClassVector(name, v) for v in (input_, positive, negative)), (), {}
        )
        assert not verify(basis, record)
    assert verify(basis, decompose(basis, (1, 1)))

from fractions import Fraction

from cyclecones.linalg import (
    combine,
    dot,
    int_primitive,
    mat_rank,
    nullspace,
    pivot,
    reproduces,
    rref,
    separates,
    solve_unique,
    violated,
)

from conftest import bareiss_det

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


def test_rref_identity():
    reduced, pivots = rref([[F(2), F(0)], [F(0), F(5)]])
    assert pivots == [0, 1]
    assert reduced[0] == (F(1), F(0))
    assert reduced[1] == (F(0), F(1))

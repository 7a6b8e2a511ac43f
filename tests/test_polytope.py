import itertools
import random
from fractions import Fraction

import pytest

from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.polytope import (
    RationalPolytope,
    maximize_linear,
    recession_direction,
    vertex_enumeration,
)
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector

from conftest import OPTIMAL, UNBOUNDED, bareiss_det, maximize_affine, two_phase_simplex

F = Fraction


def triangle():
    return RationalPolytope.from_inequalities(
        "pt2", 2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]
    )


def coords(vectors):
    return sorted(tuple(v.coords) for v in vectors)


def test_triangle_vertices():
    p = vertex_enumeration(triangle())
    assert coords(p.vertices) == [(0, 0), (0, 1), (1, 0)]


def test_infeasible_system_has_no_vertices():
    p = RationalPolytope.from_inequalities("pt1", 1, [((1,), 1), ((-1,), 0)])
    assert vertex_enumeration(p).vertices == ()


def test_unbounded_system_rejected_with_direction():
    p = RationalPolytope.from_inequalities("pt2", 2, [((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(DomainError) as err:
        vertex_enumeration(p)
    assert "recession_direction" in err.value.details


def test_degenerate_vertex_deduplicated():
    # four facets through the origin-adjacent corner must yield one vertex
    p = RationalPolytope.from_inequalities(
        "pt2",
        2,
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((-1, -1), -1)],
    )
    assert coords(vertex_enumeration(p).vertices) == [(0, 0), (0, 1), (1, 0)]


def test_maximize_tie_returns_whole_face():
    value, face = maximize_linear(triangle(), ClassVector("pt2*", (1, 1)))
    assert value == 1
    assert coords(face) == [(0, 1), (1, 0)]


def test_maximize_unique_vertex():
    value, face = maximize_linear(triangle(), ClassVector("pt2*", (1, 0)))
    assert value == 1
    assert coords(face) == [(1, 0)]


def test_maximize_over_empty_polytope_rejected():
    p = RationalPolytope.from_inequalities("pt1", 1, [((1,), 1), ((-1,), 0)])
    with pytest.raises(DomainError):
        maximize_linear(p, ClassVector("pt1*", (1,)))


def test_objective_must_live_in_dual_basis():
    with pytest.raises(InputError):
        maximize_linear(triangle(), ClassVector("pt2", (1, 0)))


def test_lp_optimum_matches_vertex_scan_randomized():
    # independent routes: exact simplex vs brute-force vertex evaluation
    rng = random.Random(41_999)
    for _ in range(120):
        dim = rng.randint(2, 4)
        basis = f"lp{dim}"
        rows = [(tuple(int(i == j) for j in range(dim)), 0) for i in range(dim)]
        rows.append((tuple(-rng.randint(1, 3) for _ in range(dim)), -rng.randint(1, 9)))
        for _ in range(rng.randint(0, 3)):
            rows.append(
                (
                    tuple(rng.randint(-2, 2) for _ in range(dim)),
                    -rng.randint(0, 6),
                )
            )
        p = RationalPolytope.from_inequalities(basis, dim, rows)
        enumerated = vertex_enumeration(p)
        if not enumerated.vertices:
            continue
        objective = tuple(F(rng.randint(-5, 5)) for _ in range(dim))
        brute = max(
            sum((a * b for a, b in zip(objective, v.coords)), F(0))
            for v in enumerated.vertices
        )
        # a row r means <r[:-1], x> >= -r[-1]
        status, lp_value, _ = maximize_affine(
            [r[:-1] for r in p.inequalities],
            [-r[-1] for r in p.inequalities],
            objective,
        )
        assert status == OPTIMAL
        assert lp_value == brute
        value, face = maximize_linear(enumerated, ClassVector(f"{basis}*", objective))
        assert value == brute and face


def test_wrong_vertex_list_fails_the_optimality_certificate():
    # a vertex list missing the true maximizer (1, 0) must not be trusted
    p = triangle()
    partial = RationalPolytope(
        p.basis,
        p.dim,
        p.inequalities,
        (ClassVector("pt2", (0, 0)), ClassVector("pt2", (0, 1))),
    )
    with pytest.raises(CycleConesError):
        maximize_linear(partial, ClassVector("pt2*", (1, 0)))


# -- brute-force oracle: every dim-subset of the inequalities -----------------


def subset_vertices(dim, rows):
    """Vertices of {x : <a, x> >= b} (integer rows) as the feasible solutions
    of all nonsingular dim-subsets of the rows, by Cramer's rule, deduplicated
    and sorted."""
    found = set()
    for subset in itertools.combinations(rows, dim):
        square = [a for a, _ in subset]
        den = bareiss_det(square)
        if den == 0:
            continue
        num = [
            bareiss_det([a[:k] + (b,) + a[k + 1:] for a, b in subset])
            for k in range(dim)
        ]
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(sum(ai * xi for ai, xi in zip(a, num)) >= b * den for a, b in rows):
            found.add(tuple(F(x, den) for x in num))
    return sorted(found)


def recession_trivial(dim, rows):
    """{d : <a, d> >= 0} = {0} iff the rows positively span the space."""
    columns = [a for a, _ in rows]
    units = [tuple(s * int(i == k) for i in range(dim)) for k in range(dim) for s in (1, -1)]
    return all(nonneg_solve(columns, u) is not None for u in units)


def _random_system(rng, dim):
    kind = rng.choice(
        ["box", "degenerate", "zero-class", "infeasible", "half-open", "free"]
    )
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    if kind == "zero-class":
        # candidates for a zero class: movable rows at 0, effective rows flipped
        rows = [(tuple(-x for x in u), 0) for u in units]
        rows += [(tuple(rng.randint(0, 3) for _ in range(dim)), 0) for _ in range(dim)]
        rows += [(u, 0) for u in units]
        return kind, rows
    rows = [(u, -rng.randint(0, 3)) for u in units]
    rows += [(tuple(-x for x in u), -rng.randint(0, 3)) for u in units]
    if kind == "degenerate":
        # extra rows through the lower corner (b_0, ..., b_d) of the box
        corner = [b for _, b in rows[:dim]]
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(0, 2) for _ in range(dim))
            rows.append((a, sum(x * c for x, c in zip(a, corner))))
    elif kind == "infeasible":
        rows.append((tuple(1 for _ in range(dim)), 3 * dim + 1))
    elif kind == "half-open":
        del rows[dim + rng.randrange(dim)]
    elif kind == "free":
        rows = rows[: rng.randint(0, 2 * dim)]
        while len(rows) < dim + 1:
            rows.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 2)))
    for _ in range(rng.randint(0, 2)):
        rows.append((tuple(rng.randint(-2, 2) for _ in range(dim)), -rng.randint(0, 6)))
    rng.shuffle(rows)
    return kind, rows


def test_vertex_enumeration_matches_subset_oracle_randomized():
    rng = random.Random(20_131_005)
    seen = set()
    for _ in range(150):
        dim = rng.randint(1, 4)
        kind, rows = _random_system(rng, dim)
        p = RationalPolytope.from_inequalities(f"or{dim}", dim, rows)
        try:
            vertices = vertex_enumeration(p).vertices
        except DomainError as err:
            d = tuple(F(x) for x in err.details["recession_direction"])
            assert any(d)
            assert all(sum(F(ai) * di for ai, di in zip(a, d)) >= 0 for a, _ in rows)
            assert not recession_trivial(dim, rows)
            assert recession_direction(p).coords == d
            seen.add("unbounded")
            continue
        assert recession_trivial(dim, rows)
        assert recession_direction(p) is None
        assert [v.coords for v in vertices] == subset_vertices(dim, rows)
        if kind == "zero-class":
            assert [v.coords for v in vertices] == [(0,) * dim]
        seen.add(kind if vertices else "empty")
    assert seen >= {"box", "degenerate", "zero-class", "empty", "unbounded"}


def test_holds_at_agrees_with_fraction_check():
    # seeded systems and points, some of the wrong length, against
    # <a, x> >= b evaluated in Fractions
    rng = random.Random(6_007)
    verdicts = set()
    for _ in range(200):
        dim = rng.randint(1, 4)
        _, rows = _random_system(rng, dim)
        p = RationalPolytope.from_inequalities(f"ha{dim}", dim, rows)
        length = rng.choice([dim, dim, dim, dim - 1, dim + 1])
        x = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(length))
        want = length == dim and all(
            sum((F(ai) * xi for ai, xi in zip(a, x)), F(0)) >= b for a, b in rows
        )
        assert p.holds_at(x) is want
        verdicts.add((length == dim, want))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_simplex_with_no_rows_left():
    # phase one drops every row as redundant
    assert nonneg_solve([(0, 0)], (0, 0)) == (F(0),)
    assert nonneg_solve([(0, 0)], (1, 0)) is None
    # no rows at all: one coefficient per column, and for the oracle's
    # phase two a positive cost is unbounded
    assert nonneg_solve([(), ()], ()) == (F(0), F(0))
    assert two_phase_simplex([], [], [F(1)])[0] == UNBOUNDED

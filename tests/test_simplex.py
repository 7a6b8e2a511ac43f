"""The integer phase-one simplex against the two-phase Fraction oracle.

``nonneg_solve`` must return the very basic solution the Fraction
routine in ``conftest.two_phase_simplex`` returns (zero costs), not just
some feasible one: the solutions are payload certificates.
"""

import importlib.util
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclecones import simplex
from cyclecones.cones import PolyCone, dd_convert
from cyclecones.errors import DomainError
from cyclecones.linalg import int_pivot, mat_rank
from cyclecones.simplex import nonneg_solve

from conftest import INFEASIBLE, OPTIMAL, pivot, two_phase_simplex

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def oracle(columns, target):
    """The oracle's basic solution for nonneg_solve's system, or None."""
    matrix = [list(row) for row in zip(*columns)]
    status, _, z = two_phase_simplex(matrix, target, [F(0)] * len(columns))
    assert status in (OPTIMAL, INFEASIBLE)
    return z


def _entry(rng, fractional):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-3, 3), rng.choice((1, 2, 3)) if fractional else 1)


def _random_system(rng):
    """Columns and a target in dimension 1-7, with the tags of what the
    system contains; about half the targets are nonnegative combinations
    of the columns, and low-rank columns leave redundant rows."""
    dim = rng.randint(1, 7)
    fractional = rng.random() < 0.4
    rank = rng.randint(1, dim) if rng.random() < 0.35 else dim
    basis = [[_entry(rng, fractional) for _ in range(dim)] for _ in range(rank)]
    columns = []
    for _ in range(rng.randint(1, 8)):
        weights = [rng.randint(-2, 2) for _ in range(rank)]
        columns.append(tuple(sum((w * b[i] for w, b in zip(weights, basis)), F(0))
                             for i in range(dim)))
    tags = set()
    for tag in ("zero", "duplicate", "rescaled", "negated"):
        if rng.random() < 0.15:
            tags.add(tag)
            source = rng.choice(columns)
            k = {"zero": 0, "duplicate": 1, "negated": -1}.get(tag, F(rng.choice((2, 3)), 2))
            columns.insert(rng.randrange(len(columns) + 1), tuple(k * x for x in source))
    if rng.random() < 0.5:
        target = [F(0)] * dim
        for c in columns:
            k = F(rng.randint(0, 2))
            target = [t + k * x for t, x in zip(target, c)]
    else:
        target = [_entry(rng, fractional) for _ in range(dim)]
    if any(x.denominator > 1 for c in columns for x in c) or any(
        x.denominator > 1 for x in target
    ):
        tags.add("fractional")
    if any(x < 0 for x in target):
        tags.add("negative-rhs")
    return columns, tuple(target), tags


def _cyclic_membership_systems():
    """contains' systems on the first cyclic instances of the benchmark's
    cone-convert workload (seed 1, dimensions 7-8): canonical generators
    (or, for inequality input, the dual's) against the member by
    construction and the random probe."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    systems = []
    for rung in inputs.cones(1):
        if rung["family"] != "cyclic":
            continue
        for inst in rung["instances"][:3]:
            if rung["kind"] == "generators":
                cone = dd_convert(PolyCone.from_generators("sx", inst["rows"]))
                columns = [g.coords for g in cone.generators]
            else:
                cone = dd_convert(PolyCone.from_inequalities("sx", inst["rows"]))
                columns = [l.coords for l in cone.inequalities]
            systems += [(columns, inst["combo"]), (columns, inst["probe"])]
    return systems


def test_nonneg_solve_matches_two_phase_oracle():
    # 640 seeded systems in dimensions 1-7, each feature below at least 20
    # times, plus the cyclic membership systems of the benchmark
    rng = random.Random(7_041_968)
    seen = Counter()
    for _ in range(640):
        columns, target, tags = _random_system(rng)
        expected = oracle(columns, target)
        assert nonneg_solve(columns, target) == expected, (columns, target)
        if expected is None:
            tags.add("infeasible")
        elif mat_rank(list(zip(*columns))) < len(target):
            tags.add("rank-deficient")
        seen.update(tags)
    features = ("infeasible", "negative-rhs", "zero", "duplicate", "rescaled",
                "negated", "fractional", "rank-deficient")
    assert all(seen[f] >= 20 for f in features), seen
    for columns, target in _cyclic_membership_systems():
        assert nonneg_solve(columns, target) == oracle(columns, target)


def test_int_pivot_keeps_positive_multiples_of_fraction_pivot():
    # the same pivots, on entries of either sign, on a Fraction copy: each
    # integer row stays a positive multiple of its Fraction row
    rng = random.Random(1_968)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        ints = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        fracs = [[F(x) for x in row] for row in ints]
        for _ in range(rng.randint(1, 4)):
            r = rng.randrange(m)
            nonzero = [c for c in range(n) if ints[r][c]]
            if not nonzero:
                continue
            c = rng.choice(nonzero)
            int_pivot(ints, r, c)
            pivot(fracs, r, c)
            assert ints[r][c] > 0
            for irow, frow in zip(ints, fracs):
                j = next((j for j, x in enumerate(frow) if x), None)
                if j is None:
                    assert not any(irow)
                    continue
                k = irow[j] / frow[j]
                assert k > 0 and irow == [k * x for x in frow]


def test_simplex_pivot_budget(monkeypatch):
    columns, target = [(1, 0), (0, 1)], (2, 3)
    assert nonneg_solve(columns, target) == (F(2), F(3))
    monkeypatch.setattr(simplex, "_MAX_SIMPLEX_PIVOTS", 0)
    with pytest.raises(DomainError) as caught:
        nonneg_solve(columns, target)
    assert caught.value.details == {"rows": 2, "columns": 2, "pivots": 1}
    # a system solved without a pivot stays within any budget
    assert nonneg_solve([(0, 0)], (0, 0)) == (F(0),)


def test_zero_target_is_the_phase_one_combination():
    # nonneg_solve answers a zero target without a phase one; phase one keeps
    # a zero rhs through every pivot, so it finds the same Fraction zeros
    rng = random.Random(7_041_968)
    for _ in range(200):
        columns, target, _ = _random_system(rng)
        zero = (0,) * len(target)
        if columns:
            matrix = [list(row) for row in zip(*columns)]
            want = simplex.solve_standard(matrix, zero, len(columns))
            assert nonneg_solve(columns, zero) == want == (Fraction(0),) * len(columns)
            assert all(type(c) is Fraction for c in want)
    assert nonneg_solve([], (0, 0)) == () and nonneg_solve([], (0, 1)) is None

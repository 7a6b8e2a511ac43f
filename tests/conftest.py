"""Shared randomized-data helpers for the test suite.

All randomness is seeded per test, so failures reproduce exactly.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest

from cyclecones import rings
from cyclecones.cones import (
    ContainsResult,
    PolyCone,
    _generators_from_dd,
    contains,
    dd_convert,
    double_description,
)
from cyclecones.errors import CycleConesError, DomainError, InputError
from cyclecones.linalg import combine, dot, int_primitive, solve_unique, violated
from cyclecones.negdef import (
    PairingBasis,
    _build,
    _checked,
    _postconditions_hold,
    is_negative_definite,
)
from cyclecones.decomposition import Certificate, Decomposition
from cyclecones.polytope import (RationalPolytope, inequality, maximize_linear,
                                 vertex_enumeration, vertex_table)
from cyclecones.projbundle import HNProfile, class_basis
from cyclecones.rationals import _shown, _unparsable, rat, rat_str
from cyclecones.simplex import nonneg_solve
from cyclecones.vectors import ClassVector
from cyclecones.zariski import (DirectednessReport, DominationFailure, cone_geometry,
                                dominator_set_empty, preceq_maximum)

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def bench_inputs():
    """The benchmark's seeded input generators, ``bench/inputs.py``: plain
    Python, loaded by its path."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def bench_ladder_pool(seed: int) -> list:
    """The (geometry, class) pool of the benchmark's decompose-ladder for
    one seed."""
    from cyclecones.fixtures import load

    toric = load("toric-3fold").geometry("curves")
    items = []
    for rung in bench_inputs().ladder(seed):
        basis = f"bench.ladder{rung['dim']}"
        for i, inst in enumerate(rung["instances"]):
            if rung["extra"] is None:  # a toric-3fold:curves class
                alpha = combine(inst["coeffs"], toric.eff.generator_rows(), toric.dim)
                items.append((toric, ClassVector(toric.basis, alpha)))
                continue
            g = cone_geometry(
                f"{rung['label']}-{i}",
                PolyCone.from_generators(basis, inst["mov"]),
                PolyCone.from_generators(basis, inst["eff"]),
                ClassVector(f"{basis}*", (1,) * rung["dim"]),
            )
            items.append((g, ClassVector(basis, inst["alpha"])))
    return items


def bench_small_batch_pool(seed: int) -> tuple[list, list]:
    """The pools of the benchmark's small-batch for one seed: (profile, k,
    class) slope problems and (pairing basis, coefficients) problems."""
    slopes, pairings = [], []
    for rung in bench_inputs().small_batch(seed):
        for inst in rung["instances"]:
            if rung["label"] == "slope":
                profile, k = HNProfile(tuple(inst["pieces"])), inst["k"]
                eps = profile.heights[k]
                alpha = (inst["a"], inst["a"] * eps + inst["b"])
                slopes.append((profile, k, ClassVector(class_basis(profile, k), alpha)))
            else:
                labels = tuple(f"v{i}" for i in range(inst["rank"]))
                basis = PairingBasis(labels, tuple(tuple(r) for r in inst["gram"]))
                pairings.append((basis, tuple(inst["coeffs"])))
    return slopes, pairings


def fraction_rat(value) -> Fraction:
    """Oracle for ``rationals.rat``: the earlier rule, a Fraction always,
    with the same messages for what it rejects."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"floating-point input rejected: {value!r}; pass an exact "
            'rational such as "3/4"'
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(_unparsable(text, value)) from exc
    raise InputError(f"not a rational number: {_shown(value)}")


def random_cone(rng: random.Random, dim: int, basis: str) -> PolyCone:
    count = rng.randint(1, dim + 2)
    rows = []
    while len(rows) < count:
        row = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        if any(row):
            rows.append(row)
    return PolyCone.from_generators(basis, rows, dim=dim)


def random_vector(rng: random.Random, dim: int, basis: str) -> ClassVector:
    return ClassVector(
        basis,
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)),
    )


def random_member(rng: random.Random, cone: PolyCone) -> ClassVector:
    total = None
    for g in cone.generators:
        part = g.scale(Fraction(rng.randint(0, 4), rng.randint(1, 2)))
        total = part if total is None else total + part
    return total


def random_profile(rng: random.Random, max_pieces: int = 4, max_rank: int = 5,
                   max_degree: int = 10) -> HNProfile:
    while True:
        pieces = []
        count = rng.randint(1, max_pieces)
        ranks = [rng.randint(1, max_rank) for _ in range(count)]
        if sum(ranks) < 2:
            continue
        degrees = [rng.randint(-max_degree, max_degree) for _ in range(count)]
        slopes = [Fraction(d, r) for d, r in zip(degrees, ranks)]
        if all(a < b for a, b in zip(slopes, slopes[1:])):
            return HNProfile(tuple(zip(ranks, degrees)))


def chain_gram(rank: int) -> dict:
    """Pairing document of a negative-definite tridiagonal gram (an A_n chain)."""
    gram = [
        ["-2" if i == j else "1" if abs(i - j) == 1 else "0" for j in range(rank)]
        for i in range(rank)
    ]
    return {"labels": [f"C{i}" for i in range(rank)], "gram": gram}


def bareiss_det(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], sign = m[pivot], m[c], -sign
        for i in range(c + 1, n):
            m[i] = [(m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev for j in range(n)]
        prev = m[c][c]
    return sign * m[n - 1][n - 1] if n else 1


def pivot(rows, r, c):
    """Fraction Gauss-Jordan pivot: row ``r`` scaled to a 1 in column ``c``,
    that column cleared elsewhere.  The oracle for ``linalg.int_pivot``."""
    inv = 1 / rows[r][c]
    rows[r] = [x * inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            factor = rows[i][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]


def rref(matrix):
    """Reduced row echelon form over Fractions and the list of pivot
    columns, first nonzero pivots with row swaps.  The oracle for
    ``linalg.echelon``."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return [tuple(row) for row in rows], pivots


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _optimize(rows, basis, costs):
    """Maximize costs·z over the current standard-form tableau.

    Returns OPTIMAL or UNBOUNDED; tableau and basis are updated in place.
    The reduced-cost row is initialized from the basis once and then
    maintained through pivots (Bland's rule on it).
    """
    ncols = len(costs)
    reduced = [Fraction(c) for c in costs] + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb != 0:
            reduced = [a - cb * b for a, b in zip(reduced, rows[i])]
    while True:
        enter = next((j for j in range(ncols) if reduced[j] > 0), None)
        if enter is None:
            return OPTIMAL
        # least ratio; Bland's rule breaks ties by the leaving variable
        ratios = [
            (row[-1] / row[enter], basis[i], i)
            for i, row in enumerate(rows)
            if row[enter] > 0
        ]
        if not ratios:
            return UNBOUNDED
        leave = min(ratios)[2]
        pivot(rows, leave, enter)
        basis[leave] = enter
        factor = reduced[enter]
        if factor != 0:
            reduced = [a - factor * b for a, b in zip(reduced, rows[leave])]


def _value(rows, basis, costs) -> Fraction:
    return dot([costs[bi] for bi in basis], [row[-1] for row in rows])


def two_phase_simplex(matrix, rhs, costs):
    """Simplex oracle: maximize costs·z subject to matrix·z = rhs, z >= 0.

    The exact two-phase method over Fractions, Bland's rule throughout;
    ``costs`` has one entry per column.  Returns ``(status, value, z)``;
    value and z are None unless OPTIMAL.  With zero costs its z is the
    basic solution the library's integer phase one must reproduce.
    """
    m, n = len(matrix), len(costs)
    # phase one: artificial basis, minimize the artificial total
    rows = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        units = [Fraction(int(i == j)) for j in range(m)]
        row = [sign * Fraction(x) for x in matrix[i]]
        rows.append(row + units + [sign * Fraction(rhs[i])])
    basis = [n + i for i in range(m)]
    phase1_costs = [Fraction(0)] * n + [Fraction(-1)] * m
    assert _optimize(rows, basis, phase1_costs) == OPTIMAL, "phase one is bounded"
    if _value(rows, basis, phase1_costs) != 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i], basis[i]
            else:
                pivot(rows, i, col)
                basis[i] = col

    rows = [row[:n] + [row[-1]] for row in rows]
    phase2_costs = [Fraction(c) for c in costs]
    if _optimize(rows, basis, phase2_costs) != OPTIMAL:
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        solution[bi] = rows[i][-1]
    return OPTIMAL, _value(rows, basis, phase2_costs), tuple(solution)


def maximize_affine(functionals, offsets, objective):
    """LP oracle: maximize objective·x over {x : functionals·x >= offsets}.

    Free variables are split as x = u - w, and each constraint gains a
    surplus variable, for ``two_phase_simplex``.  Returns
    ``(status, value, x)``.
    """
    m, dim = len(functionals), len(functionals[0])
    matrix = []
    for i, row in enumerate(functionals):
        surplus = [Fraction(-(i == j)) for j in range(m)]
        split = [Fraction(x) for x in row] + [-Fraction(x) for x in row]
        matrix.append(split + surplus)
    costs = [Fraction(x) for x in objective]
    costs += [-c for c in costs] + [Fraction(0)] * m
    status, value, z = two_phase_simplex(matrix, offsets, costs)
    if status != OPTIMAL:
        return status, None, None
    return OPTIMAL, value, tuple(z[i] - z[dim + i] for i in range(dim))


def set_double_description(rows, dim):
    """Double description oracle with tight sets as Python ``set``s.

    The engine ``cones.double_description`` replaced: the same insertion
    order and list order, no rank prefilter, and every positive/negative
    pair checked against every other ray.  Returns ``(lineality, rays,
    tight)``: the first two as lists of Fraction tuples, and each ray's
    tight set, the indices of the nonzero rows vanishing on it.  A ray
    born from a lineality vector is tight on the nonzero rows read before
    it, never on a zero row.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, tight = [], []
    processed = set()  # indices of the nonzero rows read so far

    def project(v, z, az, a):
        av = dot(v, a)
        return int_primitive(tuple(az * v_i - av * z_i for v_i, z_i in zip(v, z)))

    for idx, raw in enumerate(rows):
        checked = tuple(rat(x) for x in raw)
        if len(checked) != dim:
            raise InputError(f"constraint of length {len(checked)} in dimension {dim}")
        if not any(checked):
            continue
        a = int_primitive(checked)
        earlier = set(processed)
        processed.add(idx)

        hit = next((i for i, l in enumerate(lineality) if dot(l, a) != 0), None)
        if hit is not None:
            z = lineality.pop(hit)
            az = dot(z, a)
            if az < 0:
                z = tuple(-x for x in z)
                az = -az
            lineality = [project(l, z, az, a) for l in lineality]
            rays = [project(r, z, az, a) for r in rays]
            for t in tight:
                t.add(idx)
            rays.append(z)
            tight.append(earlier)
            continue

        values = [dot(r, a) for r in rays]
        if all(v >= 0 for v in values):
            for i, v in enumerate(values):
                if v == 0:
                    tight[i].add(idx)
            continue

        positive = [i for i, v in enumerate(values) if v > 0]
        negative = [i for i, v in enumerate(values) if v < 0]
        zero = [i for i, v in enumerate(values) if v == 0]

        new_rays = [rays[i] for i in positive]
        new_tight = [set(tight[i]) for i in positive]
        for i in zero:
            new_rays.append(rays[i])
            new_tight.append(tight[i] | {idx})
        for ip in positive:
            for im in negative:
                common = tight[ip] & tight[im]
                blocked = any(
                    k not in (ip, im) and common <= tight[k]
                    for k in range(len(rays))
                )
                if blocked:
                    continue
                combo = int_primitive(
                    tuple(
                        values[ip] * rays[im][j] - values[im] * rays[ip][j]
                        for j in range(dim)
                    )
                )
                new_rays.append(combo)
                new_tight.append(common | {idx})
        rays, tight = new_rays, new_tight

    return (
        [tuple(Fraction(x) for x in v) for v in lineality],
        [tuple(Fraction(x) for x in v) for v in rays],
        tight,
    )


def dot_irredundant_rows(rows, lineality, rays, dim: int):
    """Oracle for ``cones._irredundant_rows``: the same facet rule, with each
    supplied row's tight set rebuilt from its dot products with every ray
    instead of read off the double description's incidence."""
    if dim - len(lineality) < 2:
        return None
    everywhere = (1 << len(rays)) - 1
    by_tight: dict[int, set[tuple[int, ...]]] = {}
    for a in rows:
        if not any(a):
            continue
        tight = 0
        for bit, r in enumerate(rays):
            if not dot(r, a):
                tight |= 1 << bit
        if tight == everywhere:
            return None
        by_tight.setdefault(tight, set()).add(a)
    facets: set[tuple[int, ...]] = set()
    for tight, same in by_tight.items():
        if not any(t != tight and tight & t == tight for t in by_tight):
            facets |= same
    return sorted(facets)


def two_pass_dd_convert(cone: PolyCone) -> PolyCone:
    """Conversion oracle: two double descriptions, the second re-deriving
    the supplied representation from the first one's output, with no
    combinatorial shortcut.  ``dd_convert`` must give the same canonical
    pair; the cross-checks of supplied rows are left to it, and the result
    is not marked canonical."""
    def convert(rows):
        return _generators_from_dd(*double_description(rows, cone.dim))

    if cone.inequalities is not None:
        gen_rows = convert(cone.inequality_rows())
        ineq_rows = convert(gen_rows)
    else:
        ineq_rows = convert(cone.generator_rows())
        gen_rows = convert(ineq_rows)
    return PolyCone(
        cone.basis,
        cone.dim,
        generators=tuple(ClassVector(cone.basis, row) for row in gen_rows),
        inequalities=tuple(ClassVector(cone.dual, row) for row in ineq_rows),
        dual=cone.dual,
    )


def fraction_contains(cone: PolyCone, vector: ClassVector) -> ContainsResult:
    """Membership oracle: the decision ``cones.contains`` made before it
    decided in ``int``.  The canonical inequalities, lifted to Fractions,
    are scanned on the unscaled vector, and a member's combination is
    solved on the generators lifted to Fractions."""
    full = dd_convert(cone)
    point = tuple(map(Fraction, vector.coords))
    ineqs = [tuple(map(Fraction, row)) for row in full.inequality_rows()]
    cut = violated(ineqs, point)
    if cut is not None:
        return ContainsResult(full, vector, False, separating=full.inequalities[cut])
    gens = [tuple(map(Fraction, row)) for row in full.generator_rows()]
    if vector.is_zero():
        return ContainsResult(full, vector, True, combination=(Fraction(0),) * len(gens))
    return ContainsResult(full, vector, True, combination=nonneg_solve(gens, point))


def subset_brute_force(basis: PairingBasis, coeffs):
    """Oracle for ``negdef.brute_force``: try every support subset.

    Each subset gets the orthogonality solve and the full postcondition
    check; exactly one distinct valid splitting must emerge.  Zero or
    several distinct results signal broken input data (or a broken
    invariant) and raise.
    """
    coeffs = _checked(basis, coeffs)
    if basis.rank > 16:
        raise DomainError(
            f"brute force rank {basis.rank} exceeds the cap of 16",
            rank=basis.rank,
            cap=16,
        )

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


def _rowwise_pivot_live(rows, scales, r, p):
    """The row-major search step ``rowwise_brute_force`` takes: the pivot of
    ``linalg.int_pivot`` on row ``r`` at live column ``p``, keeping only the
    columns after ``p``.  Row ``r`` is negated and its pivot entry ``a`` is
    its scale; every other row with an entry ``b != 0`` becomes
    ``a·row − b·rows[r]`` and its scale ``a`` times its own, both divided by
    their common content."""
    a = -rows[r][p]
    prow = [-x for x in rows[r][p + 1:]]
    child, child_scales = [], scales[:]
    for i, row in enumerate(rows):
        b = row[p]
        if i == r:
            child.append(prow)
            child_scales[i] = a
        elif b:
            new = [a * x - b * y for x, y in zip(row[p + 1:], prow)]
            scale = a * scales[i]
            g = gcd(scale, *new)
            if g > 1:
                new = [x // g for x in new]
                scale //= g
            child.append(new)
            child_scales[i] = scale
        else:
            child.append(row[p + 1:])
    return child, child_scales


def rowwise_brute_force(basis: PairingBasis, coeffs, visits: list | None = None):
    """Oracle for ``negdef.brute_force``'s search: the same depth-first walk
    over negative-definite supports, on rows instead of columns.

    Each row holds its live columns, then the pairing column, as a
    primitive integer row with its own scale.  Each support visited is
    appended to ``visits``, in order, with its candidate negative part (a
    tuple of Fractions), or None when its pairing column has a negative
    entry.
    """
    coeffs = _checked(basis, coeffs)
    rank = basis.rank
    if rank > 16:
        raise DomainError(
            f"brute force rank {rank} exceeds the cap of 16", rank=rank, cap=16
        )
    visits = [] if visits is None else visits
    initial = combine(coeffs, basis.gram, rank)
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}

    def visit(rows, scales, support, live):
        candidate = None
        if all(row[-1] >= 0 for row in rows):
            negative = [Fraction(0)] * rank
            for i in support:
                negative[i] = Fraction(rows[i][-1], scales[i])
            candidate = tuple(negative)
            found[candidate] = tuple(i for i in support if negative[i])
        visits.append((support, candidate))
        for p, j in enumerate(live):
            if rows[j][p] < 0:
                child, child_scales = _rowwise_pivot_live(rows, scales, j, p)
                visit(child, child_scales, support + (j,), live[p + 1:])

    live = tuple(i for i in range(rank) if basis.gram[i][i] < 0)
    rows = [
        list(int_primitive(tuple(row[j] for j in live) + (v,)))
        for row, v in zip(basis.gram, initial)
    ]
    visit(rows, [0] * rank, (), live)
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


def solve_per_step_decompose(basis: PairingBasis, coeffs):
    """Oracle for ``negdef.decompose``: grow the support, re-solving each.

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


def affine_decomposition_rows(g, alpha: ClassVector):
    """The inequalities of ``zariski.decomposition_polytope`` as pairs
    ``(a, b)``, meaning <a, x> >= b, in its row order: each movable facet
    l as <l, x> >= 0, then each effective facet m on the leftover as
    <-m, x> >= -<m, alpha>, with the cones' Fraction facets."""
    rows = [(l.coords, Fraction(0)) for l in g.mov.inequalities]
    for m in g.eff.inequalities:
        rows.append((tuple(-c for c in m.coords), -dot(m.coords, alpha.coords)))
    return rows


def affine_dominator_rows(g, rows, u: ClassVector, w: ClassVector):
    """``rows`` plus <m, z> >= max(<m, u>, <m, w>) per effective facet m."""
    return rows + [
        (m.coords, max(dot(m.coords, u.coords), dot(m.coords, w.coords)))
        for m in g.eff.inequalities
    ]


def fraction_reproduces(coeffs, rows, target) -> bool:
    """Oracle for ``linalg.reproduces``: the check as it was before it
    cleared denominators, a combination compared in Fraction arithmetic,
    of rows of the target's length."""
    return (
        len(coeffs) == len(rows)
        and all(len(row) == len(target) for row in rows)
        and all(c >= 0 for c in coeffs)
        and combine(coeffs, rows, len(target)) == tuple(target)
    )


def fraction_sorted_vertices(p) -> list[tuple[Fraction, ...]]:
    """Oracle for the vertex order of ``polytope._homogenized``: the
    bounded polytope's double description rays as Fraction points, sorted
    as tuples of Fractions."""
    rows = (*p.inequalities, (0,) * p.dim + (1,))
    lineality, rays = double_description(rows, p.dim + 1)
    assert not lineality and all(r[-1] > 0 for r in rays)
    return sorted(tuple(Fraction(c, r[-1]) for c in r[:-1]) for r in rays)


def fraction_key_peel(gen_values, slack) -> tuple[Fraction, ...]:
    """Oracle for ``zariski._peel``: each step picks the least ratio by a
    Fraction key and adds its coefficient as a Fraction."""
    coeffs = [Fraction(0)] * len(gen_values)
    den = 1
    for _ in range(len(slack) + 1):
        if not any(slack):
            return tuple(coeffs)
        zeros = [l for l, sl in enumerate(slack) if sl == 0]
        face = (k for k, gv in enumerate(gen_values) if not any(gv[l] for l in zeros))
        pick = next(face, None)
        if pick is None:
            break
        gv = gen_values[pick]
        ratios = ((sl, x) for x, sl in zip(gv, slack) if x > 0)
        sl, x = min(ratios, key=lambda pair: Fraction(*pair))
        coeffs[pick] += Fraction(sl, x * den)
        slack = [x * a - sl * b for a, b in zip(slack, gv)]
        den *= x
    raise DomainError("peeling found no eff combination")


def pairwise_maximum(g, s) -> tuple[str, tuple | None]:
    """Oracle for the decision of ``zariski.preceq_maximum``: the all-pairs
    scan, each vertex tested against every other on its Fraction eff facet
    values.  Returns the status and the maximum's coordinates (or None)."""
    values = [
        [dot(l.coords, v.coords) for l in g.eff.inequalities] for v in s.vertices
    ]
    for top, row in enumerate(values):
        if all(all(a >= b for a, b in zip(row, other)) for other in values):
            return "maximum", s.vertices[top].coords
    return "no-maximum", None


def triple_scan_report(g, s) -> DirectednessReport:
    """Oracle for the ``no-maximum`` report of ``zariski.preceq_maximum``:
    the earlier all-triples scan.  Each vertex pair (i, j), in
    ``combinations`` order, is tested against every vertex k on the eff
    facet values; the first pair no k dominates both of is the witness.
    Vertex k's failure targets j if k dominates i, else i, at the first
    facet where k falls short.  Up to V^3/2 dominance tests."""
    vertices = s.vertices
    _, values = vertex_table(s, g.eff.inequality_rows())

    def dominates(i: int, j: int) -> bool:
        return all(a >= b for a, b in zip(values[i], values[j]))

    indices = range(len(vertices))
    for i, j in combinations(indices, 2):
        if any(dominates(k, i) and dominates(k, j) for k in indices):
            continue
        failures = []
        for k in indices:
            t = j if dominates(k, i) else i
            cut = next(l for l, (a, b) in enumerate(zip(values[k], values[t])) if a < b)
            failures.append(DominationFailure(vertices[k], vertices[t], g.eff.inequalities[cut]))
        u, w = vertices[i], vertices[j]
        empty, certificate = dominator_set_empty(g, s, u, w)
        return DirectednessReport(
            "no-maximum",
            s,
            g.eff,
            witness_pair=(u, w),
            failures=tuple(failures),
            pair_dominator_set_empty=empty,
            pair_certificate=certificate,
        )
    raise AssertionError("every vertex pair has a common dominator: a maximum")


def two_step_normal_form(ring, terms: dict, strategy: str = "first") -> dict:
    """Oracle for ``RingPresentation.normal_form``: the earlier two-step
    search.  Each step scans the sorted monomials for the first one that
    ``is_normal`` rejects, then scans the rules again for the first that
    divides it."""
    rules = sorted(ring.rewrites)
    if strategy == "last":
        rules = rules[::-1]
    work = {m: rat(c) for m, c in terms.items() if c != 0}
    for _ in range(rings._MAX_REWRITE_STEPS + 1):
        target = next(
            (m for m in sorted(work, reverse=strategy == "first") if not ring.is_normal(m)),
            None,
        )
        if target is None:
            return work
        rule = next(lhs for lhs in rules if rings._divides(lhs, target))
        rest = rings._mono_sub(target, rule)
        coeff = work.pop(target)
        for rhs_mono, rhs_coeff in ring.rewrites[rule].items():
            key = rings._mono_mul(rhs_mono, rest)
            value = work.get(key, 0) + coeff * rhs_coeff
            if value == 0:
                work.pop(key, None)
            else:
                work[key] = value
    raise DomainError(f"{ring.name}: rewriting exceeds its step budget")


def comparator_order_polygon(points):
    """Oracle for ``section_plot._order_polygon``: the earlier comparator
    sort around the centroid, by half-plane, then by the sign of the cross
    product of two points' offsets."""
    if len(points) <= 2:
        return list(points)
    cx = sum((p[0] for p in points), Fraction(0)) / len(points)
    cy = sum((p[1] for p in points), Fraction(0)) / len(points)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = (p[0] - cx) * (q[1] - cy) - (q[0] - cx) * (p[1] - cy)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(points, key=cmp_to_key(compare))


def cold_polytope(g, alpha: ClassVector) -> RationalPolytope:
    """The decomposition polytope of ``alpha``, its vertices enumerated by a
    cold double description: no start state rides on it, so neither its
    own enumeration nor a dominator set built from it resumes."""
    rows = [inequality(l, 0) for l in g.mov.inequality_rows()]
    rows += [inequality([-c for c in m], -dot(m, alpha.coords)) for m in g.eff.inequality_rows()]
    return vertex_enumeration(RationalPolytope(g.basis, g.dim, tuple(rows), dual=g.eff.dual))


def report_route_metadata(g, alpha: ClassVector, objective=None) -> dict:
    """Oracle for the metadata of ``zariski.decompose``: the earlier route,
    which built a full ``preceq_maximum`` report and read both verdict
    strings off it (a maximum, and at the positive part ``face[0]``).  It
    takes that route for a movable ``alpha`` too, on ``cold_polytope``."""
    objective = g.degree_functional if objective is None else objective
    s = cold_polytope(g, alpha)
    value, face = maximize_linear(s, objective)
    report = preceq_maximum(g, s)
    is_max = report.status == "maximum" and report.maximum.coords == face[0].coords
    return {
        "method": "degree-maximization",
        "geometry": g.name,
        "objective": [rat_str(c) for c in objective.coords],
        "objective_value": rat_str(value),
        "optimal_face": [[rat_str(c) for c in v.coords] for v in face],
        "optimum_unique": len(face) == 1,
        "positive_part_status": (
            "certified-preceq-maximum" if is_max else "objective-maximal-candidate"
        ),
        "preceq_maximum": report.status,
        "canonical_choice": "lexicographically-smallest-optimal-vertex",
    }


def cold_route_decomposition(g, alpha: ClassVector) -> Decomposition:
    """Oracle for ``zariski.decompose`` with the geometry's objective: the
    optimum read off ``cold_polytope``'s vertices for every class, movable
    or not, with ``report_route_metadata``."""
    _, face = maximize_linear(cold_polytope(g, alpha), g.degree_functional)
    positive = face[0]
    negative = alpha - positive
    certificates = tuple(
        Certificate(fact, {"combination": list(contains(cone, part).combination)})
        for fact, cone, part in (
            ("positive-part-movable", g.mov, positive),
            ("negative-part-pseudo-effective", g.eff, negative),
        )
    )
    return Decomposition(alpha, positive, negative, certificates, report_route_metadata(g, alpha))


def fraction_int_primitive(row) -> tuple[int, ...]:
    """Oracle for ``linalg.int_primitive``: every row, integer or not,
    scaled by the lcm of its denominators, then divided by its content."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*ints)
    if content <= 1:
        return tuple(ints)
    return tuple(v // content for v in ints)


def fraction_epsilon(profile: HNProfile, k: int) -> Fraction:
    """Oracle for ``projbundle.epsilon``: the slope polygon walked in
    Fractions, one segment of slope d/r per piece."""
    x = Fraction(0)
    y = Fraction(-profile.degree)
    for (r, _), slope in zip(profile.pieces, profile.slopes):
        if k <= x + r:
            return y + (Fraction(k) - x) * slope
        x += r
        y += r * slope
    return y


def cones_equal(a: PolyCone, b: PolyCone) -> bool:
    """Exact cone equality (basis-aware, representation-free)."""
    if a.basis != b.basis or a.dim != b.dim:
        return False
    ca, cb = dd_convert(a), dd_convert(b)
    gens_a = {g.coords for g in ca.generators}
    gens_b = {g.coords for g in cb.generators}
    if gens_a == gens_b:
        return True
    # mutual containment fallback for non-salient canonical forms, whose
    # quotient-ray representatives may legitimately differ
    ineqs_a, ineqs_b = ca.inequality_rows(), cb.inequality_rows()
    return all(violated(ineqs_b, g) is None for g in gens_a) and all(
        violated(ineqs_a, g) is None for g in gens_b
    )


@pytest.fixture
def rng():
    return random.Random(0xC1C1E5)


# toric threefold data, shared across unit tests (the fixture file carries
# the same numbers; unit tests deliberately avoid the fixture loader)
TORIC_D = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (Fraction(-2, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(-2, 3), Fraction(-2, 3), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-2, 3), Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 3)),
)
TORIC_A = (
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 1),
    (0, 0, 1, 0, 1),
    (1, 1, 1, -1, 1),
    (0, 0, 0, 0, 1),
)
TORIC_C = (
    (1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0),
    (0, 0, 1, 1, 0),
    (-1, -1, -1, -2, 1),
    (0, 0, 0, -1, 0),
)
TORIC_M = (
    (1, 0, 0, 0, 2),
    (0, 1, 0, 0, 2),
    (0, 0, 1, 0, 2),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1),
    (1, 1, 1, 0, 3),
)
TORIC_ALPHA = (1, 1, 0, 1, 2)
TORIC_OBJECTIVE = (2, 2, 2, -1, 5)  # sum of the five nef generators

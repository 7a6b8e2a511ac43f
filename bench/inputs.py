"""Seeded input generators for the library workloads.

Plain Python only: the library never sees the seed, just the rows and
numbers produced here.  The same seed always gives the same inputs.
Every workload is a fixed sequence of rounds; each round runs every
rung (or kind) a fixed number of times, so the mix of operations in a
run does not depend on how many rounds fit in the timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction

# decompose-ladder rungs: (label, dim, extra eff generators, ops per round).
# Only dimension 3 draws extra eff generators: from dimension 4 on, their
# spread in C(m, dim) (330 to 4845 subsets at one extra generator in
# dimension 4) moved a run's medians by up to 29% between seeds.  Higher
# rungs keep eff = orthant, so only the class is drawn.  Dimension 7 is
# left out: its smallest shape (C(21, 7) = 116280 subsets) takes about
# 10 s per operation at commit 866b767.  The per-round counts put the
# median in the middle of the toric rung and the 75th percentile in the
# middle of d5x0, and three rounds already give 10 samples beyond it.
LADDER_RUNGS = (
    ("d3x3", 3, 3, 3),
    ("d4x0", 4, 0, 3),
    ("toric", 5, None, 4),
    ("d5x0", 5, 0, 5),
    ("d6x0", 6, 0, 1),
)
# cone-convert rungs: (family, dim, input rows, ops per round per input
# kind).  Random cones of 12 rows in dimension 7 spread too widely in
# cost (log-time standard deviation 0.8-1.0, sizes 49-101) for a run to
# hold enough of them; cones over cyclic polytopes of the same shape have
# one face lattice each, so their cost varies only with the numbers and
# the insertion order (log-time standard deviation 0.1-0.4 over 25
# instances on a 2-vCPU VM).  Dimension 7 is the slowest rung; with three
# of each input kind per round, the median and the 75th percentile fall
# inside it, not between two rungs, where they would jump from one rung to
# the other between seeds.
CONE_RUNGS = (("random", 6, 12, 1), ("cyclic", 7, 11, 3), ("cyclic", 8, 11, 1))
# small-batch: slope problems and pairing ranks per round (rank 9 twice);
# the median falls among the slope problems and the 90th percentile in the
# middle of rank 9
SLOPE_PER_ROUND = 12
PAIRING_RANKS = (6, 7, 8, 9, 9, 10)
# rounds of distinct instances drawn per workload, more than a 12 s run
# uses (3, 16 and 8 rounds); longer runs cycle through them.
POOL_ROUNDS = {"decompose-ladder": 6, "cone-convert": 24, "small-batch": 24}


def rank(rows) -> int:
    """Exact rank of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [head[c] * a - f * b for a, b in zip(m[i], head)]
        rank += 1
    return rank


def _positive_rows(rng: random.Random, dim: int, count: int, lo: int, hi: int, avoid=()):
    """Distinct integer rows with positive coordinate sum, not in ``avoid``."""
    rows: list[tuple[int, ...]] = []
    while len(rows) < count:
        row = tuple(rng.randint(lo, hi) for _ in range(dim))
        if sum(row) > 0 and row not in rows and row not in avoid:
            rows.append(row)
    return rows


def ladder(seed: int) -> list[dict]:
    """Rungs of random geometries: eff = units + extras, mov = pairwise sums."""
    rng = random.Random(f"decompose-ladder/{seed}")
    pool = POOL_ROUNDS["decompose-ladder"]
    rungs = []
    for label, dim, extra, per_round in LADDER_RUNGS:
        instances = []
        for _ in range(per_round * pool):
            if extra is None:  # toric-3fold:curves with a seeded eff class
                instances.append({"coeffs": _nonzero_coeffs(rng, 5)})
                continue
            units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            eff = units + _positive_rows(rng, dim, extra, -1, 2, avoid=units)
            mov = [
                tuple(a + b for a, b in zip(eff[i], eff[j]))
                for i in range(len(eff))
                for j in range(i + 1, len(eff))
            ]
            coeffs = _nonzero_coeffs(rng, len(eff))
            alpha = tuple(sum(c * g[i] for c, g in zip(coeffs, eff)) for i in range(dim))
            instances.append({"eff": eff, "mov": mov, "alpha": alpha})
        rungs.append({"label": label, "dim": dim, "extra": extra,
                      "per_round": per_round, "instances": instances})
    return rungs


def _nonzero_coeffs(rng: random.Random, count: int) -> list[int]:
    while True:
        coeffs = [rng.randint(0, 3) for _ in range(count)]
        if any(coeffs):
            return coeffs


def _cyclic_rows(rng: random.Random, dim: int, count: int):
    """Rows (1, t, ..., t^(dim - 1)) at distinct seeded integers t in
    [-6, 6], in seeded order: a cone over a cyclic polytope, whose face
    lattice is the same for every choice of t (Gale's evenness condition).
    The first coordinate is 1, so the first unit vector is strictly
    positive on every row; Vandermonde rows of distinct t have full rank;
    the row at t >= 0 has positive coordinate sum."""
    return [tuple(t ** k for k in range(dim)) for t in rng.sample(range(-6, 7), count)]


def cones(seed: int) -> list[dict]:
    """Full-dimensional pointed cones, as generators or inequalities.

    Random rows have positive coordinate sum, cyclic rows a first
    coordinate of 1; either way a vector is strictly positive on every row,
    so a generated cone is pointed and an inequality cone full-dimensional,
    and some row is positive on the all-ones vector, so the negated
    all-ones vector is a non-member.  Full rank is drawn for (random) or
    holds (cyclic), so a generated cone is full-dimensional and an
    inequality cone is pointed.
    """
    rng = random.Random(f"cone-convert/{seed}")
    pool = POOL_ROUNDS["cone-convert"]
    rungs = []
    for family, dim, count, per_round in CONE_RUNGS:
        for kind in ("generators", "inequalities"):
            instances = []
            for _ in range(per_round * pool):
                while family == "random":
                    rows = _positive_rows(rng, dim, count, -2, 3)
                    if rank(rows) == dim:
                        break
                else:
                    rows = _cyclic_rows(rng, dim, count)
                weights = [rng.randint(0, 3) for _ in rows]
                combo = tuple(sum(w * r[i] for w, r in zip(weights, rows)) for i in range(dim))
                probe = tuple(rng.randint(-4, 4) for _ in range(dim))
                instances.append({"rows": rows, "combo": combo, "probe": probe})
            rungs.append({"label": f"{family[0]}{dim}{kind[0]}", "dim": dim, "kind": kind,
                          "family": family, "per_round": per_round, "instances": instances})
    return rungs


def _profile(rng: random.Random):
    """Criterion-4-style slope data: (rank, degree) pieces, increasing slopes."""
    while True:
        count = rng.randint(1, 4)
        ranks = [rng.randint(1, 5) for _ in range(count)]
        if sum(ranks) < 2:
            continue
        degrees = [rng.randint(-10, 10) for _ in range(count)]
        slopes = [Fraction(d, r) for d, r in zip(degrees, ranks)]
        if all(a < b for a, b in zip(slopes, slopes[1:])):
            return list(zip(ranks, degrees))


def _pairing(rng: random.Random, rank: int) -> dict:
    """A surface-type pairing matrix: curves meet nonnegatively, and the
    negative curves form a strictly diagonally dominant block, so every
    support the decomposition can reach is negative definite."""
    negative = set(rng.sample(range(rank), rng.randint(2, rank - 1)))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < 0.4:
                gram[i][j] = gram[j][i] = rng.randint(1, 2)
    for i in range(rank):
        if i in negative:
            block = sum(gram[i][j] for j in negative if j != i)
            gram[i][i] = -block - rng.randint(1, 3)
        else:
            gram[i][i] = rng.randint(0, 4)
    coeffs = [rng.randint(0, 5) for _ in range(rank)]
    return {"rank": rank, "gram": gram, "coeffs": coeffs}


def small_batch(seed: int) -> list[dict]:
    """Many tiny problems: slope profiles and pairing matrices."""
    rng = random.Random(f"small-batch/{seed}")
    pool = POOL_ROUNDS["small-batch"]
    slopes = []
    for _ in range(SLOPE_PER_ROUND * pool):
        pieces = _profile(rng)
        rank = sum(r for r, _ in pieces)
        k = rng.randint(1, rank - 1)
        a = Fraction(rng.randint(0, 10), rng.randint(1, 3))
        b = Fraction(rng.randint(0, 10), rng.randint(1, 3))
        slopes.append({"pieces": pieces, "k": k, "a": a, "b": b})
    rungs = [{"label": "slope", "per_round": SLOPE_PER_ROUND, "instances": slopes}]
    for rank in sorted(set(PAIRING_RANKS)):
        per_round = PAIRING_RANKS.count(rank)
        rungs.append({"label": f"pair{rank}", "per_round": per_round,
                      "instances": [_pairing(rng, rank) for _ in range(per_round * pool)]})
    return rungs


GENERATORS = {"decompose-ladder": ladder, "cone-convert": cones, "small-batch": small_batch}


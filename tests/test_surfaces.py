"""The paper's surface case, an oracle from a second engine: toric surfaces.

On a surface the movable cone of divisors is the nef cone, so the positive
part of a class alpha is Zariski's: the largest nef class P with alpha - P
pseudo-effective (Fujita, 1979).  ``zariski.decompose`` finds it by
maximizing over S(alpha), from cone data; ``negdef.decompose`` grows a
negative-definite support on a Gram matrix, as in Bauer, Caibăr and
Kennedy (2012).  Two engines, one question, different inputs.

The surfaces are toric, built from the fan of P^2 by seeded toric blow-ups,
each inserting v_i + v_{i+1} between two adjacent rays.  The invariant
curves D_i have D_i^2 = -a_i, where v_{i-1} + v_{i+1} = a_i v_i, and
D_i . D_{i+1} = 1.  Every negative curve of a toric surface is invariant, so
the Gram matrix holds every curve the support growth needs.  A class's
coordinates are its pairings with n - 2 invariant curves whose Gram rows are
independent; eff is generated by the D_i, and mov = nef = {x : x . D_j >= 0}.

The larger surfaces, of dimensions 5..8, also carry two of
``test_metamorphic``'s relations on classes that are not movable:
homogeneity, P(k alpha) = k P(alpha), and the change of lattice basis,
P(U alpha) = U P(alpha) for a seeded U in GL(n, Z).
"""

import random

from cyclecones.cones import PolyCone
from cyclecones.linalg import combine, mat_rank, solve_unique, violated
from cyclecones.negdef import PairingBasis, decompose as grow_support
from cyclecones.vectors import ClassVector
from cyclecones.zariski import cone_geometry, decompose

from test_metamorphic import FACTORS, _apply, _unimodular

P2 = ((1, 0), (0, 1), (-1, -1))


def blow_up(rays, i):
    """The fan with v_i + v_{i+1} inserted after ray i, cyclically."""
    (a, b), (c, d) = rays[i], rays[(i + 1) % len(rays)]
    return rays[: i + 1] + ((a + c, b + d),) + rays[i + 1:]


def pull_back(coeffs, i):
    """pi^* of sum x_j D_j under ``blow_up(rays, i)``: D_i and D_{i+1} pull
    back to their strict transforms plus E, so E's coefficient is x_i + x_{i+1}."""
    return (*coeffs[: i + 1], coeffs[i] + coeffs[(i + 1) % len(coeffs)], *coeffs[i + 1:])


def random_fan(rng, blow_ups):
    rays = P2
    for _ in range(blow_ups):
        rays = blow_up(rays, rng.randrange(len(rays)))
    return rays


def gram(rays):
    """The intersection matrix of the invariant curves of a fan with n >= 4 rays."""
    n = len(rays)
    matrix = [[0] * n for _ in range(n)]
    for i, v in enumerate(rays):
        (a, b), (c, d) = rays[i - 1], rays[(i + 1) % n]
        k = 0 if v[0] else 1
        a_i = ((a, b)[k] + (c, d)[k]) // v[k]
        assert (a + c, b + d) == (a_i * v[0], a_i * v[1])
        matrix[i][i] = -a_i
        matrix[i][i - 1] = matrix[i - 1][i] = 1
    return matrix


def surface(rays, name):
    """``(geometry, objective, coords, pairing)``: the cone data of the fan's
    surface, a degree functional, each D_i's coordinates, and its Gram matrix."""
    g = gram(rays)
    n = len(rays)
    chosen = []
    for i in range(n):
        if mat_rank([g[j] for j in (*chosen, i)]) > len(chosen):
            chosen.append(i)
    assert len(chosen) == n - 2 == mat_rank(g)
    coords = [tuple(row[j] for j in chosen) for row in g]
    # x . D_j = sum_k c_k (x . B_k), where D_j = sum_k c_k B_k over the chosen B_k
    inner = [[g[a][b] for b in chosen] for a in chosen]
    nef = [solve_unique(inner, [g[k][j] for k in chosen]) for j in range(n)]
    basis = f"surface.{name}"
    eff = PolyCone.from_generators(basis, coords, dual=f"{basis}*")
    mov = PolyCone.from_inequalities(basis, nef, dim=n - 2, dual=f"{basis}*")
    geometry = cone_geometry(name, mov, eff)
    # the sum of eff's facets is positive on every nonzero class of eff (salience)
    objective = ClassVector(f"{basis}*", tuple(map(sum, zip(*geometry.eff.inequality_rows()))))
    return geometry, objective, coords, PairingBasis(tuple(f"D{i}" for i in range(n)), g)


# surface seeds 0..20: 1 + seed % 7 blow-ups, so ranks 4..10 (dimensions
# 2..8); ten classes each, coefficients 0..3 on the D_i
TWO_ENGINE_SURFACES, TWO_ENGINE_CLASSES = 21, 10


def test_two_engines_agree_on_toric_surfaces():
    not_movable = 0
    for seed in range(TWO_ENGINE_SURFACES):
        rng = random.Random(seed)
        rays = random_fan(rng, 1 + seed % 7)
        geometry, objective, coords, pairing = surface(rays, f"s{seed}")
        for _ in range(TWO_ENGINE_CLASSES):
            x = [rng.randint(0, 3) for _ in rays]
            alpha = ClassVector(geometry.basis, combine(x, coords, geometry.dim))
            dec = decompose(geometry, alpha, objective)
            image = combine(grow_support(pairing, x).positive.coords, coords, geometry.dim)
            assert dec.positive.coords == image, (seed, x)
            assert dec.metadata["positive_part_status"] == "certified-preceq-maximum", (seed, x)
            not_movable += violated(geometry.mov.inequality_rows(), alpha.coords) is not None
    assert not_movable >= 150  # of 210: most classes take the polytope route


# surface seeds 1000..1039: 1..7 blow-ups each (ranks 4..10), then ten
# (class, blown-up point) pairs per surface, coefficients 0..3
BLOW_UP_SURFACES, BLOW_UPS = 40, 10


def test_negative_part_pulls_back_under_a_blow_up():
    # N(pi^* alpha) = pi^* N(alpha): pi^* P is nef and orthogonal to E and to
    # the strict transforms, and pi^* N has a negative-definite support, so
    # uniqueness of the Zariski decomposition gives the pulled-back split
    nonzero = 0
    for seed in range(1000, 1000 + BLOW_UP_SURFACES):
        rng = random.Random(seed)
        rays = random_fan(rng, rng.randint(1, 7))
        labels = tuple(f"D{i}" for i in range(len(rays) + 1))
        pairing = PairingBasis(labels[:-1], gram(rays))
        for _ in range(BLOW_UPS):
            x = [rng.randint(0, 3) for _ in rays]
            i = rng.randrange(len(rays))
            negative = grow_support(pairing, x).negative.coords
            up = PairingBasis(labels, gram(blow_up(rays, i)))
            pulled = grow_support(up, pull_back(x, i)).negative.coords
            assert pulled == pull_back(negative, i), (seed, x, i)
            nonzero += any(negative)
    assert nonzero >= 250  # of 400


# surface seeds 3000..3007: 4 + seed % 4 blow-ups, so ranks 7..10
# (dimensions 5..8), twice each; then, from the same rng, the first
# LARGE_CLASSES distinct classes with coefficients 0..3 that are not
# movable, and after them the change of basis U (test_metamorphic's rule)
LARGE_SURFACES, LARGE_CLASSES = 8, 4


def _large_surfaces():
    for seed in range(3000, 3000 + LARGE_SURFACES):
        rng = random.Random(seed)
        rays = random_fan(rng, 4 + seed % 4)
        geometry, objective, coords, _ = surface(rays, f"l{seed}")
        classes = []
        while len(classes) < LARGE_CLASSES:
            alpha = ClassVector(geometry.basis, combine(
                [rng.randint(0, 3) for _ in rays], coords, geometry.dim))
            if violated(geometry.mov.inequality_rows(), alpha.coords) is not None and alpha not in classes:
                classes.append(alpha)
        yield rng, geometry, objective, classes


def test_positive_part_is_homogeneous_on_larger_surfaces():
    dims = set()
    for _, geometry, objective, classes in _large_surfaces():
        dims.add(geometry.dim)
        for alpha in classes:
            dec = decompose(geometry, alpha, objective)
            for k in FACTORS:
                scaled = decompose(geometry, alpha.scale(k), objective)
                assert scaled.positive == dec.positive.scale(k), (geometry.name, alpha, k)
                assert scaled.metadata["positive_part_status"] == "certified-preceq-maximum"
    assert dims == {5, 6, 7, 8}


def test_positive_part_follows_a_change_of_lattice_basis_on_larger_surfaces():
    for rng, g, objective, classes in _large_surfaces():
        u, inverse = _unimodular(rng, g.dim)
        dual = [list(col) for col in zip(*inverse)]  # U^-T
        basis = f"{g.basis}.U"

        def mapped(cone):
            return PolyCone.from_generators(
                basis, [_apply(u, v.coords) for v in cone.generators], dim=g.dim)

        h = cone_geometry(f"{g.name}.U", mapped(g.mov), mapped(g.eff),
                          ClassVector(f"{basis}*", _apply(dual, objective.coords)))
        for alpha in classes:
            dec = decompose(g, alpha, objective)
            moved = decompose(h, ClassVector(basis, _apply(u, alpha.coords)))
            assert moved.positive.coords == _apply(u, dec.positive.coords), (g.name, u, alpha)
            for key in ("objective_value", "positive_part_status"):
                assert moved.metadata[key] == dec.metadata[key], (g.name, u, alpha, key)

"""Metamorphic relations from the paper's definitions.

The positive part P(α) is the ⪯-maximum of the movable classes that α
dominates, read off through the cones alone, and a negative-definite
splitting is unique.  A cone's canonical form is fixed by the cone, and
none of these facts depends on the lattice basis.  So five relations must
hold whatever the engines do, and none of them shares a code path with an
engine:

- homogeneity: P(kα) = k·P(α), with the same status, for k > 0;
- input order: shuffled mov and eff generator lists give byte-identical
  ``decompose`` JSON;
- relabelling: permuting a pairing's labels permutes the ``bck``
  decomposition;
- permuted rows: ``dd_convert`` of a cone's rows in another order gives
  the same canonical generators and inequalities, in the same order;
- change of lattice basis: for U in GL(n, Z), mov and eff mapped by U and
  the objective by U^-T, facets map by U^-T, membership verdicts, the
  optimal value and the verdict stay, and P(Uα) = U·P(α) where the optimum
  is unique; otherwise the optimal face's vertices map by U.

Classes are drawn by one seeded rule: for the geometry at index i of
``GEOMETRIES``, ``random.Random(1000 + i)`` draws weights 0..5 for the
fixture's eff generators, and the first ``CLASSES`` distinct nonzero sums
are the classes.  Pairings are drawn from ``random.Random(2000)``.  The
cones are the first ``CONES_PER_RUNG`` of each rung of the benchmark's
seed-1 ``cone-convert`` workload, their rows permuted by
``random.Random(4000)``.  For the geometry at index i, the change of basis
U is ``BASIS_CHANGES`` products of ``ROW_OPERATIONS`` integer row
operations each, drawn from ``random.Random(5000 + i)``.
"""

import json
import random
from fractions import Fraction

import pytest

from cyclecones import fixtures, negdef
from cyclecones.cli import run
from cyclecones.cones import PolyCone, contains, dd_convert
from cyclecones.rationals import rat, rat_str
from cyclecones.vectors import ClassVector
from cyclecones.zariski import cone_geometry, decompose

from conftest import bench_inputs

GEOMETRIES = ["toric-3fold:curves", "p2-hilb2:surfaces", "p2-hilb2:curves"]
CLASSES = 20
FACTORS = (2, 3, Fraction(5, 2), Fraction(1, 3))
PAIRINGS = 60
CONES_PER_RUNG = 12
BASIS_CHANGES = 3
ROW_OPERATIONS = 8


def _raw_cones(ref):
    """The fixture's geometry and its mov and eff cones as loaded, unconverted."""
    fixture_name, geometry_id = ref.split(":")
    fixture = fixtures.load(fixture_name)
    doc = next(g for g in fixture.raw["geometries"] if g["id"] == geometry_id)
    return fixture.geometry(geometry_id), fixture.cone(doc["mov"]), fixture.cone(doc["eff"])


def _classes(index):
    g, _, eff = _raw_cones(GEOMETRIES[index])
    rng = random.Random(1000 + index)
    found = []
    while len(found) < CLASSES:
        weights = [rng.randint(0, 5) for _ in eff.generators]
        coords = tuple(sum(w * e.coords[i] for w, e in zip(weights, eff.generators))
                       for i in range(eff.dim))
        if any(coords) and coords not in found:
            found.append(coords)
    return g, [ClassVector(g.basis, c) for c in found]


def _text(vector):
    return ",".join(rat_str(c) for c in vector.coords)


def _printed(document):
    return json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("index", range(len(GEOMETRIES)), ids=GEOMETRIES)
def test_positive_part_is_homogeneous(index):
    g, classes = _classes(index)
    outside_mov = 0
    for alpha in classes:
        dec = decompose(g, alpha)
        status = dec.metadata["positive_part_status"]
        for k in FACTORS:
            scaled = decompose(g, alpha.scale(k))
            assert scaled.positive == dec.positive.scale(k), (alpha, k)
            assert scaled.metadata["positive_part_status"] == status, (alpha, k)
        outside_mov += not dec.negative.is_zero()
    assert outside_mov  # some classes take the polytope, not the movable shortcut


@pytest.mark.parametrize("index", range(len(GEOMETRIES)), ids=GEOMETRIES)
def test_decompose_json_ignores_generator_order(index, tmp_path):
    ref = GEOMETRIES[index]
    g, classes = _classes(index)
    _, mov, eff = _raw_cones(ref)
    rng = random.Random(3000 + index)
    for n, alpha in enumerate(classes):
        path = tmp_path / f"shuffled-{n}.json"
        path.write_text(json.dumps({
            "name": ref,
            "basis": g.basis,
            "dim": g.dim,
            "mov": {"generators": [list(map(rat_str, v.coords))
                                   for v in rng.sample(mov.generators, len(mov.generators))]},
            "eff": {"generators": [list(map(rat_str, v.coords))
                                   for v in rng.sample(eff.generators, len(eff.generators))]},
            "objective": list(map(rat_str, g.degree_functional.coords)),
        }))
        outputs = [run(["decompose", "--geometry", geometry, f"--class={_text(alpha)}"])
                   for geometry in (ref, str(path))]
        assert outputs[0][1] == 0
        assert _printed(outputs[0]) == _printed(outputs[1]), alpha


def _pairing(rng):
    rank = rng.randint(1, 6)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = rng.randint(-5, 3)
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(0, 2)
    labels = tuple(f"C{i}" for i in range(rank))
    coeffs = tuple(rng.randint(0, 5) for _ in range(rank))
    return negdef.PairingBasis(labels, tuple(map(tuple, gram))), coeffs


def _permuted(document, basis, perm):
    """``document``, the JSON of a decomposition over ``basis``, as the
    decomposition over the basis whose label j is ``basis.labels[perm[j]]``."""
    def vector(values):
        return [values[p] for p in perm]

    support = [j for j, p in enumerate(perm) if p in document["metadata"]["support"]]
    facts = {c["fact"]: c for c in document["certificates"]}
    return {
        "basis": "pairing[" + ",".join(basis.labels[p] for p in perm) + "]",
        "input": vector(document["input"]),
        "positive": vector(document["positive"]),
        "negative": vector(document["negative"]),
        "certificates": [
            {"fact": "positive-pairings-nonnegative",
             "values": vector(facts["positive-pairings-nonnegative"]["values"])},
            {"fact": "orthogonal-on-support", "support": [basis.labels[perm[j]] for j in support]},
            {"fact": "support-negative-definite",
             "submatrix": [[rat_str(basis.gram[perm[a]][perm[b]]) for b in support]
                           for a in support]},
        ],
        "metadata": {"support": support},
    }


def test_bck_decomposition_follows_a_relabelling():
    rng = random.Random(2000)
    supported = 0
    for _ in range(PAIRINGS):
        basis, coeffs = _pairing(rng)
        perm = rng.sample(range(basis.rank), basis.rank)
        relabelled = negdef.PairingBasis(
            tuple(basis.labels[p] for p in perm),
            tuple(tuple(basis.gram[p][q] for q in perm) for p in perm),
        )
        before = negdef.decompose(basis, coeffs).to_json()
        after = negdef.decompose(relabelled, tuple(coeffs[p] for p in perm)).to_json()
        assert after == _permuted(before, basis, perm), (basis, coeffs, perm)
        supported += bool(before["metadata"]["support"])
    assert supported == 47  # the other 13 classes pair nonnegatively already


def test_dd_convert_ignores_row_order():
    # the first CONES_PER_RUNG cones of each rung of the seed-1 cone-convert
    # workload: random in dimension 6, over cyclic polytopes in dimensions 7
    # and 8, each given by generators and by inequalities
    rng = random.Random(4000)
    cases = 0
    for rung in bench_inputs().cones(1):
        basis = f"perm{rung['dim']}"
        build = (PolyCone.from_generators if rung["kind"] == "generators"
                 else PolyCone.from_inequalities)
        for inst in rung["instances"][:CONES_PER_RUNG]:
            rows = inst["rows"]
            permuted = rng.sample(rows, len(rows))
            assert permuted != rows
            want, got = (dd_convert(build(basis, r)) for r in (rows, permuted))
            assert got.generators == want.generators, (rung["label"], rows, permuted)
            assert got.inequalities == want.inequalities, (rung["label"], rows, permuted)
            cases += 1
    assert cases == 6 * CONES_PER_RUNG


def _unimodular(rng, n):
    """U and U^-1, integer n×n: ROW_OPERATIONS steps of adding k·row j to
    row i, or of negating a row, applied to the identity; each step's
    inverse is applied to U^-1 on the right."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in u]
    for _ in range(ROW_OPERATIONS):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2, 0))
        if k:
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
            for row in inverse:  # column j minus k·column i
                row[j] -= k * row[i]
        else:
            u[i] = [-a for a in u[i]]
            for row in inverse:
                row[i] = -row[i]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in u] == (
        [[int(i == j) for j in range(n)] for i in range(n)])
    return u, inverse


def _apply(matrix, coords):
    return tuple(sum(a * x for a, x in zip(row, coords)) for row in matrix)


@pytest.mark.parametrize("index", range(2), ids=GEOMETRIES[:2])
def test_decomposition_follows_a_change_of_lattice_basis(index):
    g, classes = _classes(index)
    _, mov, eff = _raw_cones(GEOMETRIES[index])
    rng = random.Random(5000 + index)
    several = outside_mov = 0
    for n in range(BASIS_CHANGES):
        u, inverse = _unimodular(rng, g.dim)
        dual = [list(col) for col in zip(*inverse)]  # U^-T
        basis = f"{g.basis}.U{n}"

        def mapped(cone):
            return PolyCone.from_generators(
                basis, [_apply(u, v.coords) for v in cone.generators], dim=g.dim
            )

        h = cone_geometry(f"{g.name}.U{n}", mapped(mov), mapped(eff),
                          ClassVector(f"{basis}*", _apply(dual, g.degree_functional.coords)))
        for before, after in ((g.mov, h.mov), (g.eff, h.eff)):
            assert {l.coords for l in after.inequalities} == {
                _apply(dual, l.coords) for l in before.inequalities}
        for alpha in classes:
            image = ClassVector(basis, _apply(u, alpha.coords))
            for before, after in ((g.mov, h.mov), (g.eff, h.eff)):
                verdict = contains(after, image)
                assert bool(verdict) == bool(contains(before, alpha)) and verdict.verify()
            dec, moved = decompose(g, alpha), decompose(h, image)
            for key in ("objective_value", "positive_part_status", "optimum_unique"):
                assert moved.metadata[key] == dec.metadata[key], (u, alpha, key)
            face = [tuple(map(rat, v)) for v in dec.metadata["optimal_face"]]
            assert {tuple(map(rat, v)) for v in moved.metadata["optimal_face"]} == {
                _apply(u, v) for v in face}
            if dec.metadata["optimum_unique"]:
                assert moved.positive.coords == _apply(u, dec.positive.coords), (u, alpha)
            else:
                several += 1
            outside_mov += not dec.negative.is_zero()
    # cases (of 60) whose optimal face has several vertices, and whose class
    # is not movable, so that decompose builds its polytope
    assert (several, outside_mov) == [(9, 60), (0, 45)][index]

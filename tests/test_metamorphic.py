"""Metamorphic relations from the paper's definitions.

The positive part P(α) is the ⪯-maximum of the movable classes that α
dominates, read off through the cones alone, and a negative-definite
splitting is unique.  So three relations must hold whatever the engines
do, and none of them shares a code path with an engine:

- homogeneity: P(kα) = k·P(α), with the same status, for k > 0;
- input order: shuffled mov and eff generator lists give byte-identical
  ``decompose`` JSON;
- relabelling: permuting a pairing's labels permutes the ``bck``
  decomposition.

Classes are drawn by one seeded rule: for the geometry at index i of
``GEOMETRIES``, ``random.Random(1000 + i)`` draws weights 0..5 for the
fixture's eff generators, and the first ``CLASSES`` distinct nonzero sums
are the classes.  Pairings are drawn from ``random.Random(2000)``.
"""

import json
import random
from fractions import Fraction

import pytest

from cyclecones import fixtures, negdef
from cyclecones.cli import run
from cyclecones.rationals import rat_str
from cyclecones.vectors import ClassVector
from cyclecones.zariski import decompose

GEOMETRIES = ["toric-3fold:curves", "p2-hilb2:surfaces", "p2-hilb2:curves"]
CLASSES = 20
FACTORS = (2, 3, Fraction(5, 2), Fraction(1, 3))
PAIRINGS = 60


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

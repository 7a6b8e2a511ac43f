import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclecones
from cyclecones import negdef, projbundle, zariski
from cyclecones.decomposition import Certificate, Decomposition
from cyclecones.errors import CycleConesError
from cyclecones.vectors import ClassVector

from conftest import bench_ladder_pool, bench_small_batch_pool

INCONSISTENT = (
    "from cyclecones.decomposition import Decomposition\n"
    "from cyclecones.vectors import ClassVector\n"
    "v = lambda *c: ClassVector('dc2', c)\n"
    "Decomposition(input=v(1, 1), positive=v(1, 0), negative=v(5, 5))\n"
)


def test_inconsistent_split_rejected():
    with pytest.raises(CycleConesError) as err:
        Decomposition(
            input=ClassVector("dc2", (1, 1)),
            positive=ClassVector("dc2", (1, 0)),
            negative=ClassVector("dc2", (5, 5)),
        )
    assert err.value.details["negative"] == ["5", "5"]


def test_inconsistent_split_rejected_under_optimize_flag():
    # -O strips assert statements, so the check must be an explicit raise
    src = str(Path(cyclecones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", INCONSISTENT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "inconsistent decomposition" in result.stderr


def _leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_certificate_data_are_exact_numbers_in_every_engine():
    # the ladder and small-batch pools of the benchmark, seeds 1 and 7919:
    # every certificate leaf of every engine is an int or a Fraction, or a
    # label of negdef's support; to_json prints each number by rat_str
    records = []
    for seed in (1, 7919):
        records += [(zariski.decompose(g, alpha), ()) for g, alpha in bench_ladder_pool(seed)]
        slopes, pairings = bench_small_batch_pool(seed)
        records += [(projbundle.zariski_decompose(*case), ()) for case in slopes]
        for basis, coeffs in pairings:
            for route in (negdef.decompose, negdef.brute_force):
                records.append((route(basis, coeffs), basis.labels))
    numbers = 0
    for dec, labels in records:
        assert dec.certificates
        for cert in dec.certificates:
            for leaf in _leaves(cert.data):
                if isinstance(leaf, str):
                    assert leaf in labels, (cert.fact, leaf)
                else:
                    assert type(leaf) is int or type(leaf) is Fraction, (cert.fact, leaf)
                    numbers += 1
        assert all(isinstance(leaf, str) for leaf in _leaves(dec.to_json()["certificates"]))
    assert len(records) > 1000 and numbers > 10_000


def test_to_json_prints_certificate_numbers_and_keeps_metadata_as_built():
    v = lambda *c: ClassVector("dc2", c)
    dec = Decomposition(
        v(1, 1), v(1, 0), v(0, 1),
        (Certificate("fact", {"n": [0, Fraction(-3, 4), 7], "flag": True, "label": "a"}),),
        {"support": [0, 1], "unique": True, "objective": ["1/2"]},
    )
    assert json.dumps(dec.to_json(), sort_keys=True) == json.dumps({
        "basis": "dc2", "input": ["1", "1"], "positive": ["1", "0"], "negative": ["0", "1"],
        "certificates": [{"fact": "fact", "n": ["0", "-3/4", "7"], "flag": True, "label": "a"}],
        "metadata": {"support": [0, 1], "unique": True, "objective": ["1/2"]},
    }, sort_keys=True)

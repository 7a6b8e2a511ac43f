"""Each result depends only on its inputs, never on what ran before it."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cyclecones.cli import main
from cyclecones.cones import PolyCone, dual_cone
from cyclecones.fixtures import load
from cyclecones.jsonio import geometry_from_json

from conftest import TORIC_C

ROOT = Path(__file__).resolve().parents[1]


def fresh_process(argv):
    """Exit code and stdout of one command in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cyclecones", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    return done.returncode, done.stdout


def test_cli_results_do_not_depend_on_call_order(tmp_path, monkeypatch, capsys):
    cone = tmp_path / "mori.json"
    rows = [[str(x) for x in row] for row in TORIC_C]
    cone.write_text(json.dumps({"basis": "toric3.curves", "generators": rows}))
    dual = ("cone", "dual", "--input", str(cone))
    decompose = ("decompose", "--geometry", "toric-3fold:curves")
    decompose += ("--class", "1,1,0,1,2")
    expected = {argv: fresh_process(argv) for argv in (dual, decompose)}
    assert expected[decompose][0] == 0
    assert '"basis": "toric3.curves*"' in expected[dual][1]

    monkeypatch.chdir(ROOT)
    for order in ((dual, decompose), (decompose, dual)):
        for argv in order:
            code = main(list(argv))
            assert (code, capsys.readouterr().out) == expected[argv]


def test_one_basis_name_in_two_dimensions():
    for dim in (2, 3):
        unit = [[str(int(i == j)) for j in range(dim)] for i in range(dim)]
        doc = {
            "basis": "demo",
            "dim": dim,
            "mov": {"generators": unit},
            "eff": {"generators": unit},
            "objective": ["1"] * dim,
        }
        assert geometry_from_json(doc).dim == dim


def test_dual_cone_before_fixture_load():
    mori = PolyCone.from_generators("toric3.curves", TORIC_C)
    assert dual_cone(mori).basis == "toric3.curves*"
    geometry = load("toric-3fold").geometry("curves")
    assert (geometry.basis, geometry.eff.dual) == ("toric3.curves", "toric3.divisors")

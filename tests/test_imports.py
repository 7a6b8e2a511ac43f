"""Import footprint: a command loads only the modules it runs, and the
package keeps its public names while importing none of them up front."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecones

ROOT = Path(__file__).resolve().parents[1]

# runs one command in-process, then prints the cyclecones modules it loaded
LOADED_AFTER = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from cyclecones.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        raise SystemExit(f"exit {code}")
else:
    import cyclecones
print(json.dumps(sorted(m for m in sys.modules if m.startswith("cyclecones."))))
"""


def loaded_submodules(argv):
    """``cyclecones.*`` module names a fresh interpreter holds after ``argv``
    (after a bare ``import cyclecones`` when ``argv`` is empty)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("cyclecones.") for name in json.loads(done.stdout)}


def test_import_cyclecones_loads_no_submodule():
    assert loaded_submodules([]) == set()


def test_cone_convert_loads_only_the_cone_layer():
    loaded = loaded_submodules(
        ["cone", "convert", "--input", "bench/data/cone-gens.json"]
    )
    assert "cones" in loaded
    assert not loaded & {
        "fixtures",
        "zariski",
        "polytope",
        "negdef",
        "rings",
        "ringexpr",
        "projbundle",
        "section_plot",
    }


def test_decompose_on_a_fixture_loads_no_ring_or_pairing_code():
    loaded = loaded_submodules(
        ["decompose", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]
    )
    assert {"fixtures", "zariski"} <= loaded
    assert not loaded & {"rings", "negdef", "projbundle", "section_plot"}


ALL_NAMES = [
    "Certificate",
    "ClassVector",
    "ConeGeometry",
    "CycleConesError",
    "Decomposition",
    "DirectednessReport",
    "DomainError",
    "HNProfile",
    "InputError",
    "PairingBasis",
    "PolyCone",
    "RationalPolytope",
    "RingPresentation",
    "brute_force",
    "cone_geometry",
    "consistency_audit",
    "contains",
    "dd_convert",
    "decompose",
    "decomposition_polytope",
    "dual_cone",
    "extremal_rays",
    "is_negative_definite",
    "is_salient",
    "maximize_linear",
    "negative_boundary_check",
    "preceq_maximum",
    "vertex_enumeration",
]


def test_public_names_are_their_home_modules_objects():
    assert cyclecones.__all__ == ALL_NAMES
    for name in cyclecones.__all__:
        value = getattr(cyclecones, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("cyclecones."), name
        assert vars(home)[name] is value, name
    assert set(cyclecones.__all__) <= set(dir(cyclecones))
    assert {"FIXTURE_NAMES", "__version__"} <= set(dir(cyclecones))


def test_public_names_follow_their_home_module(monkeypatch):
    # nothing is cached on the package: replacing a function at home replaces it here
    from cyclecones import zariski

    def replacement(*args):
        return "replaced"

    monkeypatch.setattr(zariski, "decompose", replacement)
    assert cyclecones.decompose is replacement
    assert "decompose" not in vars(cyclecones)


def test_star_import_and_submodule_import():
    namespace = {}
    exec("from cyclecones import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    namespace = {}
    exec("from cyclecones import cones", namespace)
    assert namespace["cones"] is sys.modules["cyclecones.cones"]


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        cyclecones.frobnicate
    assert not hasattr(cyclecones, "FIXTURE")
    from cyclecones import cli

    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        cli.frobnicate
    from cyclecones import negdef

    assert cli.negdef_brute_force is negdef.brute_force

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecones
from cyclecones.decomposition import Decomposition
from cyclecones.errors import CycleConesError
from cyclecones.vectors import ClassVector

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

"""The README's library tour runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs_with_warnings_as_errors():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", tour],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # integral coordinates print as ints
    assert "(1, 1) (2, 0)" in done.stdout.splitlines(), done.stdout

"""The cli-fixtures workload: README commands as sequential subprocesses.

Each invocation's exit code and a SHA-256 digest of its stdout must match
``reference/cli.json``, frozen from commit 866b767; the fixture commands
are required to stay byte-identical.  Refresh the reference only for an
intended output change, with ``python3 bench/cli_fixtures.py --freeze``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / "cli.json"

COMMANDS = (
    ("decompose-toric", ["decompose", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]),
    ("directed-toric", ["directed", "--geometry", "toric-3fold:curves", "--class", "1,1,0,1,2"]),
    ("decompose-hilb", ["decompose", "--geometry", "p2-hilb2:surfaces", "--class", "1,0,1"]),
    ("directed-hilb", ["directed", "--geometry", "p2-hilb2:surfaces", "--class", "1,0,1"]),
    ("fixture-toric", ["fixture", "toric-3fold", "--verify"]),
    ("fixture-hilb", ["fixture", "p2-hilb2", "--verify"]),
    ("fixture-m07", ["fixture", "m07-s7", "--verify"]),
    ("fixture-projbundle", ["fixture", "projbundle-sample", "--verify"]),
    ("projbundle", ["projbundle", "--hn", "2:0,2:2", "--k", "2", "--class", "2,-3"]),
    ("ring-eval", ["ring", "eval", "--fixture", "p2-hilb2", "--expr", "S3*E"]),
    ("ring-pair", ["ring", "pair", "--fixture", "m07-s7", "--a", "(D1+3*D2)^2", "--b", "S1"]),
    ("bck", ["bck", "--gram", "bench/data/gram.json", "--class", "1,2,0,3,1,2", "--brute-force"]),
    ("cone-convert", ["cone", "convert", "--input", "bench/data/cone-gens.json"]),
    ("cone-dual", ["cone", "dual", "--input", "bench/data/cone-ineqs.json"]),
    ("cone-rays", ["cone", "rays", "--input", "bench/data/cone-ineqs.json"]),
    ("cone-contains-in", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                          "--vector", "1,1,1,1,7"]),
    ("cone-contains-out", ["cone", "contains", "--input", "bench/data/cone-gens.json",
                           "--vector", "1,1,0,1,2"]),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CYCLECONES_FIXTURE_DIR", None)  # built-in fixtures only
    return env


def untraced_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cyclecones", *args]


def traced_argv(args: list[str], summary_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "cli_child.py"), str(summary_path), "--", *args]


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def check(reference: dict, label: str, returncode: int, stdout: bytes) -> str:
    """The digest of a matching invocation; raises ValueError on mismatch."""
    expected = reference[label]
    got = stdout_digest(stdout)
    if returncode != expected["exit"] or got != expected["stdout_sha256"]:
        raise ValueError(
            f"{label}: exit {returncode}, stdout {got[:12]} differ from the "
            f"reference exit {expected['exit']}, stdout {expected['stdout_sha256'][:12]}"
        )
    return got


def freeze() -> None:
    reference = {}
    for label, args in COMMANDS:
        done = subprocess.run(untraced_argv(args), cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=120)
        reference[label] = {"argv": args, "exit": done.returncode,
                            "stdout_sha256": stdout_digest(done.stdout)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        raise SystemExit("usage: python3 bench/cli_fixtures.py --freeze")
    freeze()

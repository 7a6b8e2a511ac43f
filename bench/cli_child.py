"""Run one cyclecones command with span tracing installed from outside.

Usage: python3 bench/cli_child.py SUMMARY_JSON -- <cyclecones arguments>

Times ``import cyclecones.cli``, installs the tracer, calls
``cyclecones.cli.main`` (which writes the usual JSON document to stdout)
and, when the command ends, writes the per-layer summary and the spans
to SUMMARY_JSON.  Exits with the command's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    summary_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    start = perf_counter()
    import cyclecones.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cyclecones.cli.main(args)
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "summary": tracer.summary(),
                   "names": tracer.names, "spans": tracer.span_rows()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

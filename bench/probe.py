"""One set-up of a library workload in a fresh process, for ``setup_s``.

Usage: python3 bench/probe.py WORKLOAD SEED

Imports cyclecones, builds the workload's fixed inputs through public
constructors, then prints ``ready`` and exits.  The parent times the
interval from spawning this process to reading that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import inputs
    import ops

    ops.WORKLOADS[workload]().setup(inputs.GENERATORS[workload](seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

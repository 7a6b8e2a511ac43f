"""cyclecones benchmark: four seeded, single-client, closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each exists):

* ``cli-fixtures``: the README's commands as sequential subprocesses;
* ``decompose-ladder``: ``decompose`` + ``preceq_maximum`` + ``verify`` on
  seeded random geometries in dimensions 3-6 and toric-3fold classes;
* ``cone-convert``: ``dd_convert``, ``dual_cone`` and ``contains`` on seeded
  pointed cones in dimensions 6-8 (random in 6, over cyclic polytopes in 7
  and 8), given by generators or inequalities;
* ``small-batch``: slope-profile and pairing-matrix problems, each solved
  by two independent routes.

One client issues one operation at a time.  Operations run in whole rounds
whose mix is fixed per workload; the number of rounds is ``--seconds`` over
a round's time at commit 866b767, so every run of a seed does the same
operations.  The benchmark and every process it starts run on one core.
Times are in reference seconds (``calibrate.py``): wall seconds corrected
for the machine's speed at the moment, measured by a fixed kernel between
operations.  Every result is re-verified exactly outside the timed
region; an operation that raises, exits with the wrong code or fails its
check counts in ``failed`` and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
half as many rounds untraced, then runs the same operations with
span wrappers patched onto the library's public functions (``tracing.py``),
and reports per-layer calls, self times and counts plus
``trace.overhead_ratio`` (traced over untraced operations per second); the
two passes must give identical result digests.

The last stdout line is the JSON result; a fuller record (environment,
instance shapes, tail percentile, the same metrics in wall seconds, spans)
goes to ``bench/out/``.  The
default seed is 1; seed 7919 is held out for confirming later claims.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import COMPUTE, SPAWN, Speedometer, pin_to_one_cpu
from cli_fixtures import child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("cli-fixtures", "decompose-ladder", "cone-convert", "small-batch")
DEFAULT_SEED = 1
# set-up is repeated at least 5 times and until 1.5 s are spent, at most 9
SETUP_REPEATS = (5, 9)
SETUP_BUDGET_S = 1.5
# op_tail_s is the mean of the operations beyond a percentile fixed per
# workload: the highest of 99/95/90/75/50 that has at least 10 samples
# beyond it in a 12 s run at commit 866b767.  It is fixed so that runs of
# different speed report the same percentile; a run with too few samples
# falls back to the highest grid value that has 10.  The mean of the tail,
# not the percentile itself, because a percentile that falls between two
# groups of operations of different length jumps from one to the other.
TAIL_PERCENTILE = {"cli-fixtures": 75.0, "decompose-ladder": 75.0,
                   "cone-convert": 90.0, "small-batch": 90.0}
TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# A run does a fixed number of whole rounds: --seconds over the time of
# one round in reference seconds (calibrate.py) at commit 866b767, and at
# least MIN_ROUNDS so there are enough samples for the tail.  Every run of
# a seed, on any machine and of any version of the code, then does the
# same operations, and a faster version finishes sooner.
ROUND_S = {"cli-fixtures": 3.3, "decompose-ladder": 5.3,
           "cone-convert": 0.73, "small-batch": 1.5}
MIN_ROUNDS = 3
# no operation starts, and none runs on, after this much wall time, so a
# run ends in time even when an operation becomes very slow
WALL_LIMIT_S = 140.0


class OpTimeout(Exception):
    """The run's wall-time budget ran out during an operation."""


def _expire(signum, frame):
    raise OpTimeout(f"wall-time budget of {WALL_LIMIT_S:.0f} s used up")


def remaining_s(started: float) -> float:
    return max(1.0, WALL_LIMIT_S - (perf_counter() - started))


def tail(durations: list[float], percentile: float) -> tuple[float, float, int]:
    """Mean of the durations beyond the nearest-rank ``percentile``, or
    beyond the highest grid percentile below it that keeps 10 samples
    beyond.

    Returns (value, percentile, samples beyond).
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in (q for q in TAIL_GRID if q <= percentile):
        rank = -(-int(p * n) // 100)  # ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return statistics.fmean(ordered[rank:]), p, n - rank
    return ordered[-1], 100.0, 0


def environment() -> dict:
    """Recorded, not gated: interpreter, cores, commit, src/ size."""
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_py_lines": lines,
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Ledger:
    """Wall-time intervals, failures and digests of the operations of one
    pass."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.digests: list[str | None] = []
        self.failures: list[str] = []
        self.labels: list[str] = []

    def add(self, label: str, start: float, end: float, digest: str | None,
            error: str | None):
        self.labels.append(label)
        self.intervals.append((start, end))
        self.digests.append(digest)
        if error is not None:
            self.failures.append(f"{label}: {error}")

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def reference_durations(self, speed: Speedometer) -> list[float]:
        return [speed.reference_s(start, end) for start, end in self.intervals]


def round_count(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_rounds(rounds, execute, count: int, started: float):
    """The first ``count`` rounds, or as many operations as fit in the
    wall-time budget."""
    done = []
    ledger = Ledger()
    for batch in itertools.islice(rounds, count):
        for op in batch:
            if perf_counter() - started > WALL_LIMIT_S:
                return done, ledger
            execute(op, ledger)
            done.append(op)
    return done, ledger


def replay(ops_done, execute, started: float) -> Ledger:
    ledger = Ledger()
    for op in ops_done:
        if perf_counter() - started > WALL_LIMIT_S:
            break
        execute(op, ledger)
    return ledger


# ---------------------------------------------------------------- library


def library_rounds(rungs: list[dict], seed: int):
    """Endless rounds of (rung, instance) pairs, seeded order per round."""
    rng = random.Random(f"schedule/{seed}")
    r = 0
    while True:
        batch = []
        for ri, rung in enumerate(rungs):
            pool = len(rung["instances"])
            for k in range(rung["per_round"]):
                batch.append((ri, (r * rung["per_round"] + k) % pool))
        rng.shuffle(batch)
        yield batch
        r += 1


def setup_seconds(argv_for_probe: list[str]) -> tuple[float, float]:
    """Median time from spawning a set-up process to it being ready, in
    reference seconds and in wall seconds."""
    speed = Speedometer(SPAWN)
    env = child_env()
    spans: list[tuple[float, float]] = []
    least, most = SETUP_REPEATS
    while len(spans) < least or (
            sum(b - a for a, b in spans) < SETUP_BUDGET_S and len(spans) < most):
        speed.sample()
        start = perf_counter()
        with subprocess.Popen(argv_for_probe, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed: {argv_for_probe}")
        spans.append((start, ready))
    speed.sample()
    times = [ready - start for start, ready in spans]
    reference = [speed.reference_s(start, ready) for start, ready in spans]
    return statistics.median(reference), statistics.median(times)


def run_library(args, record: dict) -> dict:
    import inputs
    import ops
    from tracing import Tracer, layer_metrics

    started = perf_counter()
    speed = Speedometer(COMPUTE)
    rungs = inputs.GENERATORS[args.workload](args.seed)
    workload = ops.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    fixed = workload.setup(rungs)
    if tracer:
        tracer.uninstall()
    shapes: dict[int, list] = {}

    def execute(op, ledger: Ledger):
        ri, ii = op
        item = fixed[ri][ii]
        error = digest = t1 = None
        speed.maybe_sample()
        signal.setitimer(signal.ITIMER_REAL, remaining_s(started))
        t0 = perf_counter()
        try:
            result = workload.op(item)
            t1 = perf_counter()
            digest = workload.check(item, result)
            shapes.setdefault(ri, []).append(workload.shape(result))
        except Exception as exc:  # raising, failing its check or timing out
            stage = "raised" if t1 is None else "check"
            error = f"{stage}: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if t1 is None:
            t1 = perf_counter()
        ledger.add(rungs[ri]["label"], t0, t1, digest, error)

    signal.signal(signal.SIGALRM, _expire)
    rounds = library_rounds(rungs, args.seed)
    if not args.trace:
        setup_s = setup_seconds([sys.executable, str(BENCH / "probe.py"),
                                 args.workload, str(args.seed)])
        done, ledger = run_rounds(rounds, execute, round_count(args.workload, args.seconds),
                                  started)
        speed.sample()
        record["shape"] = _library_shape(args.workload, rungs, shapes)
        return _end_to_end(record, ledger, speed, setup_s,
                           peak_rss_mib(resource.RUSAGE_SELF))

    done, plain = run_rounds(rounds, execute, round_count(args.workload, args.seconds / 2),
                             started)
    record["shape"] = _library_shape(args.workload, rungs, shapes)
    def traced_execute(op, ledger: Ledger):
        execute(op, ledger)
        tracer.op += 1

    tracer.op = 0
    tracer.install()
    try:
        traced = replay(done, traced_execute, started)
    finally:
        tracer.uninstall()
    speed.sample()
    record["spans"] = {"names": tracer.names, "rows": tracer.span_rows()}
    metrics = layer_metrics(tracer.summary())
    metrics["cli.import_s"] = {"value": 0.0, "unit": "s"}
    return _traced(record, plain, traced, speed, metrics)


def _library_shape(workload: str, rungs: list[dict], shapes: dict) -> list:
    """Compact per-rung record of the instances a run actually used."""
    from math import comb

    summary = []
    for ri, rung in enumerate(rungs):
        seen = shapes.get(ri, [])
        entry = {"rung": rung["label"], "ops": len(seen)}
        if workload == "decompose-ladder":
            entry["dim"] = rung["dim"]
            entry["extra_generators"] = rung["extra"]
            ms = sorted(s["m"] for s in seen)
            if ms:
                entry["inequalities"] = [ms[0], ms[-1]]
                entry["subsets_C(m,dim)"] = [comb(ms[0], rung["dim"]), comb(ms[-1], rung["dim"])]
            entry["status"] = _counts(s["status"] for s in seen)
        elif workload == "cone-convert":
            entry.update(family=rung["family"], dim=rung["dim"], input=rung["kind"],
                         input_rows=len(rung["instances"][0]["rows"]))
            for key in ("rays", "facets"):
                values = sorted(s[key] for s in seen)
                if values:
                    entry[key] = [values[0], values[-1]]
        else:
            if rung["label"] != "slope":
                entry["rank"] = rung["instances"][0]["rank"]
                entry["support_sizes"] = _counts(s["support"] for s in seen)
            else:
                entry["already_movable"] = _counts(s["movable"] for s in seen)
        summary.append(entry)
    return summary


def _counts(values) -> dict:
    return dict(Counter(str(v) for v in values))


# -------------------------------------------------------------------- CLI


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, bytes, bool]:
    """Runs ``argv`` to its end: (exit code, stdout, whether it was killed
    for running past ``timeout``).  A timer thread does the killing, so the
    wait itself blocks instead of polling in sleeps of up to 50 ms."""
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return proc.returncode, stdout, killed.is_set()


def run_cli(args, record: dict) -> dict:
    import cli_fixtures as cf
    from tracing import combine, layer_metrics

    started = perf_counter()
    speed = Speedometer(SPAWN)
    reference = cf.load_reference()
    env = cf.child_env()
    commands = dict(cf.COMMANDS)
    rng = random.Random(f"cli-fixtures/{args.seed}")

    def rounds():
        while True:
            batch = [label for label, _ in cf.COMMANDS]
            rng.shuffle(batch)
            yield batch

    workdir = tempfile.mkdtemp(prefix="trace-", dir=OUT)
    summaries = []
    invocations = itertools.count()

    def execute(label, ledger: Ledger, traced: bool = False):
        summary_path = Path(workdir) / f"{next(invocations)}.json"
        argv = (cf.traced_argv(commands[label], summary_path) if traced
                else cf.untraced_argv(commands[label]))
        error = digest = None
        speed.maybe_sample()
        t0 = perf_counter()
        returncode, stdout, timed_out = run_child(argv, env, min(120.0, remaining_s(started)))
        t1 = perf_counter()
        if timed_out:
            error = "timed out"
        else:
            try:
                digest = cf.check(reference, label, returncode, stdout)
            except ValueError as exc:
                error = str(exc)
        if traced and summary_path.is_file():
            with open(summary_path, encoding="utf-8") as handle:
                summaries.append(json.load(handle))
            summary_path.unlink()
        elif traced and error is None:
            error = "traced run wrote no summary"
        ledger.add(label, t0, t1, digest, error)

    try:
        if not args.trace:
            setup_s = setup_seconds(
                [sys.executable, "-c", "import cyclecones.cli; print('ready', flush=True)"])
            _, ledger = run_rounds(rounds(), execute,
                                   round_count(args.workload, args.seconds), started)
            speed.sample()
            record["shape"] = [{"command": label, "argv": argv} for label, argv in cf.COMMANDS]
            return _end_to_end(record, ledger, speed, setup_s,
                               peak_rss_mib(resource.RUSAGE_CHILDREN))

        done, plain = run_rounds(rounds(), execute,
                                 round_count(args.workload, args.seconds / 2), started)
        traced = replay(done, lambda label, ledger: execute(label, ledger, traced=True), started)
        speed.sample()
    finally:
        for leftover in Path(workdir).iterdir():
            leftover.unlink()
        os.rmdir(workdir)
    record["shape"] = [{"command": label, "argv": argv} for label, argv in cf.COMMANDS]
    record["spans"] = [{"names": s["names"], "rows": s["spans"]} for s in summaries]
    metrics = layer_metrics(combine([s["summary"] for s in summaries]))
    metrics["cli.import_s"] = {
        "value": statistics.median(s["import_s"] for s in summaries), "unit": "s"}
    return _traced(record, plain, traced, speed, metrics)


# ---------------------------------------------------------------- results


def _times(durations: list[float], percentile: float, setup_s: float) -> dict:
    value, _, _ = tail(durations, percentile)
    return {"op_p50_s": statistics.median(durations), "op_tail_s": value,
            "ops_per_s": len(durations) / sum(durations), "setup_s": setup_s}


def _end_to_end(record: dict, ledger: Ledger, speed: Speedometer,
                setup_s: tuple[float, float], rss_mib: float) -> dict:
    """End-to-end metrics in reference seconds (``calibrate.py``); the
    record keeps the same metrics in wall seconds beside them."""
    durations = ledger.reference_durations(speed)
    percentile = TAIL_PERCENTILE[record["workload"]]
    _, used, beyond = tail(durations, percentile)
    n = len(durations)
    record["tail"] = {"percentile": used, "samples_beyond": beyond, "samples": n,
                      "value_at_percentile_s": sorted(durations)[max(0, n - beyond - 1)]}
    record["failures"] = ledger.failures[:20]
    record["ops"] = [[label, d, w] for label, d, w in
                     zip(ledger.labels, durations, ledger.durations)]
    record["failed_op_ratio"] = len(ledger.failures) / n
    record["wall"] = _times(ledger.durations, percentile, setup_s[1])
    record["ops_wall_s"] = sum(ledger.durations)
    record["kernel_s"] = {"samples": len(speed.kernel_s),
                          "min": min(speed.kernel_s), "max": max(speed.kernel_s)}
    units = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "setup_s": "s"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in _times(durations, percentile, setup_s[0]).items()}
    metrics["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    return {"correct": not ledger.failures, "attempted": n,
            "failed": len(ledger.failures), "metrics": metrics}


def _traced(record: dict, plain: Ledger, traced: Ledger, speed: Speedometer,
            metrics: dict) -> dict:
    mismatched = [
        label for label, a, b in zip(plain.labels, plain.digests, traced.digests) if a != b
    ]
    failures = plain.failures + traced.failures + [
        f"{label}: traced result digest differs from untraced" for label in mismatched
    ]
    if len(traced.labels) < len(plain.labels):
        failures.append("traced pass cut short by the wall-time budget")
    record["failures"] = failures[:20]
    metrics["trace.overhead_ratio"] = {
        "value": sum(plain.reference_durations(speed)) / sum(traced.reference_durations(speed)),
        "unit": "ratio"}
    attempted = len(plain.durations) + len(traced.durations)
    failed = len(failures)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_started = perf_counter()
    if not (SRC / "cyclecones" / "__init__.py").is_file():
        print(f"bench: no cyclecones sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    runner = run_cli if args.workload == "cli-fixtures" else run_library
    result = runner(args, record)
    record["result"] = result
    record["run_wall_s"] = perf_counter() - run_started
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=str) + "\n")
    print(f"bench: environment {json.dumps(record['environment'])}")
    if "tail" in record:
        print(f"bench: tail percentile {json.dumps(record['tail'])}")
    print(f"bench: record in {(OUT / (stem + '.json')).relative_to(ROOT)}")
    for failure in record.get("failures", [])[:5]:
        print(f"bench: FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

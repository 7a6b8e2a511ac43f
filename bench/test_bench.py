"""Tests of the benchmark itself: seeded inputs, checkers, tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import cli_fixtures  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from cyclecones import cli, negdef, polytope, zariski  # noqa: E402
from cyclecones.decomposition import Certificate  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def first(workload, rung_label, seed=3, count=1):
    """Set-up items of one rung, plus the workload object."""
    rungs = inputs.GENERATORS[workload](seed)
    index = next(i for i, r in enumerate(rungs) if r["label"] == rung_label)
    rung = dict(rungs[index], instances=rungs[index]["instances"][:count])
    work = ops.WORKLOADS[workload]()
    return work, work.setup([rung])[0]


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    generate = inputs.GENERATORS[workload]
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


def test_round_order_is_deterministic_and_keeps_the_mix():
    rungs = inputs.ladder(2)
    a, b = run.library_rounds(rungs, 9), run.library_rounds(rungs, 9)
    first_rounds = [next(a) for _ in range(3)]
    assert first_rounds == [next(b) for _ in range(3)]
    for batch in first_rounds:
        assert sorted(ri for ri, _ in batch) == sorted(
            ri for ri, rung in enumerate(rungs) for _ in range(rung["per_round"]))


def test_round_count_is_fixed_by_seconds_alone():
    assert run.round_count("cli-fixtures", 2 * run.ROUND_S["cli-fixtures"]) == run.MIN_ROUNDS
    assert run.round_count("small-batch", 10 * run.ROUND_S["small-batch"]) == 10


def test_speedometer_scales_by_the_kernel_samples_near_an_interval():
    speed = calibrate.Speedometer(calibrate.COMPUTE)
    ref = calibrate.COMPUTE.reference_s
    # a slow half (kernel at twice its reference time), then a fast half
    speed.times = [float(t) for t in range(20)]
    speed.kernel_s = [2 * ref] * 10 + [ref] * 10
    slow = 0.5 ** calibrate.SENSITIVITY
    assert speed.scale(4.5, 4.6) == pytest.approx(slow)
    assert speed.scale(14.5, 14.6) == 1.0
    assert speed.reference_s(4.0, 5.0) == pytest.approx(slow)


def test_run_child_returns_output_and_kills_past_its_timeout():
    env = cli_fixtures.child_env()
    assert run.run_child([sys.executable, "-c", "print('hi')"], env, 60.0) == (0, b"hi\n", False)
    code, _, killed = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], env, 0.5)
    assert killed and code != 0


def test_tail_keeps_ten_samples_beyond():
    durations = [float(i) for i in range(1, 101)]
    assert run.tail(durations, 90.0) == (95.5, 90.0, 10)
    assert run.tail(durations, 99.0) == (95.5, 90.0, 10)
    assert run.tail(durations, 75.0) == (88.0, 75.0, 25)
    assert run.tail([1.0] * 48, 90.0)[1:] == (75.0, 12)


def _tamper_combination(dec, fact):
    certs = tuple(
        Certificate(c.fact, {**c.data, "combination": [Fraction(c.data["combination"][0]) + 1,
                                                       *c.data["combination"][1:]]})
        if c.fact == fact else c
        for c in dec.certificates
    )
    return dataclasses.replace(dec, certificates=certs)


def test_ladder_checker_rejects_a_perturbed_certificate():
    work, (item,) = first("decompose-ladder", "d3x3")
    dec, report, verified = work.op(item)
    work.check(item, (dec, report, verified))
    bad = _tamper_combination(dec, "negative-part-pseudo-effective")
    with pytest.raises(ops.CheckError):
        work.check(item, (bad, report, verified))
    combo = report.domination[0]
    bad_report = dataclasses.replace(
        report, domination=((combo[0] + 1,) + tuple(combo[1:]),) + report.domination[1:])
    with pytest.raises(ops.CheckError):
        work.check(item, (dec, bad_report, verified))


def test_cone_checker_rejects_perturbed_results():
    work, (item,) = first("cone-convert", "r6i")
    full, dual, verdicts = work.op(item)
    work.check(item, (full, dual, verdicts))
    member = verdicts[0]
    wrong = dataclasses.replace(
        member, combination=(member.combination[0] + 1,) + member.combination[1:])
    with pytest.raises(ops.CheckError):
        work.check(item, (full, dual, (wrong,) + verdicts[1:]))
    short = dataclasses.replace(full, inequalities=full.inequalities[1:])
    with pytest.raises(ops.CheckError):
        work.check(item, (short, dual, verdicts))


def test_small_batch_checker_rejects_disagreeing_routes():
    work, (item,) = first("small-batch", "slope")
    closed, geometry, lp = work.op(item)
    work.check(item, (closed, geometry, lp))
    bad = _tamper_combination(closed, "positive-part-movable")
    with pytest.raises(ops.CheckError):
        work.check(item, (bad, geometry, lp))

    work, items = first("small-batch", "pair6", count=8)
    item = next(i for i in items if any(negdef.decompose(i[1], i[2]).negative.coords))
    fast, oracle = work.op(item)
    work.check(item, (fast, oracle))
    j = next(i for i, c in enumerate(oracle.negative.coords) if c)
    shift = tuple(Fraction(int(i == j)) for i in range(len(item[2])))
    shifted = dataclasses.replace(
        oracle,
        positive=dataclasses.replace(oracle.positive, coords=tuple(
            a + s for a, s in zip(oracle.positive.coords, shift))),
        negative=dataclasses.replace(oracle.negative, coords=tuple(
            a - s for a, s in zip(oracle.negative.coords, shift))),
    )
    with pytest.raises(ops.CheckError):
        work.check(item, (fast, shifted))


def test_cli_checker_rejects_a_flipped_digest_or_exit_code():
    reference = cli_fixtures.load_reference()
    label = "ring-eval"
    args = dict(cli_fixtures.COMMANDS)[label]
    done = subprocess.run(cli_fixtures.untraced_argv(args), cwd=cli_fixtures.ROOT,
                          env=cli_fixtures.child_env(), capture_output=True, timeout=120)
    cli_fixtures.check(reference, label, done.returncode, done.stdout)
    flipped = bytes([done.stdout[0] ^ 1]) + done.stdout[1:]
    with pytest.raises(ValueError):
        cli_fixtures.check(reference, label, done.returncode, flipped)
    with pytest.raises(ValueError):
        cli_fixtures.check(reference, label, 3, done.stdout)


def test_wrappers_leave_results_unchanged_and_restore_originals():
    cases = [first("decompose-ladder", "toric", count=3), first("cone-convert", "r6g"),
             first("small-batch", "slope", count=3), first("small-batch", "pair6")]
    plain = [work.check(item, work.op(item)) for work, items in cases for item in items]
    original = polytope.vertex_enumeration
    tracer = Tracer()
    tracer.install()
    try:
        assert zariski.vertex_enumeration is polytope.vertex_enumeration is not original
        assert cli.negdef_brute_force is negdef.brute_force
        traced = [work.check(item, work.op(item)) for work, items in cases for item in items]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert zariski.vertex_enumeration is polytope.vertex_enumeration is original
    summary = tracer.summary()
    for name in ("polytope.vertex_enumeration", "cones.double_description",
                 "simplex.solve_standard", "negdef.brute_force", "projbundle.zariski_decompose"):
        assert summary[name + ".calls"] > 0 and summary[name + ".self_s"] > 0
    assert len(tracer.names) == len(TARGETS)
    spans = tracer.span_rows()
    assert len(spans) == sum(tracer.calls.values())
    assert all(end >= start for _, start, end, _, _ in spans)


def test_traced_cli_child_matches_the_reference():
    reference = cli_fixtures.load_reference()
    run.OUT.mkdir(exist_ok=True)
    summary = run.OUT / "test-child.json"
    label = "ring-eval"
    done = subprocess.run(
        cli_fixtures.traced_argv(dict(cli_fixtures.COMMANDS)[label], summary),
        cwd=cli_fixtures.ROOT, env=cli_fixtures.child_env(), capture_output=True, timeout=120)
    try:
        cli_fixtures.check(reference, label, done.returncode, done.stdout)
        data = json.loads(summary.read_text())
    finally:
        summary.unlink(missing_ok=True)
    assert data["summary"]["ringexpr.evaluate.calls"] == 1
    assert data["summary"]["cli.run.calls"] == 1
    assert data["import_s"] > 0

"""Tests of the benchmark itself: helpers, the output checker, tiny runs.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402

pe = bench.import_package()

TINY = bench.Sizes(
    study_count=40,
    surface_step=0.25,
    surface_pool=200,
    surface_rungs=(0.5,),
    cli_networks=20,
    setup_reps=1,
)

COUNTS = [name for name, unit in bench.PER_LAYER.items() if unit in ("count", "bytes")]


def tiny_run(seed=3):
    return bench.Run(pe=pe, seed=seed, seconds=0.0, sizes=TINY)


def test_tail_percentile_has_ten_samples_beyond_it():
    assert bench.tail_percentile(list(range(19))) is None
    assert bench.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert bench.tail_percentile(list(range(100, 0, -1))) == (90.0, 90)
    assert bench.tail_percentile([float(v) for v in range(1000)]) == (99.0, 989.0)


def test_speedometer_samples_during_the_block_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Speedometer() as clock:
        ends = perf_counter() + 0.1
        while perf_counter() < ends:
            pass
    assert len(clock.samples) >= 2 + 5
    assert clock.wall >= 0.1
    assert clock.seconds > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.fixture(scope="module")
def tiny_report():
    return pe.run_study(pe.StudyConfig.default(seed=3, count=40))


def test_checker_accepts_the_package_answers(tiny_report):
    run = tiny_run()
    points = bench.check_study(run, tiny_report, 0)
    assert points == run.attempted > 0
    assert run.failed == 0


@pytest.mark.parametrize("kind", ["independent", "associated"])
def test_checker_flags_an_injected_wrong_answer(tiny_report, kind):
    ev = next(ev for ev in tiny_report.networks if ev.kind == kind)
    record = ev.records[7]
    rule = pe.Rule.DISJUNCTIVE
    original = record.answers[rule]
    record.answers[rule] = original + 1e-6
    try:
        run = tiny_run()
        bench.check_study(run, tiny_report, 0)
        assert run.failed == 1
    finally:
        record.answers[rule] = original


@pytest.mark.parametrize("kind", ["independent", "associated"])
def test_checker_flags_an_injected_wrong_oracle(tiny_report, kind):
    ev = next(ev for ev in tiny_report.networks if ev.kind == kind)
    record = ev.records[12]
    original = record.oracle
    object.__setattr__(record, "oracle", original - 1e-8)
    try:
        run = tiny_run()
        bench.check_study(run, tiny_report, 0)
        assert run.failed == 1
    finally:
        object.__setattr__(record, "oracle", original)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(workload, trace):
    run, metrics = bench.measure(pe, workload, 3, 0.0, trace, TINY)
    line = bench.result(run, metrics, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(line["metrics"]) == list(expected)
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    json.dumps(line)


def test_traced_counts_repeat_exactly():
    first = bench.measure(pe, "study", 4, 0.0, True, TINY)[1]
    again = bench.measure(pe, "study", 4, 0.0, True, TINY)[1]
    assert {name: first[name] for name in COUNTS} == {name: again[name] for name in COUNTS}
    assert first["oracle.calls"] > 0 and first["study.screen.kept"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

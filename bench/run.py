"""Benchmark of prospector-eval: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload study|surface|cli --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; nothing needs to
be installed.  With ``--trace 0`` the run measures the workload for about
``--seconds`` seconds and reports the end-to-end metrics, every time in them
rescaled to the host's uncontended speed (see ``hostspeed.py``); with
``--trace 1`` it runs the workload with and without spans around every call
into a package layer, replays the sweep through the single-query API, and
reports the per-layer metrics.  Every run checks the package's answers
against ``reference.py``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a result record with the
environment go to ``.bench_out/``.  See ``bench/README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

import reference as ref
from hostspeed import Speedometer, Stopwatch
from tracing import NoTrace, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The package's modules, for per-layer self time (``cases`` only supplies
#: inputs; ``_serialize`` is reached through the study writers).
LAYERS = ("generate", "table", "study", "engine", "oracle", "serialize", "cli")

PER_LAYER = {
    "generate.independent.busy_s": "s",
    "generate.associated.busy_s": "s",
    "generate.associated.us_per_network": "us",
    "generate.associated.resamples": "count",
    "table.validate.busy_s": "s",
    "table.load_networks.busy_s": "s",
    "table.load_networks.bytes": "bytes",
    "table.save_networks.busy_s": "s",
    "study.screen.busy_s": "s",
    "study.screen.kept": "count",
    "study.screen.kept_ratio": "ratio",
    "study.evaluate_tables.busy_s": "s",
    "study.evaluate_tables.w2.busy_s": "s",
    "study.summarize.busy_s": "s",
    "study.diagnostics.busy_s": "s",
    "study.build_report.busy_s": "s",
    "study.spearman.busy_s": "s",
    "study.error_surface.busy_s": "s",
    "engine.infer.calls": "count",
    "engine.infer.busy_s": "s",
    "engine.infer.ns_per_call": "ns",
    "engine.clamps": "count",
    "engine.ties": "count",
    "oracle.calls": "count",
    "oracle.busy_s": "s",
    "oracle.us_per_call": "us",
    "oracle.iterations.total": "count",
    "oracle.iterations.max": "count",
    "oracle.conditioned": "count",
    "oracle.failures": "count",
    "serialize.report_json.busy_s": "s",
    "serialize.report_json.bytes": "bytes",
    "serialize.results_csv.busy_s": "s",
    "serialize.results_csv.bytes": "bytes",
    "serialize.surface_csv.busy_s": "s",
    "cli.interpreter.busy_s": "s",
    "cli.import.busy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.run.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}

#: Associated points per study repetition checked against the quadratic
#: oracle (independent points are all checked against the closed form).
ASSOCIATED_SAMPLE = 2000

IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - started)"
)

#: Runs the CLI's main() after its import and prints how long main() took.
RUN_PROBE = (
    "import sys, time; import prospector_eval.cli as cli; started = time.perf_counter(); "
    "code = cli.main(sys.argv[1:]); print(time.perf_counter() - started); sys.exit(code)"
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones are for tests."""

    study_count: int = 4000
    surface_step: float = 0.02
    surface_pool: int = 2000
    #: |log theta| of the associated surface networks; the oracle's
    #: iteration count grows linearly with it, so fixed rungs keep the work
    #: of a surface round the same for every seed.
    surface_rungs: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    cli_networks: int = 4000
    setup_reps: int = 3


@dataclass
class Run:
    """One benchmark invocation: its inputs, outcome counts and report lines."""

    pe: ModuleType
    seed: int
    seconds: float
    sizes: Sizes
    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)

    @property
    def rules(self):
        """The three rules, in the column order of ``reference.rule_answers``."""
        Rule = self.pe.Rule
        return (Rule.CONJUNCTIVE, Rule.DISJUNCTIVE, Rule.INDEPENDENT)

    def tally(self, bad: np.ndarray) -> None:
        self.attempted += int(bad.size)
        self.failed += int(np.count_nonzero(bad))

    def note(self, label: str, value, unit: str = "", extra: str = "") -> None:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"{label:<36} {shown:>14} {unit:<6} {extra}".rstrip())


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def import_package() -> ModuleType:
    """Import prospector_eval from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import prospector_eval
    except ImportError as exc:
        raise SystemExit(f"error: cannot import prospector_eval from {SRC}: {exc}")
    if SRC not in Path(prospector_eval.__file__).resolve().parents:
        raise SystemExit(f"error: prospector_eval was imported from outside {SRC}")
    return prospector_eval


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value) by nearest rank, or None when that
    percentile would fall below the median (fewer than 2 * ``beyond``
    samples), where it is no tail.
    """
    n = len(samples)
    if n < 2 * beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def note_slowdown(run: Run, clocks) -> None:
    """How much slower than the reference speed the host ran, overall."""
    wall = sum(c.wall for c in clocks)
    run.note("host.slowdown", wall / sum(c.seconds for c in clocks), "x", f"{wall:.1f} s of wall time timed")


def note_tail(run: Run, label: str, latencies: list[float], what: str) -> None:
    tail = tail_percentile(latencies)
    if tail is None:
        run.note(label, "n/a", "ms", f"needs 20 {what}, got {len(latencies)}")
    else:
        run.note(label, tail[1], "ms", f"p{tail[0]:.1f} of {len(latencies)} {what}, 10 beyond it")


def repeat(seconds: float, minimum: int, body) -> list:
    """Call ``body`` (which returns a measurement with a ``wall`` entry)
    until one more call would overrun ``seconds``; at least ``minimum``."""
    results = []
    started = perf_counter()
    while len(results) < minimum or (
        perf_counter() - started + statistics.median(r["wall"] for r in results) <= seconds
    ):
        results.append(body())
    return results


def run_child(args: list[str]) -> dict:
    """Run ``python <args>`` from the checkout root and wait for it.

    Returns wall time, exit code, output and the child's own peak RSS.
    Output goes through files, so a chatty child can never block on a pipe.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "wall": wall,
            "code": proc.returncode,
            "stdout": out.read().decode(),
            "stderr": err.read().decode(),
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def import_seconds(module: str = "prospector_eval") -> float:
    """Time a fresh interpreter takes to import ``module`` (measured inside it)."""
    child = run_child(["-c", IMPORT_PROBE.format(module=module)])
    if child["code"] != 0:
        raise RuntimeError(f"importing {module} failed:\n{child['stderr']}")
    return float(child["stdout"])


def timed_setup(run: Run, build):
    """Median over set-ups of (a fresh interpreter importing the package,
    then ``build()``), at the reference speed."""
    times = []
    for _ in range(run.sizes.setup_reps):
        with Speedometer() as clock:
            import_seconds()
            inputs = build()
        times.append(clock.seconds)
    return statistics.median(times), inputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def replay(tracer: Tracer, pe: ModuleType, sweeps) -> dict[str, int]:
    """Answer every (network, update) again through ``network_view``,
    ``infer`` per rule and ``mce_update``, one span per call.

    ``sweeps`` yields (op id, table, rules, points).  Returns the engine and
    oracle counts observed at those calls.
    """
    counts = dict(clamps=0, ties=0, iterations=0, iterations_max=0, conditioned=0, failures=0)
    for op, table, rules, points in sweeps:
        root = tracer.begin("bench.replay", op)
        span = tracer.begin("table.network_view", op)
        view = pe.network_view(table)
        tracer.end(span)
        for u1, u2 in points:
            for rule in rules:
                span = tracer.begin("engine.infer", op)
                _, trace = pe.infer(view, rule, (u1, u2))
                tracer.end(span)
                counts["clamps"] += trace.prior_clamped + sum(e.clamped for e in trace.evidence)
                counts["ties"] += trace.tie
            update = pe.EvidenceUpdate(u1, u2)
            span = tracer.begin("oracle", op)
            try:
                result = pe.mce_update(table, update)
            except pe.ProspectorEvalError:
                result = None
            tracer.end(span)
            if result is None:
                counts["failures"] += 1
                continue
            counts["iterations"] += result.iterations
            counts["iterations_max"] = max(counts["iterations_max"], result.iterations)
            counts["conditioned"] += any(u in (0.0, 1.0) for u in (u1, u2))
        tracer.end(root)
    return counts


def layer_metrics(tracer: Tracer, counts: dict[str, int], **known) -> dict[str, float]:
    """Every per-layer metric: span totals, replay counts and ``known``
    values; layers the workload never calls read 0."""
    busy = tracer.busy()
    calls = {name: 0 for name in ("engine.infer", "oracle")}
    for name in tracer.names:
        if name in calls:
            calls[name] += 1
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    for metric in PER_LAYER:
        if metric.endswith(".busy_s"):
            metrics[metric] = busy.get(metric.removesuffix(".busy_s"), 0.0)
    metrics.update(
        {
            "engine.infer.calls": calls["engine.infer"],
            "engine.infer.ns_per_call": 1e9 * busy.get("engine.infer", 0.0) / max(1, calls["engine.infer"]),
            "engine.clamps": counts["clamps"],
            "engine.ties": counts["ties"],
            "oracle.calls": calls["oracle"],
            "oracle.us_per_call": 1e6 * busy.get("oracle", 0.0) / max(1, calls["oracle"]),
            "oracle.iterations.total": counts["iterations"],
            "oracle.iterations.max": counts["iterations_max"],
            "oracle.conditioned": counts["conditioned"],
            "oracle.failures": counts["failures"],
        }
    )
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    metrics.update(known)
    return metrics


# ---------------------------------------------------------------------------
# Workload "study": run_study at 4000+4000, then both output files.
# ---------------------------------------------------------------------------


def study_config(run: Run):
    return run.pe.StudyConfig.default(seed=run.seed, count=run.sizes.study_count)


def write_study(pe: ModuleType, report, tracer, op: str) -> tuple[str, str]:
    with tracer.span("serialize.report_json", op):
        report_text = pe.study.report_json_text(report)
        (OUT / "study-report.json").write_text(report_text, encoding="utf-8")
    with tracer.span("serialize.results_csv", op):
        results_text = pe.study.results_csv_text(report.networks)
        (OUT / "study-results.csv").write_text(results_text, encoding="utf-8")
    return report_text, results_text


def check_study(run: Run, report, rep: int) -> int:
    """Check every rule answer, every independent-network oracle answer and
    a seed-sampled subset of associated ones; returns the points scored."""
    cells, updates, answers, oracle, independent = [], [], [], [], []
    for ev in report.networks:
        for record in ev.records:
            cells.append(ev.table.cells)
            updates.append(record.update.as_tuple())
            answers.append([record.answers[rule] for rule in run.rules])
            oracle.append(record.oracle)
            independent.append(ev.kind == "independent")
    cells = np.array(cells).reshape(-1, 8)
    u1, u2 = np.array(updates).reshape(-1, 2).T
    oracle = np.array(oracle)
    independent = np.array(independent, dtype=bool)

    bad = ref.misses(np.array(answers).reshape(-1, 3), ref.rule_answers(cells, u1, u2), ref.ENGINE_TOL).any(axis=1)
    bad |= ~np.isfinite(oracle)
    rng = np.random.default_rng([run.seed, rep])
    associated = np.flatnonzero(~independent)
    sample = rng.choice(associated, size=min(ASSOCIATED_SAMPLE, associated.size), replace=False)
    for points, oracle_reference in ((independent, ref.oracle_independent), (sample, ref.oracle_associated)):
        want = oracle_reference(cells[points], u1[points], u2[points])
        bad[points] |= ref.misses(oracle[points], want, ref.ORACLE_TOL)
    run.tally(bad)
    return int(bad.size)


def check_identical(run: Run, first: str, again: str) -> None:
    run.tally(np.array([first != again]))


def study_repetition(pe: ModuleType, config, clock=Speedometer):
    """One end-to-end study, untraced: (clock, report, file texts)."""
    with clock() as timed:
        report = pe.run_study(config)
        texts = write_study(pe, report, NoTrace(), "study")
    return timed, report, texts


def study_untraced(run: Run) -> dict[str, float]:
    config = study_config(run)
    setup_s, _ = timed_setup(run, lambda: None)
    reps = []

    def repetition():
        clock, report, texts = study_repetition(run.pe, config)
        points = check_study(run, report, len(reps))
        digest = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        if reps:
            check_identical(run, reps[0]["digest"], digest)
        reps.append({"wall": clock.wall, "clock": clock, "points": points, "digest": digest})
        return reps[-1]

    repeat(run.seconds, 2, repetition)
    seconds = statistics.median(r["clock"].seconds for r in reps)
    points = reps[0]["points"]
    run.note("study.points_per_s.wall", points / statistics.median(r["wall"] for r in reps), "1/s",
             f"{points} points x {len(reps)} repetitions, median wall time")
    note_slowdown(run, [r["clock"] for r in reps])
    return {
        "setup_s": setup_s,
        "points_per_s": points / seconds,
        "latency_ms": 1000.0 * seconds,
        "peak_rss_mb": peak_rss_mb(),
    }


def study_traced(run: Run, tracer: Tracer) -> dict[str, float]:
    pe = run.pe
    config = study_config(run)
    # A first untraced repetition warms the process up and is the reference
    # for the determinism checks; the one after the traced repetition is the
    # untraced wall for trace.overhead_ratio.
    _, first, first_texts = study_repetition(pe, config, Stopwatch)
    check_study(run, first, 0)
    del first

    # run_study split into the public calls it makes, one span each.
    op = "study"
    with tracer.span("bench.study", op) as root:
        with tracer.span("generate.independent", op):
            independent = pe.generate_independent(config.independent)
        with tracer.span("generate.associated", op):
            associated = pe.generate_associated(config.associated)
        tables = independent + associated
        ids = [f"independent-{i:04d}" for i in range(len(independent))]
        ids += [f"associated-{i:04d}" for i in range(len(associated))]
        sweep = dict(ids=ids, grid=config.grid, filter_enabled=config.filter_enabled, filter_mode=config.filter_mode)
        with tracer.span("study.evaluate_tables", op):
            evaluations = pe.evaluate_tables(tables, workers=1, **sweep)
        with tracer.span("study.build_report", op):
            report = pe.study.build_report(
                evaluations,
                {"independent": len(independent), "associated": len(associated)},
                grid=config.grid,
                filter_enabled=config.filter_enabled,
                filter_mode=config.filter_mode,
                generation=config,
            )
        texts = write_study(pe, report, tracer, op)
    traced = tracer.duration(root)
    check_study(run, report, 1)
    check_identical(run, first_texts[0], texts[0])
    untraced, _, again = study_repetition(pe, config, Stopwatch)
    check_identical(run, first_texts[0], again[0])

    # The calls evaluate_tables and build_report make internally, one by one.
    kept = 0
    for table, network_id in zip(tables, ids):
        with tracer.span("table.validate", network_id):
            pe.validate(table)
        with tracer.span("study.screen", network_id):
            pattern = pe.monotonicity_pattern(pe.conditional_profile(table), mode=config.filter_mode)
        kept += pattern is not pe.MonotonicityPattern.REJECTED
    for ev in evaluations:
        with tracer.span("study.summarize", ev.network_id):
            pe.summarize(ev.records)
        with tracer.span("study.diagnostics", ev.network_id):
            pe.diagnostics(ev.table)
    with tracer.span("study.spearman", op):
        pe.study.spearman_strength_error(report.strength_error_pairs)

    with tracer.span("study.evaluate_tables.w2", "w2"):
        parallel = pe.evaluate_tables(tables, workers=2, **sweep)
    check_identical(run, texts[1], pe.study.results_csv_text(parallel))
    del parallel

    points = tuple((u1, u2) for u1 in config.grid for u2 in config.grid)
    counts = replay(tracer, pe, ((ev.network_id, ev.table, run.rules, points) for ev in evaluations))
    return layer_metrics(
        tracer,
        counts,
        **{
            "generate.associated.us_per_network": 1e6 * tracer.busy()["generate.associated"] / len(associated),
            "generate.associated.resamples": sum(t.provenance.resamples for t in associated),
            "study.screen.kept": kept,
            "study.screen.kept_ratio": kept / len(tables),
            "serialize.report_json.bytes": len(texts[0].encode()),
            "serialize.results_csv.bytes": len(texts[1].encode()),
            "trace.overhead_ratio": traced / untraced.wall - 1.0,
        },
    )


# ---------------------------------------------------------------------------
# Workload "surface": error_surface for all three rules on a fine lattice.
# ---------------------------------------------------------------------------


def surface_networks(pe: ModuleType, seed: int, sizes: Sizes) -> list[tuple[str, object]]:
    """Case 1, case 2, and filter-passing associated networks drawn from the
    seed whose |log theta| is nearest each rung."""
    pool = pe.generate_associated(pe.GenerationConfig(count=sizes.surface_pool, seed=seed, kind="associated"))
    kept = [
        t
        for t in pool
        if pe.monotonicity_pattern(pe.conditional_profile(t)) is not pe.MonotonicityPattern.REJECTED
    ]
    strength = ref.log_odds_ratio(np.array([t.cells for t in kept]))
    chosen: list[int] = []
    for rung in sizes.surface_rungs:
        order = np.argsort(np.abs(strength - rung), kind="stable")
        chosen.append(next(int(i) for i in order if i not in chosen))
    networks = [("case-1", pe.case_study_table(1)), ("case-2", pe.case_study_table(2))]
    networks += [(f"associated-{kept[i].provenance.index:04d}", kept[i]) for i in chosen]
    return networks


def surface_round(run: Run, calls, tracer, clock=Speedometer) -> dict:
    """One error_surface call (and its CSV) per (network, rule); checks all."""
    pe = run.pe
    clocks, results = [], []
    started = perf_counter()
    for name, table, rule in calls:
        op = f"{name}/{rule.value}"
        with clock() as timed, tracer.span("bench.surface", op):
            with tracer.span("study.error_surface", op):
                points = pe.error_surface(table, rule, run.sizes.surface_step)
            with tracer.span("serialize.surface_csv", op):
                (OUT / "surface.csv").write_text(pe.study.surface_csv_text(points), encoding="utf-8")
        clocks.append(timed)
        results.append(points)
    wall = perf_counter() - started

    for (name, table, rule), points in zip(calls, results):
        u1, u2, error = np.array(points).T
        cells = np.tile(table.cells, (len(points), 1))
        answer = ref.rule_answers(cells, u1, u2)[:, run.rules.index(rule)]
        oracle = ref.oracle_independent if table.kind == "independent" else ref.oracle_associated
        run.tally(ref.misses(error, oracle(cells, u1, u2) - answer, ref.ORACLE_TOL + ref.ENGINE_TOL))
    return {"wall": wall, "calls": clocks, "points": sum(len(p) for p in results), "lattice": results}


def surface_calls(run: Run, networks):
    return [(name, table, rule) for name, table in networks for rule in run.rules]


def surface_untraced(run: Run) -> dict[str, float]:
    setup_s, networks = timed_setup(run, lambda: surface_networks(run.pe, run.seed, run.sizes))
    calls = surface_calls(run, networks)
    rounds = repeat(run.seconds, 1, lambda: surface_round(run, calls, NoTrace()))
    clocks = [c for r in rounds for c in r["calls"]]
    points = rounds[0]["points"]
    run.note(
        "surface.points_per_s.wall", statistics.median(points / r["wall"] for r in rounds), "1/s",
        f"{points} points x {len(rounds)} rounds, median wall time; networks {', '.join(n for n, _ in networks)}",
    )
    note_slowdown(run, clocks)
    latencies = [1000.0 * c.seconds for c in clocks]
    note_tail(run, "surface.latency_ms_tail", latencies, "calls")
    return {
        "setup_s": setup_s,
        "points_per_s": statistics.median(points / sum(c.seconds for c in r["calls"]) for r in rounds),
        "latency_ms": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


def surface_traced(run: Run, tracer: Tracer) -> dict[str, float]:
    calls = surface_calls(run, surface_networks(run.pe, run.seed, run.sizes))
    surface_round(run, calls, NoTrace(), Stopwatch)  # warm-up, as in study_traced
    traced = surface_round(run, calls, tracer, Stopwatch)
    untraced = surface_round(run, calls, NoTrace(), Stopwatch)["wall"]
    sweeps = (
        (f"{name}/{rule.value}", table, (rule,), [(u1, u2) for u1, u2, _ in points])
        for (name, table, rule), points in zip(calls, traced["lattice"])
    )
    counts = replay(tracer, run.pe, sweeps)
    return layer_metrics(tracer, counts, **{"trace.overhead_ratio": traced["wall"] / untraced - 1.0})


# ---------------------------------------------------------------------------
# Workload "cli": `prospector-eval oracle` in a subprocess, one call at a time.
# ---------------------------------------------------------------------------

NETWORK_FILE = ".bench_out/cli-networks.json"


def cli_inputs(pe: ModuleType, seed: int, sizes: Sizes, tracer=NoTrace()):
    tables = pe.generate_associated(pe.GenerationConfig(count=sizes.cli_networks, seed=seed, kind="associated"))
    OUT.mkdir(exist_ok=True)
    with tracer.span("table.save_networks", "setup"):
        pe.save_networks(tables, ROOT / NETWORK_FILE)
    return tables


def cli_queries(run: Run, tables):
    """Endless cycle of the three queries; updates and index from the seed."""
    pe = run.pe
    rng = np.random.default_rng([run.seed, 1])
    cases = {1: pe.case_study_table(1), 2: pe.case_study_table(2)}
    k = 0
    while True:
        e1, e2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        if k % 3 < 2:
            case, index = k % 3 + 1, None
            table, select, oracle = cases[case], ["--case", str(case)], ref.oracle_independent
        else:
            index = int(rng.integers(len(tables)))
            table, select, oracle = tables[index], ["--networks", NETWORK_FILE, "--index", str(index)], ref.oracle_associated
        expected = pe.correct_posterior(table, pe.EvidenceUpdate(e1, e2))
        reference = float(oracle(np.array([table.cells]), np.array([e1]), np.array([e2]))[0])
        yield {
            "id": f"q{k}",
            "argv": ["oracle", *select, "--e1", repr(e1), "--e2", repr(e2)],
            "table": table,
            "index": index,
            "update": (e1, e2),
            "expected": expected,
            "reference_ok": abs(expected - reference) <= ref.ORACLE_TOL,
        }
        k += 1


def cli_call(run: Run, query, clock=Speedometer) -> dict:
    with clock() as timed:
        child = run_child(["-m", "prospector_eval.cli", *query["argv"]])
    child["clock"] = timed
    ok = (
        child["code"] == 0
        and child["stdout"].strip() == f"{query['expected']:.6g}"
        and query["reference_ok"]
    )
    run.tally(np.array([not ok]))
    return child


def cli_untraced(run: Run) -> dict[str, float]:
    setup_s, tables = timed_setup(run, lambda: cli_inputs(run.pe, run.seed, run.sizes))
    queries = cli_queries(run, tables)
    calls = []

    def cycle():
        batch = [cli_call(run, next(queries)) for _ in range(3)]
        calls.extend(batch)
        return {"wall": sum(c["wall"] for c in batch)}

    repeat(run.seconds, 1, cycle)
    run.note("cli.oracle_ms_p50.wall", 1000.0 * statistics.median(c["wall"] for c in calls), "ms",
             f"{len(calls)} invocations, median wall time")
    note_slowdown(run, [c["clock"] for c in calls])
    latencies = [1000.0 * c["clock"].seconds for c in calls]
    note_tail(run, "cli.oracle_ms_tail", latencies, "invocations")
    return {
        "setup_s": setup_s,
        "points_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "latency_ms": statistics.median(latencies),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
    }


def scipy_import_seconds() -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime."""
    child = run_child(["-X", "importtime", "-c", "import prospector_eval.cli"])
    total_us = 0
    outer: list[tuple[int, bool]] = []  # (depth, inside scipy) of the enclosing imports
    for line in reversed(child["stderr"].splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        while outer and outer[-1][0] >= depth:
            outer.pop()
        inside = bool(outer) and outer[-1][1]
        is_scipy = name.strip().split(".")[0] == "scipy"
        if is_scipy and not inside:
            total_us += int(cumulative)
        outer.append((depth, inside or is_scipy))
    return total_us / 1e6


def cli_traced(run: Run, tracer: Tracer) -> dict[str, float]:
    pe = run.pe
    tables = cli_inputs(pe, run.seed, run.sizes, tracer)
    interpreter, imports = [], []
    for _ in range(run.sizes.setup_reps):
        with tracer.span("cli.interpreter", "probe"):
            interpreter.append(run_child(["-c", "pass"])["wall"])
        with tracer.span("cli.import", "probe"):
            imports.append(import_seconds("prospector_eval.cli"))

    cycle = list(itertools.islice(cli_queries(run, tables), 3))
    untraced = [cli_call(run, query, Stopwatch)["wall"] for query in cycle]
    traced, runs, sweeps = [], [], []
    for query in cycle:
        with tracer.span("cli.oracle", query["id"]) as span:
            cli_call(run, query, Stopwatch)
        traced.append(tracer.duration(span))
        with tracer.span("cli.run", query["id"]):
            child = run_child(["-c", RUN_PROBE, *query["argv"]])
        if child["code"] != 0:
            raise RuntimeError(f"CLI probe failed:\n{child['stderr']}")
        runs.append(float(child["stdout"].split()[-1]))
        table = query["table"]
        if query["index"] is not None:
            with tracer.span("table.load_networks", query["id"]):
                table = pe.load_networks(ROOT / NETWORK_FILE)[query["index"]]
        sweeps.append((query["id"], table, (), [query["update"]]))
    counts = replay(tracer, pe, sweeps)
    return layer_metrics(
        tracer,
        counts,
        **{
            "table.load_networks.bytes": (ROOT / NETWORK_FILE).stat().st_size,
            "cli.interpreter.busy_s": statistics.median(interpreter),
            "cli.import.busy_s": statistics.median(imports),
            "cli.import.scipy_s": scipy_import_seconds(),
            "cli.run.busy_s": statistics.median(runs),
            "trace.overhead_ratio": sum(traced) / sum(untraced) - 1.0,
        },
    )


WORKLOADS = {
    "study": (study_untraced, study_traced),
    "surface": (surface_untraced, surface_traced),
    "cli": (cli_untraced, cli_traced),
}


# ---------------------------------------------------------------------------
# Environment record and entry point.
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).exists():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "prospector_eval").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def measure(pe: ModuleType, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()):
    """Run one workload; returns (run, metrics)."""
    OUT.mkdir(exist_ok=True)
    run = Run(pe=pe, seed=seed, seconds=seconds, sizes=sizes)
    untraced, traced = WORKLOADS[workload]
    if not trace:
        return run, untraced(run)
    tracer = Tracer()
    metrics = traced(run, tracer)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return run, metrics


def result(run: Run, metrics: dict[str, float], trace: bool) -> dict:
    """The result line: every end-to-end metric, or every per-layer one when traced."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    pe = import_package()

    run, metrics = measure(pe, args.workload, args.seed, args.seconds, bool(args.trace))
    line = result(run, metrics, bool(args.trace))
    for name, metric in line["metrics"].items():
        run.note(name, metric["value"], metric["unit"])
    run.note(
        "ops.failed_ratio", run.failed / run.attempted, "",
        f"ops.failed {run.failed}, ops.attempted {run.attempted}",
    )
    env = environment(args.workload, args.seed)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(run.lines))

    record = dict(line, environment=env, lines=run.lines)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

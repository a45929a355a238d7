"""The measured (end-to-end) and traced (per-layer) run of each workload."""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from perfbench import serving, store, study
from perfbench.harness import (
    OUT,
    Outcome,
    emit,
    end_to_end,
    import_seconds,
    paced,
    timed_setups,
)
from perfbench.probes import LAYER_METRICS, install, layer_metrics
from perfbench.stats import describe, median
from perfbench.tracer import Tracer


def _guarded(outcome: Outcome, what: str, fn, *args, **kwargs):
    """Run ``fn``; an exception becomes a failed operation and ``None``,
    so the run still prints its result."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the benchmark reports every failure it meets
        outcome.check(False, f"{what} raised {type(exc).__name__}: {exc}")
        return None


# -- measured runs (--trace 0) ----------------------------------------------


def measure_study(seed: int, seconds: float):
    setup_s = import_seconds(study.IMPORTS) + timed_setups(study.config)[0]
    config = study.config()
    outcome = Outcome()
    runs: List[study.StudyRun] = []

    def job(rep: int) -> Optional[float]:
        run = _guarded(outcome, f"study rep {rep}", study.run_once, seed, config, None, f"rep{rep}", outcome)
        if run is None:
            return None
        runs.append(run)
        return run.wall_s

    paced(seconds, job, min_reps=study.REPS)
    study.check_report(seed, runs, outcome)
    walls = [run.wall_s for run in runs]
    rates = [run.nx_rows / run.wall_s for run in runs]
    lines = [
        f"workload study: seed {seed}, {study.TRACE_DOMAINS} domains, honeypot scale {study.HONEYPOT_SCALE}",
        describe("study_s", walls, "s") + " [" + ", ".join(f"{w:.2f}" for w in walls) + "]",
        describe("nx_rows_per_s", rates, "rows/s"),
        describe("generate_s", [run.generate_s for run in runs], "s"),
    ]
    if runs:
        lines.append(f"report sha256 {runs[0].report_sha}; nx rows {runs[0].nx_rows}")
        lines.append(f"shape checks not holding (reported, not gated): {runs[0].shape_failures or 'none'}")
    return outcome, setup_s, walls, rates, lines


def measure_store(seed: int, seconds: float):
    setup_s, inputs = timed_setups(lambda: store.make_inputs(seed))
    setup_s += import_seconds(store.IMPORTS)
    expected = store.reference(inputs)
    outcome = Outcome()
    runs: List[store.StoreRun] = []

    def job(rep: int) -> Optional[float]:
        run = _guarded(outcome, f"store rep {rep}", store.run_once, inputs, expected,
                       store.scratch_dir(), None, f"rep{rep}", outcome)
        if run is None:
            return None
        runs.append(run)
        return run.wall_s

    paced(seconds, job)
    walls = [run.wall_s for run in runs]
    rates = [run.offered / run.ingest_s for run in runs]
    lines = [
        f"workload store: seed {seed}, {len(inputs.observations)} observations offered, "
        f"{store.BULK_ROWS} bulk rows, {expected['rows']} rows stored",
        describe("store_s", walls, "s") + " [" + ", ".join(f"{w:.2f}" for w in walls) + "]",
        describe("ingest_rows_per_s", rates, "rows/s"),
    ]
    if runs:
        lines.append(describe("disk_bytes_per_row", [r.bytes_per_row for r in runs], "B/row"))
    return outcome, setup_s, walls, rates, lines


def measure_serving(seed: int, seconds: float):
    setup_s, inputs = timed_setups(lambda: serving.make_inputs(seed))
    setup_s += import_seconds(serving.IMPORTS)
    outcome = Outcome()
    loop = serving.closed_loop(inputs, outcome, requests=round(seconds * serving.REQUESTS_PER_CLIENT_SECOND))
    _guarded(outcome, "identity check", serving.check_identity, inputs, outcome)
    qps = len(loop.reads) / loop.elapsed_s
    lines = [
        f"workload serving: seed {seed}, {serving.CLIENTS} closed-loop clients, "
        f"{serving.DOMAINS}x{serving.ROWS_PER_DOMAIN} rows, one write per {serving.READS_PER_WRITE} reads",
        f"serve_qps: {qps:.2f} 1/s over {loop.elapsed_s:.2f} s",
        describe("read_ms", loop.reads, "ms", scale=1e3),
        describe("write_ms", loop.writes, "ms", scale=1e3),
    ]
    return outcome, setup_s, [median(loop.reads)] if loop.reads else [], [qps], lines


MEASURE = {"study": measure_study, "store": measure_store, "serving": measure_serving}


def measured(workload: str, seed: int, seconds: float) -> None:
    outcome, setup_s, walls, rates, lines = MEASURE[workload](seed, seconds)
    if not walls:
        # Nothing completed, so there is no time to report.
        print("\n".join(lines + [f"failed: {reason}" for reason in outcome.failures]))
        sys.exit(1)
    lines.insert(1, f"setup_s: {setup_s:.4f} s (median of set-ups, imports in a fresh interpreter)")
    emit(outcome, end_to_end(setup_s, median(walls), median(rates)), lines)


# -- traced runs (--trace 1) ------------------------------------------------


def trace_study(seed: int, tracer: Tracer, outcome: Outcome) -> Tuple[float, float, List[str]]:
    config = study.config()
    plain = study.run_once(seed, config, None, "untraced", outcome)
    undo = install(tracer)
    try:
        traced = study.run_once(seed, config, tracer, "traced", outcome)
    finally:
        undo()
    outcome.check(traced.report_sha == plain.report_sha, "traced report differs from the untraced one")
    study.check_report(seed, [plain, traced], outcome)
    tracer.count("core.shape_checks_failed", len(traced.shape_failures))
    render_s = layer_metrics(tracer)["core.render_s"]
    return plain.wall_s, traced.wall_s, study.stage_table(tracer.totals(), render_s)


def trace_store(seed: int, tracer: Tracer, outcome: Outcome) -> Tuple[float, float, List[str]]:
    inputs = store.make_inputs(seed)
    expected = store.reference(inputs)
    plain = store.run_once(inputs, expected, store.scratch_dir(), None, "untraced", outcome)
    undo = install(tracer)
    try:
        traced = store.run_once(inputs, expected, store.scratch_dir(), tracer, "traced", outcome)
    finally:
        undo()
    return plain.wall_s, traced.wall_s, []


def trace_serving(seed: int, tracer: Tracer, outcome: Outcome) -> Tuple[float, float, List[str]]:
    length = serving.TRACED_REQUESTS
    plain = serving.closed_loop(serving.make_inputs(seed, length), outcome, requests=length)
    inputs = serving.make_inputs(seed, length)
    undo = install(tracer)
    try:
        traced = serving.closed_loop(inputs, outcome, requests=length, tracer=tracer)
    finally:
        undo()
    serving.check_identity(inputs, outcome)
    lines = [describe("untraced read_ms", plain.reads, "ms", 1e3), describe("traced read_ms", traced.reads, "ms", 1e3)]
    return median(plain.reads), median(traced.reads), lines


TRACE = {"study": trace_study, "store": trace_store, "serving": trace_serving}


def self_time_table(tracer: Tracer) -> List[str]:
    rows = sorted(tracer.totals().items(), key=lambda item: -item[1]["self_s"])
    lines = [f"{'span':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    lines += [f"{name:<36} {int(row['calls']):>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}" for name, row in rows]
    for name in sorted(tracer.leaf_seconds):
        lines.append(f"{name + ' (leaf)':<36} {int(tracer.counts[name]):>9} {tracer.leaf_seconds[name]:>10.4f}")
    return lines


def traced(workload: str, seed: int, seconds: float) -> None:
    tracer = Tracer()
    outcome = Outcome()
    untraced_s, traced_s, lines = TRACE[workload](seed, tracer, outcome)
    values = layer_metrics(tracer)
    values["trace.overhead_s"] = traced_s - untraced_s
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path)
    header = [
        f"workload {workload} traced: seed {seed}; job untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
        f"overhead {traced_s - untraced_s:+.4f} s ({(traced_s / untraced_s - 1) * 100:+.1f}%)",
        f"spans written to {path.relative_to(OUT.parent.parent)}",
    ]
    metrics: Dict[str, Tuple[float, str]] = {
        name: (int(values[name]) if unit in ("count", "B") else float(values[name]), unit)
        for name, unit in LAYER_METRICS
    }
    body = [f"{name}: {value:{'d' if isinstance(value, int) else '.6g'}} {unit}" for name, (value, unit) in metrics.items()]
    emit(outcome, metrics, header + lines + self_time_table(tracer) + body)

"""Measure one workload: untraced for end-to-end metrics, traced for layers."""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from perfbench.layers import LAYER_METRICS, entry_points, pass_metrics
from perfbench.spans import Tracer
from perfbench.workloads import (
    PASSES,
    PassOutcome,
    Workload,
    compare_passes,
    failed_count,
    geomean,
    make_workload,
    run_pass,
)

ROOT = Path(__file__).resolve().parent.parent
#: Fresh-process set-up measurements per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: End-to-end metric -> (pass whose rate it reports, unit).
RATE_METRICS = {
    "evals_per_s": "plain",
    "cold_evals_per_s": "cold",
    "warm_evals_per_s": "warm",
}
END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "cold_evals_per_s": "1/s",
    "warm_evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Units of the numbers printed before the JSON line but not gated.
SUMMARY_UNITS = {
    "rounds": "count",
    "host_slowdown": "ratio",
    "wall_evals_per_s": "1/s",
    "wall_cold_evals_per_s": "1/s",
    "wall_warm_evals_per_s": "1/s",
    "best_latency_cycles": "cycles",
    "digamma_speedup_geomean": "x",
    "failed_ratio": "ratio",
}


def setup_probe(workload: str, seed: int, small: bool, workdir: Path) -> float:
    """Wall time from spawning a fresh process to a workload's first search.

    ``time.monotonic`` is one system-wide clock on Linux, so the child's
    reading at the end of its set-up minus the parent's reading just before
    the spawn covers interpreter start, ``import repro`` and construction.
    """
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "setup_probe.py"),
        workload,
        str(seed),
        str(workdir),
    ]
    if small:
        command.append("--small")
    spawned = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1]) - spawned


def run_round(
    workload: Workload, workdir: Path, index: int, tracer=None, on_pass=None
) -> List[PassOutcome]:
    """The plain, cold and warm passes; cold and warm must match plain."""
    outcomes = []
    for name in PASSES:
        # Free the previous pass's frameworks and caches now, not inside
        # the next pass's timed phase.
        gc.collect()
        outcome = run_pass(workload, name, workdir, index, tracer)
        if on_pass is not None:
            on_pass(outcome)
        outcomes.append(outcome)
    for other in outcomes[1:]:
        compare_passes(outcomes[0], other)
    return outcomes


def _untraced(workload: Workload, seconds: float, workdir: Path):
    """Rounds until ``seconds`` would be exceeded; end-to-end metrics."""
    setup_samples: List[float] = []

    def probe(outcome=None) -> None:
        # Spread over the run, so the median does not hang on one moment's
        # host load.
        if len(setup_samples) < SETUP_PROBES:
            probe_dir = workdir / f"probe-{len(setup_samples)}"
            setup_samples.append(
                setup_probe(workload.name, workload.seed, workload.small, probe_dir)
            )

    rounds: List[List[PassOutcome]] = []
    started = time.perf_counter()
    durations = []
    while True:
        round_start = time.perf_counter()
        rounds.append(run_round(workload, workdir, len(rounds), on_pass=probe))
        durations.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(durations) > seconds:
            break
    while len(setup_samples) < SETUP_PROBES:
        probe()

    by_pass = {
        name: [passes[position] for passes in rounds]
        for position, name in enumerate(PASSES)
    }
    values = {
        metric: statistics.median(outcome.evals_per_s for outcome in by_pass[name])
        for metric, name in RATE_METRICS.items()
    }
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }

    plain = rounds[0][0]
    summary: Dict[str, float] = {
        "rounds": len(rounds),
        "host_slowdown": statistics.median(
            outcome.slowdown for passes in rounds for outcome in passes
        ),
    }
    for metric, name in RATE_METRICS.items():
        summary[f"wall_{metric}"] = statistics.median(
            outcome.wall_evals_per_s for outcome in by_pass[name]
        )
    summary["best_latency_cycles"] = (
        geomean(plain.best_latencies) if plain.best_latencies else float("inf")
    )
    if plain.speedup is not None:
        summary["digamma_speedup_geomean"] = plain.speedup
    return [outcome for passes in rounds for outcome in passes], metrics, summary


def _traced(workload: Workload, workdir: Path):
    """One untraced plain pass, then one traced round; per-layer metrics."""
    reference = run_pass(workload, "plain", workdir, 0)
    tracer = Tracer()
    values: Dict[str, float] = {}
    span_sums: Dict[str, tuple] = {}

    def record(outcome: PassOutcome) -> None:
        if not tracer.spans:
            return  # the pass crashed before its timed phase
        for suffix, value in pass_metrics(tracer).items():
            values[f"{outcome.name}.{suffix}"] = value
        span_sums[outcome.name] = (
            sum(tracer.self_times_ns().values()),
            tracer.root_wall_ns(),
        )

    tracer.install(entry_points())
    try:
        traced = run_round(workload, workdir, 1, tracer, on_pass=record)
    finally:
        tracer.uninstall()
    compare_passes(reference, traced[0])

    metrics = {
        f"{name}.{suffix}": {"value": values.get(f"{name}.{suffix}", 0.0), "unit": unit}
        for name in PASSES
        for suffix, unit in LAYER_METRICS
    }
    untraced_rate = reference.evals_per_s
    metrics["trace.overhead_ratio"] = {
        "value": traced[0].evals_per_s / untraced_rate if untraced_rate else 0.0,
        "unit": "ratio",
    }
    return [reference, *traced], metrics, {"span_sums_ns": span_sums}


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    small: bool = False,
) -> Dict:
    """Run one workload; returns the result object plus a ``summary`` dict.

    ``small`` shrinks every budget for the smoke test.
    """
    workload = make_workload(workload_name, seed, small)
    # Untimed and unchecked: lazy imports and first-call set-up happen here,
    # not in the first timed pass.
    run_pass(make_workload(workload_name, seed, small=True), "plain", workdir, -1)
    if trace:
        outcomes, metrics, summary = _traced(workload, workdir)
    else:
        outcomes, metrics, summary = _untraced(workload, seconds, workdir)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(failed_count(outcome) for outcome in outcomes)
    summary["failed_ratio"] = failed / attempted if attempted else 1.0
    summary["errors"] = [error for outcome in outcomes for error in outcome.errors]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
    }

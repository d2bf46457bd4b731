"""The benchmark's three workloads and their output checks.

Every workload runs the same three passes over one unit of work:

* ``plain`` — no persistent layer cache, no checkpoints;
* ``cold``  — a fresh persistent layer-cache directory (``cache_dir``)
  plus a fresh ``checkpoint_dir``, so the on-disk tier writes;
* ``warm``  — the ``cold`` pass's cache directory, a fresh checkpoint
  directory (and, on ``fig5-sweep``, a fresh result store), so the tier
  reads.

Framework, runner and store construction happen before a pass's timed
phase; the timed phase is the search (or sweep) plus closing what it
opened.  Every pass is checked, and the three passes of one round must
produce bit-identical results: the disk tiers may change speed, never
results.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.arch.platform import get_platform
from repro.experiments.fig5 import compile_fig5_jobs
from repro.experiments.jobs import build_framework
from repro.experiments.runner import ResultStore, SweepRunner
from repro.experiments.settings import ExperimentSettings
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import DesignEvaluator
from repro.framework.objective import Objective
from repro.optim.digamma import DiGamma
from repro.optim.nsga2 import NSGA2
from repro.workloads.registry import get_model

from perfbench.hostspeed import HostSpeed
from perfbench.spans import Tracer

PASSES = ("plain", "cold", "warm")


@dataclass
class PassOutcome:
    """What one pass did, how long its timed phase took and what failed."""

    name: str
    #: Wall time of the timed phase, host-speed sampling excluded.
    seconds: float = 0.0
    #: Host slowdown over the timed phase (see :mod:`perfbench.hostspeed`).
    slowdown: float = 1.0
    evaluations: int = 0
    #: Searches (or sweep jobs) attempted in the pass.
    attempted: int = 0
    #: Keys of the searches/jobs that failed or failed a check.
    failed: set = field(default_factory=set)
    #: Search/job key -> result signature compared across passes.
    signature: Dict[str, object] = field(default_factory=dict)
    #: Simulated best latency (cycles) of each search.
    best_latencies: List[float] = field(default_factory=list)
    #: Fig. 5 headline: geomean over models of best-baseline / DiGamma.
    speedup: Optional[float] = None
    errors: List[str] = field(default_factory=list)

    @property
    def wall_evals_per_s(self) -> float:
        return self.evaluations / self.seconds if self.seconds > 0 else 0.0

    @property
    def evals_per_s(self) -> float:
        """Throughput at the nominal host speed."""
        return self.wall_evals_per_s * self.slowdown


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Workload:
    """One benchmark workload; subclasses define the unit of work."""

    name = ""
    #: Searches (or jobs) in one pass, counted as attempted even on a crash.
    units = 1

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def prepare(self, cache_dir: Optional[Path], checkpoint_dir: Optional[Path], store_path: Path):
        """Untimed construction of everything one pass needs."""
        raise NotImplementedError

    def execute(self, prepared):
        """The timed phase of one pass."""
        raise NotImplementedError

    def check(self, prepared, raw, outcome: PassOutcome) -> None:
        """Fill ``outcome`` from the pass's results and run the output checks."""
        raise NotImplementedError

    def setup_probe(self, workdir: Path) -> None:
        """Construct what the first search needs (a ``cold`` pass's set-up)."""
        raise NotImplementedError


class _SingleSearch(Workload):
    """One search through :class:`CoOptimizationFramework` per pass."""

    units = 1

    def framework(self, cache_dir) -> CoOptimizationFramework:
        raise NotImplementedError

    def search(self, framework, checkpoint_dir):
        raise NotImplementedError

    def prepare(self, cache_dir, checkpoint_dir, store_path):
        return self.framework(cache_dir), checkpoint_dir

    def execute(self, prepared):
        framework, checkpoint_dir = prepared
        with framework:
            return self.search(framework, checkpoint_dir)

    def setup_probe(self, workdir):
        self.framework(workdir / "l2").close()


class DigammaEdge(_SingleSearch):
    """DiGamma on resnet18, edge, 2-level hierarchy, the paper's 40K budget."""

    name = "digamma-edge"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.model = get_model("resnet18")
        self.platform = get_platform("edge")
        # Population 100 (DiGamma's default at this budget).
        self.budget = 300 if small else 40_000

    def framework(self, cache_dir):
        return CoOptimizationFramework(
            self.model,
            self.platform,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )

    def search(self, framework, checkpoint_dir):
        return framework.search(
            DiGamma(),
            self.budget,
            seed=self.seed,
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        )

    def check(self, prepared, raw, outcome):
        outcome.evaluations = raw.evaluations
        outcome.best_latencies.append(raw.best_latency)
        outcome.signature["search"] = raw.best.fitness if raw.best else None
        if raw.evaluations != self.budget:
            outcome.failed.add("search")
            outcome.errors.append(f"{raw.evaluations} evaluations, budget {self.budget}")
        if not raw.found_valid:
            outcome.failed.add("search")
            outcome.errors.append("no valid design found")
            return
        # Re-price the best design on the uncached reference engine.
        oracle = DesignEvaluator(
            self.model, self.platform, engine="reference", use_cache=False
        )
        repriced = oracle.evaluate_genome(raw.best.genome).fitness
        if repriced != raw.best.fitness:
            outcome.failed.add("search")
            outcome.errors.append(
                f"reference re-price {repriced!r} != search fitness {raw.best.fitness!r}"
            )


class Nsga2Pareto3Level(_SingleSearch):
    """NSGA-II Pareto search, latency/energy/area, resnet18, 3 levels."""

    name = "nsga2-pareto-3level"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.model = get_model("resnet18")
        self.platform = get_platform("edge")
        self.budget = 200 if small else 10_000

    def framework(self, cache_dir):
        return CoOptimizationFramework(
            self.model,
            self.platform,
            num_levels=3,
            objectives="latency,energy,area",
            cache_dir=None if cache_dir is None else str(cache_dir),
        )

    def search(self, framework, checkpoint_dir):
        return framework.pareto_search(
            NSGA2(),
            self.budget,
            seed=self.seed,
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        )

    def check(self, prepared, raw, outcome):
        outcome.evaluations = raw.evaluations
        outcome.signature["front"] = raw.front_values
        if raw.evaluations != self.budget:
            outcome.failed.add("search")
            outcome.errors.append(f"{raw.evaluations} evaluations, budget {self.budget}")
        if not raw.front:
            outcome.failed.add("search")
            outcome.errors.append("empty Pareto front")
            return
        outcome.best_latencies.append(raw.extreme_value(Objective.LATENCY))
        if not raw.is_non_dominated():
            outcome.failed.add("search")
            outcome.errors.append("front holds a dominated point")


class Fig5Sweep(Workload):
    """The Fig. 5 edge grid: 9 optimizers x {ncf, resnet18} via SweepRunner."""

    name = "fig5-sweep"
    models = ("ncf", "resnet18")

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.budget = 40 if small else 1500
        self.jobs = compile_fig5_jobs("edge", self.settings(None, None))
        self.units = len(self.jobs)

    def settings(self, cache_dir, checkpoint_dir) -> ExperimentSettings:
        return ExperimentSettings(
            models=self.models,
            sampling_budget=self.budget,
            seed=self.seed,
            cache_dir=None if cache_dir is None else str(cache_dir),
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        )

    def prepare(self, cache_dir, checkpoint_dir, store_path):
        settings = self.settings(cache_dir, checkpoint_dir)
        store = ResultStore(store_path)
        return SweepRunner(self.jobs, settings=settings, store=store), store

    def execute(self, prepared):
        runner, _ = prepared
        return runner.run()

    def setup_probe(self, workdir):
        runner, _ = self.prepare(workdir / "l2", workdir / "ckpt", workdir / "store.jsonl")
        build_framework(self.jobs[0], runner.settings).close()

    def check(self, prepared, raw, outcome):
        _, store = prepared
        statuses = store.statuses()
        report = store.verify()
        latency: Dict[str, Dict[str, float]] = {}
        for spec, search in raw:
            outcome.evaluations += search.evaluations
            outcome.signature[spec.job_id] = search.best.fitness if search.best else None
            outcome.best_latencies.append(search.best_latency)
            latency.setdefault(spec.model, {})[spec.optimizer] = search.best_latency
        for spec in self.jobs:
            if statuses.get(spec.job_id) != "ok" or spec.job_id not in outcome.signature:
                outcome.failed.add(spec.job_id)
                outcome.errors.append(f"job {spec.job_id}: {statuses.get(spec.job_id)}")
        if not report["ok"] or report["corrupt_lines"]:
            outcome.failed.update(spec.job_id for spec in self.jobs)
            outcome.errors.append(f"result store does not verify: {report}")
        ratios = []
        for by_optimizer in latency.values():
            digamma = by_optimizer.get("digamma", math.inf)
            baseline = min(
                (value for name, value in by_optimizer.items() if name != "digamma"),
                default=math.inf,
            )
            if math.isfinite(digamma) and math.isfinite(baseline):
                ratios.append(baseline / digamma)
        if ratios:
            outcome.speedup = geomean(ratios)


WORKLOADS = {cls.name: cls for cls in (DigammaEdge, Nsga2Pareto3Level, Fig5Sweep)}


def make_workload(name: str, seed: int, small: bool = False) -> Workload:
    return WORKLOADS[name](seed, small)


def run_pass(
    workload: Workload,
    name: str,
    workdir: Path,
    round_index: int,
    tracer: Optional[Tracer] = None,
) -> PassOutcome:
    """Run one pass; a crash or failed check is recorded, never raised."""
    outcome = PassOutcome(name=name, attempted=workload.units)
    tag = f"{name}-{round_index}"
    cache_dir = None if name == "plain" else workdir / f"l2-{round_index}"
    checkpoint_dir = None if name == "plain" else workdir / f"ckpt-{tag}"
    if tracer is not None:
        tracer.reset(run_id=PASSES.index(name))
    try:
        prepared = workload.prepare(cache_dir, checkpoint_dir, workdir / f"store-{tag}.jsonl")
        with HostSpeed() as host:
            if tracer is not None:
                tracer.begin()
            start = time.perf_counter()
            try:
                raw = workload.execute(prepared)
            finally:
                seconds = time.perf_counter() - start
                if tracer is not None:
                    tracer.end()
        outcome.seconds = seconds - host.inside_ns / 1e9
        outcome.slowdown = host.slowdown
        workload.check(prepared, raw, outcome)
    except Exception:  # noqa: BLE001 — a crashed pass is a failure, not an abort
        outcome.failed.add("*")
        outcome.errors.append(traceback.format_exc())
    return outcome


def compare_passes(reference: PassOutcome, other: PassOutcome) -> None:
    """Mark every search of ``other`` whose result differs from ``reference``."""
    for key, value in reference.signature.items():
        if other.signature.get(key, value) != value:
            other.failed.add(key)
            other.errors.append(f"{key}: {other.name} result differs from {reference.name}")


def failed_count(outcome: PassOutcome) -> int:
    if "*" in outcome.failed:
        return outcome.attempted
    return min(len(outcome.failed), outcome.attempted)

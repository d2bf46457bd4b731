"""Declarative job specifications for experiment sweeps.

A :class:`JobSpec` names one search — model x platform x optimizer x
objective x seed, plus the scheme-specific knobs the figure harnesses need
(fixed-HW style for the Mapping-opt baselines, a dataflow style for the
HW-opt grid search, the buffer-allocation strategy for the ablation).  Specs
are plain frozen dataclasses: hashable, JSON-serializable and equipped with
a stable ``job_id``, which is what lets a sweep be resumed (skip ids already
in the result store) and sharded (split the job list across processes or
machines) without any coordination beyond the JSONL store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.arch.platform import get_platform
from repro.experiments.settings import (
    FIXED_HW_STYLES,
    ExperimentSettings,
    make_fixed_hardware,
)
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.objective import Objective, ObjectiveSet
from repro.optim.base import Optimizer
from repro.optim.grid_search import HardwareGridSearch
from repro.optim.registry import optimizer_class
from repro.cost.backend import BACKENDS
from repro.framework.evaluator import ENGINES
from repro.workloads.registry import get_model


@dataclass(frozen=True)
class JobSpec:
    """One search of a sweep, fully described by data.

    Parameters
    ----------
    model / platform / optimizer:
        Registry names.  ``optimizer`` additionally accepts ``"grid"`` for
        the HW-opt grid-search baseline (configured through
        ``optimizer_options``, e.g. ``{"dataflow": "dla"}``).
    sampling_budget / seed / objective:
        The search knobs; ``objective`` is an :class:`Objective` value name.
    objectives:
        Optional tuple of objective names (or a comma-separated string)
        enabling multi-objective Pareto-front search: the job runs through
        :meth:`CoOptimizationFramework.pareto_search` and stores a front
        instead of a single best.  The scalar ``objective`` field is
        aligned to the first entry (it drives the tracker's scalar
        fitness), and the set joins the ``job_id``.
    optimizer_options:
        Constructor keyword arguments for the optimizer (e.g. DiGamma
        ablation switches).  Mappings are normalized to a sorted tuple of
        pairs so specs stay hashable and their ids deterministic.
    fixed_hw_style:
        Optional key of :data:`FIXED_HW_STYLES`; enables the Fixed-HW use
        case (Mapping-opt baselines).
    buffer_allocation:
        ``"exact"`` (default) or ``"fill"`` (buffer-allocation ablation).
    engine:
        Evaluation-engine selector (``"vector"`` / ``"fast"`` /
        ``"reference"``).  ``None`` (default) inherits the sweep settings'
        engine; an explicit value pins this job and becomes part of its
        ``job_id``.  Engines are bit-identical, so the id component only
        matters for benchmarking sweeps that compare them.
    backend:
        Cost-backend selector (``"analytic"`` / ``"zigzag"``, see
        :mod:`repro.cost.backend`).  ``None`` (default) inherits the sweep
        settings' backend; an explicit value pins this job and joins its
        ``job_id``.  Unlike ``engine``, backends compute *different*
        costs, so the sweep runner pins any non-default settings backend
        onto every spec — two jobs differing only in backend are different
        experiments and never share an id.
    scheme:
        Optional display label used as the table column; defaults to the
        optimizer's own display name.
    """

    model: str
    platform: str
    optimizer: str
    sampling_budget: int
    seed: int = 0
    objective: str = "latency"
    objectives: Tuple[str, ...] = ()
    optimizer_options: Tuple[Tuple[str, Any], ...] = ()
    fixed_hw_style: Optional[str] = None
    buffer_allocation: str = "exact"
    engine: Optional[str] = None
    backend: Optional[str] = None
    scheme: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sampling_budget < 1:
            raise ValueError("sampling_budget must be >= 1")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES} (or None), got {self.engine!r}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS} (or None), got {self.backend!r}"
            )
        objectives = self.objectives
        if objectives:
            # Validate and canonicalize the names; the scalar objective is
            # the set's primary, so one field cannot contradict the other.
            objective_set = ObjectiveSet.from_names(objectives)
            object.__setattr__(self, "objectives", objective_set.names)
            object.__setattr__(self, "objective", objective_set.primary.value)
        else:
            object.__setattr__(self, "objectives", ())
        options = self.optimizer_options
        if isinstance(options, Mapping):
            options = tuple(sorted(options.items()))
        else:
            options = tuple(sorted((str(key), value) for key, value in options))
        object.__setattr__(self, "optimizer_options", options)

    @property
    def is_multi_objective(self) -> bool:
        """True when this job searches a Pareto front instead of one best."""
        return bool(self.objectives)

    # -- identity ----------------------------------------------------------

    @property
    def job_id(self) -> str:
        """Stable, human-readable identity of this job within a sweep."""
        parts = [self.model, self.platform, self.objective, self.optimizer]
        if self.objectives:
            parts.append("mo=" + "+".join(self.objectives))
        if self.optimizer_options:
            parts.append(",".join(f"{k}={v}" for k, v in self.optimizer_options))
        if self.fixed_hw_style is not None:
            parts.append(f"hw={self.fixed_hw_style}")
        if self.buffer_allocation != "exact":
            parts.append(f"alloc={self.buffer_allocation}")
        if self.engine is not None:
            parts.append(f"engine={self.engine}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        parts.append(f"b{self.sampling_budget}")
        parts.append(f"s{self.seed}")
        return "/".join(parts)

    @property
    def framework_key(self) -> Tuple:
        """Jobs with equal keys can share one framework (and worker pool)."""
        return (
            self.model,
            self.platform,
            self.objective,
            self.objectives,
            self.fixed_hw_style,
            self.buffer_allocation,
            self.engine,
            self.backend,
        )

    @property
    def scheme_label(self) -> str:
        """Column label in the rendered tables."""
        if self.scheme is not None:
            return self.scheme
        if self.optimizer == "grid":
            dataflow = dict(self.optimizer_options).get("dataflow", "dla")
            return f"Grid-S+{dataflow}-like"
        # Registry optimizers carry their display name on the class, so no
        # instance needs to be built just to label a table column.
        return optimizer_class(self.optimizer).name


# -- building the runtime objects ---------------------------------------------


def build_optimizer(spec: JobSpec) -> Optimizer:
    """Instantiate the optimizer a spec describes."""
    options = dict(spec.optimizer_options)
    if spec.optimizer == "grid":
        return HardwareGridSearch(**options)
    return optimizer_class(spec.optimizer)(**options)


def build_framework(
    spec: JobSpec, settings: Optional[ExperimentSettings] = None
) -> CoOptimizationFramework:
    """Build the co-optimization framework a spec's searches run through.

    Engine knobs that never change results — workers, memoization, the
    persistent ``cache_dir`` tier — arrive via
    ``settings.framework_options()`` and stay out of job identities;
    knobs that *do* change what a search computes (backend, objective,
    budget, ...) live on the spec and join its ``job_id``.
    """
    settings = settings if settings is not None else ExperimentSettings()
    platform = get_platform(spec.platform)
    fixed_hardware = None
    if spec.fixed_hw_style is not None:
        fixed_hardware = make_fixed_hardware(
            platform, FIXED_HW_STYLES[spec.fixed_hw_style]
        )
    return CoOptimizationFramework(
        get_model(spec.model),
        platform,
        objective=Objective.from_name(spec.objective),
        objectives=(
            ObjectiveSet.from_names(spec.objectives) if spec.objectives else None
        ),
        fixed_hardware=fixed_hardware,
        buffer_allocation=spec.buffer_allocation,
        bytes_per_element=settings.bytes_per_element,
        engine=spec.engine if spec.engine is not None else settings.engine,
        backend=spec.backend if spec.backend is not None else settings.backend,
        **settings.framework_options(),
    )


# -- (de)serialization ---------------------------------------------------------


def job_to_dict(spec: JobSpec) -> Dict[str, Any]:
    """Serialize a job spec (inverse of :func:`job_from_dict`)."""
    return {
        "model": spec.model,
        "platform": spec.platform,
        "optimizer": spec.optimizer,
        "sampling_budget": spec.sampling_budget,
        "seed": spec.seed,
        "objective": spec.objective,
        "objectives": list(spec.objectives),
        "optimizer_options": dict(spec.optimizer_options),
        "fixed_hw_style": spec.fixed_hw_style,
        "buffer_allocation": spec.buffer_allocation,
        "engine": spec.engine,
        "backend": spec.backend,
        "scheme": spec.scheme,
    }


def job_from_dict(data: Dict[str, Any]) -> JobSpec:
    """Rebuild a job spec from :func:`job_to_dict` output."""
    return JobSpec(
        model=str(data["model"]),
        platform=str(data["platform"]),
        optimizer=str(data["optimizer"]),
        sampling_budget=int(data["sampling_budget"]),
        seed=int(data.get("seed", 0)),
        objective=str(data.get("objective", "latency")),
        objectives=tuple(data.get("objectives", ())),
        optimizer_options=dict(data.get("optimizer_options", {})),
        fixed_hw_style=data.get("fixed_hw_style"),
        buffer_allocation=str(data.get("buffer_allocation", "exact")),
        engine=data.get("engine"),
        backend=data.get("backend"),
        scheme=data.get("scheme"),
    )


# -- grid compilation ----------------------------------------------------------


def compile_grid(
    models: Iterable[str],
    platforms: Iterable[str],
    optimizers: Iterable[str],
    sampling_budget: int,
    seeds: Sequence[int] = (0,),
    objectives: Sequence[str] = ("latency",),
) -> List[JobSpec]:
    """Compile the cross product of the given axes into a job list.

    The order is deterministic (platform, model, optimizer, objective,
    seed — outermost to innermost), which is what sharding relies on: every
    shard of the same grid sees the same list and takes every N-th job.
    """
    jobs: List[JobSpec] = []
    for platform in platforms:
        for model in models:
            for optimizer in optimizers:
                for objective in objectives:
                    for seed in seeds:
                        jobs.append(
                            JobSpec(
                                model=model,
                                platform=platform,
                                optimizer=optimizer,
                                sampling_budget=sampling_budget,
                                seed=seed,
                                objective=objective,
                            )
                        )
    return jobs

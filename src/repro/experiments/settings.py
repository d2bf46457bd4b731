"""Shared experiment configuration.

The paper runs every optimizer with a 40K sampling budget (about 20 CPU
minutes per search).  The defaults here are scaled down so the complete
benchmark suite finishes on one machine in minutes; every harness accepts a
``sampling_budget`` (and the CLIs a ``--budget``) to run at paper scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.area import AreaModel
from repro.arch.hardware import HardwareConfig
from repro.arch.platform import Platform
from repro.experiments.faults import FaultPlan
from repro.cost.backend import BACKENDS
from repro.framework.evaluator import ENGINES

#: Accepted result-store durability modes (see ``ResultStore``): ``"flush"``
#: appends each record as one flushed ``write`` syscall (a crash loses at
#: most the in-flight record), ``"fsync"`` additionally forces the record
#: to stable storage before the append returns (a power cut loses nothing).
DURABILITY_MODES = ("flush", "fsync")

#: The seven DNN models of the paper's evaluation, in presentation order.
DEFAULT_MODELS: Tuple[str, ...] = (
    "resnet18",
    "resnet50",
    "mobilenet_v2",
    "mnasnet",
    "bert",
    "ncf",
    "dlrm",
)

#: The nine optimization algorithms compared in Fig. 5 (registry names).
FIG5_OPTIMIZERS: Tuple[str, ...] = (
    "random",
    "stdga",
    "pso",
    "tbpsa",
    "(1+1)-es",
    "de",
    "portfolio",
    "cma",
    "digamma",
)

#: Paper-scale sampling budget (Sec. V-A).
PAPER_SAMPLING_BUDGET = 40_000

#: Scaled-down default used by the shipped benchmarks.
DEFAULT_SAMPLING_BUDGET = 1_500


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by the Fig. 5 / Fig. 6 / Fig. 7 harnesses.

    ``use_cache``, ``workers`` and ``engine`` configure the evaluation
    engine of every search the harness runs: per-design memoization on/off
    (the vector engine's population path uses no cache either way), the
    optional process-pool width for batched population evaluation, and the
    vector/fast/reference engine selector (results are bit-identical for
    every combination).  A job spec may pin its own engine, which
    overrides the settings value for that job.

    The reliability knobs configure the sweep runner's per-job error
    boundary: ``retries`` extra attempts per failed job with exponential
    ``retry_backoff`` (+ deterministic jitter) between them, a per-job
    wall-clock ``job_timeout`` enforced by a watchdog, the result store's
    ``durability`` mode, and an optional ``fault_plan``
    (:class:`~repro.experiments.faults.FaultPlan`) that injects
    deterministic failures for chaos testing.
    """

    models: Tuple[str, ...] = DEFAULT_MODELS
    sampling_budget: int = DEFAULT_SAMPLING_BUDGET
    seed: int = 0
    bytes_per_element: int = 1
    use_cache: bool = True
    workers: Optional[int] = None
    engine: str = "vector"
    #: Cost-backend selector (:mod:`repro.cost.backend`).  Unlike
    #: ``engine``, the backend changes what a search computes, so it joins
    #: job identities (see :class:`~repro.experiments.jobs.JobSpec`).
    backend: str = "analytic"
    #: Optional persistent cross-run layer-cache directory
    #: (:class:`~repro.cost.persist.PersistentLayerCache`).  Purely an
    #: accelerator for per-design pricing: cached rows are bit-identical to
    #: engine pricing, so the directory does not join job identities and
    #: one directory may be shared by every job and run.
    cache_dir: Optional[str] = None
    #: Extra attempts per failed job (0 = one attempt, no retry).
    retries: int = 0
    #: Base backoff between attempts, seconds; attempt ``k`` waits
    #: ``retry_backoff * 2**(k-1)`` scaled by deterministic jitter.
    retry_backoff: float = 0.1
    #: Per-job wall-clock timeout, seconds (``None`` = no timeout).
    job_timeout: Optional[float] = None
    #: Result-store durability mode (see :data:`DURABILITY_MODES`).
    durability: str = "flush"
    #: Optional mid-search checkpoint directory
    #: (:mod:`repro.framework.checkpoint`).  Jobs write generation-granular
    #: checkpoints keyed by job id and resume bit-identically after a
    #: crash, timeout, retry or interruption; ``None`` disables
    #: checkpointing.  Like ``cache_dir``, checkpoints never change what a
    #: search computes, so the directory is not part of job identities.
    checkpoint_dir: Optional[str] = None
    #: Checkpoint cadence: save every N generation boundaries (pending
    #: interruptions always force a save regardless).
    checkpoint_every: int = 1
    #: Optional fault-injection plan for chaos testing; ``None`` in
    #: production.  Not part of any job identity — faults never change
    #: what a successful search computes, only whether an attempt fails.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.sampling_budget < 1:
            raise ValueError("sampling_budget must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 when given")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0 when given, got {self.job_timeout}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {self.durability!r}"
            )
        object.__setattr__(self, "models", tuple(self.models))

    def framework_options(self) -> Dict[str, object]:
        """Evaluation-engine kwargs for :class:`CoOptimizationFramework`."""
        return {
            "use_cache": self.use_cache,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
        }


def make_fixed_hardware(
    platform: Platform,
    compute_fraction: float,
    area_model: AreaModel | None = None,
    l1_fraction: float = 0.3,
) -> HardwareConfig:
    """Build a fixed HW configuration spending ``compute_fraction`` of the budget on PEs.

    This constructs the paper's Mapping-opt baselines: "Compute-focused"
    (large PE array, small buffers), "Buffer-focused" (the opposite) and
    "Medium-Buf-Com" (balanced).  The remaining area is split between the
    per-PE L1 scratchpads (``l1_fraction``) and the shared L2.
    """
    if not 0.0 < compute_fraction < 1.0:
        raise ValueError("compute_fraction must be in (0, 1)")
    if not 0.0 < l1_fraction < 1.0:
        raise ValueError("l1_fraction must be in (0, 1)")
    model = area_model if area_model is not None else AreaModel()
    budget = platform.area_budget_um2

    pe_budget = budget * compute_fraction
    num_pes = max(1, int(pe_budget // model.pe_area_um2))
    rows = max(1, int(math.sqrt(num_pes)))
    cols = max(1, num_pes // rows)

    buffer_budget = budget * (1.0 - compute_fraction)
    l1_total_bytes = buffer_budget * l1_fraction / model.l1_area_per_byte_um2
    l1_size = max(1, int(l1_total_bytes // (rows * cols)))
    l2_size = max(1, int(buffer_budget * (1.0 - l1_fraction) // model.l2_area_per_byte_um2))

    return HardwareConfig(
        pe_array=(rows, cols),
        l1_size=l1_size,
        l2_size=l2_size,
        noc_bandwidth=platform.noc_bandwidth,
        dram_bandwidth=platform.dram_bandwidth,
    )


#: The three fixed-HW styles of the Mapping-opt baseline (paper Sec. V-A):
#: fraction of the area budget spent on compute.
FIXED_HW_STYLES: Dict[str, float] = {
    "Buffer-focused": 0.25,
    "Medium-Buf-Com": 0.50,
    "Compute-focused": 0.75,
}

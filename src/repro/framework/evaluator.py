"""Fitness evaluation: decode, evaluate, check constraints, score.

This is the paper's Evaluation Block (Fig. 3(a)): an encoded individual is
decoded into an accelerator design point, scored by the HW performance
evaluator, and its fitness is replaced with a (graded) negative penalty when
the design violates the budget, so that optimization algorithms of any kind
can be plugged into the Optimization Block unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.area import AreaBreakdown, AreaModel
from repro.arch.energy import EnergyModel
from repro.arch.hardware import HardwareConfig
from repro.arch.platform import Platform
from repro.cost.backend import BACKENDS, create_backend
from repro.cost.cache import CacheStats, LRUCache
from repro.cost.maestro import DEFAULT_LAYER_CACHE_SIZE, PerformanceBatch
from repro.cost.performance import ModelPerformance
from repro.cost.vector_engine import INT64_GUARD
from repro.encoding.genome import Genome, GenomeSpace
from repro.encoding.genome_matrix import (
    LEVEL_WIDTH,
    GenomeMatrix,
    genome_to_genes,
    row_to_genome,
)
from repro.framework.constraints import ConstraintChecker
from repro.framework.designpoint import AcceleratorDesign, LazyRowMappingDesign
from repro.framework.objective import (
    Objective,
    ObjectiveSet,
    objective_column,
    objective_value,
)
from repro.mapping.mapping import Mapping
from repro.workloads.layer import Layer
from repro.workloads.model import Model

#: Scale of the penalty assigned to invalid design points.  It dominates any
#: achievable objective value so that every valid point outranks every
#: invalid one, while the severity grading still gives the search a slope
#: back towards the feasible region.
INVALID_FITNESS_SCALE = 1e18

#: Bound of the whole-design memo (one entry per distinct raw mapping).
DEFAULT_DESIGN_CACHE_SIZE = 2048

#: Accepted evaluation-engine selectors, fastest first.  The single source
#: of truth: job specs, experiment settings and the CLIs import this.
ENGINES = ("vector", "fast", "reference")

#: How many times a broken worker pool is respawned over an evaluator's
#: lifetime before it degrades (stickily) to in-process evaluation.  A pool
#: that keeps dying is usually being OOM-killed, and respawning it forever
#: just thrashes the machine.
DEFAULT_MAX_POOL_RESTARTS = 2

#: Clock default the array scoring pins hardware to — taken from the
#: dataclass itself so a changed HardwareConfig default cannot silently
#: diverge the matrix path from :meth:`DesignEvaluator._score_performance`.
_DEFAULT_FREQUENCY_MHZ = HardwareConfig.__dataclass_fields__[
    "frequency_mhz"
].default

#: Array scoring hands a row to :meth:`DesignEvaluator._score_performance`
#: when a float estimate of one of its integer products reaches
#: :data:`~repro.cost.vector_engine.INT64_GUARD` (int64 arithmetic could
#: wrap), or when a buffer requirement it divides is not exact in float64.
_FLOAT_EXACT = 2**53

#: Evaluator installed in each worker process (see ``_init_worker``).
_WORKER_EVALUATOR: Optional["DesignEvaluator"] = None


def _init_worker(evaluator: "DesignEvaluator") -> None:
    """Install the pickled evaluator once per worker process."""
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_matrix_in_worker(matrix: GenomeMatrix) -> "ResultBatch":
    """Evaluate a gene-matrix chunk in a worker process (pool map target).

    Chaos hook first: an installed fault plan (pickled into the worker
    inside the evaluator, see ``_init_worker``) may kill this worker
    process; outside fault-injection runs ``fault_plan`` is None.
    """
    plan = getattr(_WORKER_EVALUATOR, "fault_plan", None)
    if plan is not None:
        plan.on_worker_chunk()
    return _WORKER_EVALUATOR.evaluate_matrix(matrix, workers=1)


def _with_genome(result: "EvaluationResult", genome: Genome) -> "EvaluationResult":
    """A copy of ``result`` carrying ``genome``, without the __init__ cost.

    Equivalent to ``dataclasses.replace(result, genome=genome)``; the frozen
    dataclass stores fields in the instance dict, so a bulk dict copy
    suffices and runs several times faster on this per-evaluation path.
    """
    wrapped = object.__new__(EvaluationResult)
    wrapped.__dict__.update(result.__dict__)
    wrapped.__dict__["genome"] = genome
    return wrapped


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the framework knows about one evaluated design point."""

    fitness: float
    valid: bool
    objective: Objective
    objective_value: float
    design: AcceleratorDesign
    violations: tuple
    genome: Optional[Genome] = None
    #: Per-objective values (lower is better each) when the evaluator was
    #: configured with an :class:`~repro.framework.objective.ObjectiveSet`.
    #: Computed from the same cost-model pass as the scalar objective, so
    #: requesting a vector never costs a second evaluation.
    objective_vector: Optional[Tuple[float, ...]] = None

    @property
    def genes(self) -> List[int]:
        """The gene row of the genome this result priced."""
        return genome_to_genes(self.genome)

    @property
    def latency(self) -> float:
        """Total model latency of the design point (cycles)."""
        return self.design.latency

    @property
    def energy(self) -> float:
        """Total model energy of the design point."""
        return self.design.energy

    @property
    def latency_area_product(self) -> float:
        """Latency times area of the design point."""
        return self.design.latency_area_product


class RowGenomeResult(EvaluationResult):
    """A result whose genome materializes from its gene-row fingerprint.

    The gene-matrix path scores whole populations without ever building
    :class:`~repro.encoding.genome.Genome` objects; the few results whose
    ``genome`` is actually read (serialization, analysis) rebuild it from
    the stored row bytes on first access.  The property is a data
    descriptor, so it takes precedence over the inherited dataclass field
    in the instance dict.
    """

    @property
    def genome(self) -> Genome:
        cached = self.__dict__.get("_genome_object")
        if cached is None:
            from repro.encoding.genome_matrix import LEVEL_WIDTH

            row = np.frombuffer(self.__dict__["_genome_row"], dtype=np.int64)
            cached = row_to_genome(row, len(row) // LEVEL_WIDTH)
            self.__dict__["_genome_object"] = cached
        return cached

    @property
    def genes(self) -> List[int]:
        return np.frombuffer(self.__dict__["_genome_row"], dtype=np.int64).tolist()


def _with_row_genome(
    result: EvaluationResult, fingerprint: bytes
) -> EvaluationResult:
    """A copy of ``result`` whose genome rebuilds lazily from its gene row."""
    wrapped = object.__new__(RowGenomeResult)
    wrapped.__dict__.update(result.__dict__)
    wrapped.__dict__["_genome_row"] = fingerprint
    return wrapped


def _first_max(first, second) -> np.ndarray:
    """Elementwise ``max(first, second)`` with Python's tie and NaN rule."""
    return np.where(second > first, second, first)


class ResultBatch(Sequence):
    """A priced population whose results are built when read.

    :attr:`fitnesses`, :attr:`valid` and :attr:`vectors` are plain lists
    over the whole batch: all a GA loop, NSGA-II's ranking or the tracker's
    best-so-far scan and Pareto-archive offers read.  ``vectors`` holds
    each row's objective vector (the ``objective_vector`` its result
    carries) and is None when the evaluator searches no objective set.
    ``batch[i]`` builds row ``i``'s :class:`EvaluationResult` on first
    access and returns the same object afterwards, so a generation that
    only needs its columns never builds a result object.  Batches pickle
    (pool workers return them) and concatenate (:meth:`join`).
    """

    def __init__(
        self,
        fitnesses: List[float],
        valid: List[bool],
        results: Optional[List[Optional[EvaluationResult]]] = None,
        parts: Sequence[Tuple[int, "_ScoredRows"]] = (),
        vectors: Optional[List[Tuple[float, ...]]] = None,
    ):
        self.fitnesses = fitnesses
        self.valid = valid
        self.vectors = vectors
        self._results = [None] * len(fitnesses) if results is None else results
        #: ``(offset, rows)``: positions from ``offset`` on that are still
        #: unbuilt come from ``rows.build(position - offset)``.
        self._parts = list(parts)

    @classmethod
    def of(cls, results: Sequence[EvaluationResult]) -> "ResultBatch":
        """A batch of already-built results."""
        results = list(results)
        vectors = [result.objective_vector for result in results]
        return cls(
            [result.fitness for result in results],
            [result.valid for result in results],
            results,
            vectors=None if all(vector is None for vector in vectors) else vectors,
        )

    @classmethod
    def join(cls, batches: Sequence["ResultBatch"]) -> "ResultBatch":
        """The batches' rows in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        fitnesses: List[float] = []
        valid: List[bool] = []
        vectors: Optional[List[Tuple[float, ...]]] = []
        results: List[Optional[EvaluationResult]] = []
        parts: List[Tuple[int, "_ScoredRows"]] = []
        for batch in batches:
            offset = len(fitnesses)
            parts.extend((offset + start, rows) for start, rows in batch._parts)
            fitnesses += batch.fitnesses
            valid += batch.valid
            if vectors is not None and batch.vectors is not None:
                vectors += batch.vectors
            else:
                vectors = None
            results += batch._results
        return cls(fitnesses, valid, results, parts, vectors)

    def __len__(self) -> int:
        return len(self.fitnesses)

    def __getitem__(self, index: int) -> EvaluationResult:
        result = self._results[index]
        if result is None:
            position = range(len(self))[index]
            for start, rows in reversed(self._parts):
                if position >= start:
                    result = rows.build(position - start)
                    break
            self._results[position] = result
        return result

    def __iter__(self):
        for position in range(len(self)):
            yield self[position]


@dataclass
class _ScoredRows:
    """The score columns of one vector-priced gene matrix.

    Holds what :meth:`build` needs to turn row ``i`` into the
    :class:`RowGenomeResult` that :meth:`DesignEvaluator._score_performance`
    would have produced, field for field; rows the array scoring could not
    price exactly arrive pre-scored in ``oracle``, and their ``fitnesses``,
    ``valid`` and ``vectors`` entries are the oracle's.  The per-row fields
    are Python lists (one C-level ``tolist`` per column).  Under fixed
    hardware ``buffers`` is None and ``areas`` is the shared
    :class:`AreaBreakdown`; otherwise they hold per-row ``(l1_size,
    l2_size)`` and ``(pe_area, l1_area, l2_area)`` tuples.
    """

    data: np.ndarray
    performances: PerformanceBatch
    fitnesses: List[float]
    valid: List[bool]
    values: List[float]
    vectors: Optional[List[Tuple[float, ...]]]
    buffers: Optional[List[Tuple[int, int]]]
    areas: object
    oracle: Dict[int, EvaluationResult]
    objective: Objective
    checker: ConstraintChecker
    fixed_hardware: Optional[HardwareConfig]
    platform: Platform
    bytes_per_element: int

    def build(self, position: int) -> EvaluationResult:
        fingerprint = self.data[position].tobytes()
        oracle = self.oracle.get(position)
        if oracle is not None:
            return _with_row_genome(oracle, fingerprint)
        performance = self.performances[position]
        if self.fixed_hardware is not None:
            hardware = self.fixed_hardware
            area = self.areas
        else:
            l1_size, l2_size = self.buffers[position]
            hardware = object.__new__(HardwareConfig)
            hardware.__dict__.update(
                pe_array=tuple(self.data[position, ::LEVEL_WIDTH].tolist()),
                l1_size=l1_size,
                l2_size=l2_size,
                noc_bandwidth=self.platform.noc_bandwidth,
                dram_bandwidth=self.platform.dram_bandwidth,
                bytes_per_element=self.bytes_per_element,
                frequency_mhz=_DEFAULT_FREQUENCY_MHZ,
            )
            pe_area, l1_area, l2_area = self.areas[position]
            area = object.__new__(AreaBreakdown)
            area.__dict__.update(pe_area=pe_area, l1_area=l1_area, l2_area=l2_area)
        valid = self.valid[position]
        violations = ()
        if not valid:
            violations = self.checker.check(
                hardware,
                area,
                l1_requirement_bytes=performance.l1_requirement_bytes,
                l2_requirement_bytes=performance.l2_requirement_bytes,
            ).violations
        result = object.__new__(RowGenomeResult)
        result.__dict__.update(
            fitness=self.fitnesses[position],
            valid=valid,
            objective=self.objective,
            objective_value=self.values[position],
            design=LazyRowMappingDesign.build(
                hardware, fingerprint, performance, area
            ),
            violations=violations,
            genome=None,
            objective_vector=None if self.vectors is None else self.vectors[position],
            _genome_row=fingerprint,
        )
        return result


class DesignEvaluator:
    """Decodes and scores design points for one model on one platform.

    Single design points go through :meth:`evaluate_genome` (or
    :meth:`evaluate_mapping`); whole populations have exactly one pricing
    path, :meth:`evaluate_matrix`, which :meth:`evaluate_population` feeds
    from a genome list.

    Parameters
    ----------
    model:
        Target DNN model.
    platform:
        Area budget and bandwidth assumptions (edge / cloud).
    objective:
        The metric to minimize.
    fixed_hardware:
        When given, the Fixed-HW use case is enabled: the PE array and
        buffer capacities are pinned and only the mapping is evaluated
        (mappings that do not fit the buffers are invalid).
    area_model / energy_model / bytes_per_element:
        Technology models; defaults are the calibrated models described in
        DESIGN.md.
    buffer_allocation:
        ``"exact"`` (default, the paper's strategy) allocates exactly the
        buffer capacity the decoded mapping needs; ``"fill"`` instead gives
        the L2 all of the area budget left over after PEs and L1s, which is
        the naive alternative used by the buffer-allocation ablation.
    use_cache:
        When True (default) per-design pricing (:meth:`evaluate_genome`,
        :meth:`evaluate_mapping`, and the scalar engines' and non-analytic
        backends' member loops) memoizes whole-design and per-layer
        evaluations behind bounded LRU caches.  The vector engine's
        gene-matrix path uses no cache either way.  Results are
        bit-identical either way; the flag exists for benchmarking and
        debugging (``--no-cache``).
    workers:
        Default process-pool width for :meth:`evaluate_matrix` (and its
        genome-list view :meth:`evaluate_population`).  ``None``/``1``
        evaluates sequentially in-process.
    engine:
        Evaluation-engine selector.  ``"vector"`` (default) prices whole
        gene-matrix populations through the NumPy structure-of-arrays
        engine (:mod:`repro.cost.vector_engine`) and uses the scalar fast
        engine for single evaluations; ``"fast"`` is the scalar tuple-based
        engine; ``"reference"`` is the seed implementation kept for parity
        tests and baseline benchmarks.  All three are bit-identical.
    objectives:
        Optional :class:`~repro.framework.objective.ObjectiveSet`.  When
        given, every :class:`EvaluationResult` additionally carries the
        per-objective value vector, computed from the same cost-model pass
        as the scalar objective (the scalar path is unchanged either way).
    backend:
        Cost-backend selector (:mod:`repro.cost.backend`).  ``"analytic"``
        (default) is the MAESTRO-style order-aware engine this repo
        reproduces; ``"zigzag"`` is the independently coded memory-centric
        model used as a cross-backend correctness oracle
        (``repro crosscheck``).  Non-analytic backends price designs
        through the per-genome path: the vector/matrix fast paths and the
        ``engine`` selector are analytic-backend concepts.
    cache_dir:
        Optional directory of a persistent cross-run layer cache
        (:class:`~repro.cost.persist.PersistentLayerCache`) for
        per-design pricing (:meth:`evaluate_genome` and the per-member
        loops of the scalar engines and non-analytic backends).  There
        the in-memory layer LRU becomes an L1 over this shared on-disk
        L2: misses probe the store before the engine and freshly priced
        rows are written back, so identical queries across sweep jobs and
        successive runs become lookups.  The gene-matrix vector path and
        pool workers never touch it.  Results are bit-identical with or
        without it (served rows are pure functions of their
        content-addressed keys); ignored when ``use_cache`` is False or
        on the reference engine.
    """

    #: Accepted ``engine`` values (the module-level constant).
    ENGINES = ENGINES

    #: Accepted ``backend`` values (from :mod:`repro.cost.backend`).
    BACKENDS = BACKENDS

    def __init__(
        self,
        model: Model,
        platform: Platform,
        objective: Objective = Objective.LATENCY,
        fixed_hardware: Optional[HardwareConfig] = None,
        area_model: Optional[AreaModel] = None,
        energy_model: Optional[EnergyModel] = None,
        bytes_per_element: int = 1,
        buffer_allocation: str = "exact",
        use_cache: bool = True,
        workers: Optional[int] = None,
        engine: str = "vector",
        objectives: Optional[ObjectiveSet] = None,
        backend: str = "analytic",
        cache_dir: Optional[str] = None,
    ):
        if buffer_allocation not in ("exact", "fill"):
            raise ValueError(
                f"buffer_allocation must be 'exact' or 'fill', got {buffer_allocation!r}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 when given, got {workers}")
        if engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        if backend not in self.BACKENDS:
            raise ValueError(
                f"backend must be one of {self.BACKENDS}, got {backend!r}"
            )
        self.engine = engine
        self.backend = backend
        self.model = model
        self.platform = platform
        self.objective = objective
        self.objectives = objectives
        self.fixed_hardware = fixed_hardware
        self.buffer_allocation = buffer_allocation
        self.area_model = area_model if area_model is not None else AreaModel()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.bytes_per_element = bytes_per_element
        self.use_cache = use_cache
        self.workers = workers
        self.cost_model = create_backend(
            backend,
            energy_model=self.energy_model,
            bytes_per_element=bytes_per_element,
            cache_size=DEFAULT_LAYER_CACHE_SIZE if use_cache else 0,
            engine="reference" if engine == "reference" else "fast",
        )
        self.cache_dir = cache_dir
        if cache_dir is not None and use_cache and engine != "reference":
            from repro.cost.persist import PersistentLayerCache

            self.cost_model.attach_persistent_cache(
                PersistentLayerCache(cache_dir)
            )
        self.constraint_checker = ConstraintChecker(
            area_budget_um2=platform.area_budget_um2,
            fixed_hardware=fixed_hardware,
        )
        self._design_cache = LRUCache(
            DEFAULT_DESIGN_CACHE_SIZE if use_cache and engine != "reference" else 0
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: Optional :class:`~repro.experiments.faults.FaultPlan`; ships to
        #: pool workers inside the pickled evaluator so chaos tests can
        #: kill workers deterministically.  ``None`` in production.
        self.fault_plan = None
        #: Lifetime cap on worker-pool respawns after ``BrokenProcessPool``.
        self.max_pool_restarts = DEFAULT_MAX_POOL_RESTARTS
        self._pool_restarts = 0
        #: Sticky: once the restart budget is spent, every later population
        #: call evaluates in-process instead of thrashing a dying pool.
        self._pool_degraded = False
        #: Observability counters for the pool-recovery path.
        self.pool_stats = {
            "broken": 0,
            "restarts": 0,
            "redispatched_chunks": 0,
            "degraded": False,
        }

    # -- public API --------------------------------------------------------

    def genome_space(self, num_levels: int = 2) -> GenomeSpace:
        """Build the genome space matching this evaluator's configuration."""
        fixed_pe_array = (
            self.fixed_hardware.pe_array if self.fixed_hardware is not None else None
        )
        max_pes = self.area_model.max_pes_within(self.platform.area_budget_um2)
        if fixed_pe_array is not None and len(fixed_pe_array) != num_levels:
            raise ValueError(
                f"fixed hardware has {len(fixed_pe_array)} levels, requested {num_levels}"
            )
        return GenomeSpace.from_model(
            self.model,
            max_pes=max_pes,
            num_levels=num_levels,
            fixed_pe_array=fixed_pe_array,
        )

    def evaluate_genome(self, genome: Genome) -> EvaluationResult:
        """Decode and score an encoded individual.

        Whole evaluations are memoized on the mapping's canonical key:
        identical raw mappings (elites copied between generations, converged
        populations) skip decoding and scoring entirely.
        """
        key = genome.cache_key()
        result = self._design_cache.get(key)
        if result is None:
            result = self.evaluate_mapping(genome.to_mapping())
            self._design_cache.put(key, result)
        return _with_genome(result, genome)

    def evaluate_population(
        self,
        genomes: Sequence[Genome],
        workers: Optional[int] = None,
    ) -> Sequence[EvaluationResult]:
        """Score a list of *repaired* genomes in one call, preserving order.

        The genome-list view of :meth:`evaluate_matrix`: the population is
        packed into a :class:`~repro.encoding.genome_matrix.GenomeMatrix`
        (all genomes must share one hierarchy depth) and priced through the
        one population path, so results are bit-identical to evaluating
        the same genomes one by one.  ``workers`` is forwarded unchanged.
        """
        if not genomes:
            return []
        return self.evaluate_matrix(GenomeMatrix.from_genomes(genomes), workers)

    # -- gene-matrix population path ---------------------------------------

    def evaluate_matrix(
        self,
        matrix: GenomeMatrix,
        workers: Optional[int] = None,
    ) -> ResultBatch:
        """Score a whole *repaired* gene-matrix population in one call.

        This is the population data path the matrix-native search loops
        feed: rows must already be repaired (the tracker's
        :meth:`~repro.framework.search.SearchTracker.evaluate_matrix` does
        this with one vectorized pass).  Results are bit-identical to
        ``[self.evaluate_genome(g) for g in matrix.to_genomes()]`` — but no
        per-member ``Genome`` or ``Mapping`` object is ever constructed on
        the vector path: the cost model prices each distinct (design,
        layer) work row once, scoring runs on its aggregate columns, and
        the returned :class:`ResultBatch` carries the fitnesses as a list
        and builds a result (with a lazily materialized genome and
        mapping) only when one is read.  The vector path reads and writes
        no cache: the design and layer LRUs serve per-design pricing only.
        """
        count = len(matrix)
        if count == 0:
            return ResultBatch([], [])
        width = self.workers if workers is None else workers
        if (
            width is not None
            and width > 1
            and count > 1
            and not self._pool_degraded
        ):
            chunk = -(-count // width)
            chunks = [
                GenomeMatrix(matrix.data[start : start + chunk], matrix.num_levels)
                for start in range(0, count, chunk)
            ]
            return ResultBatch.join(self._map_chunks(chunks, width))
        if self.engine != "vector" or self.backend != "analytic":
            # The scalar engines (and non-analytic backends) price member by
            # member; under the analytic backend values are bit-identical,
            # so matrix-native search loops stay exact under every engine
            # selector.  Hierarchy depth is no gate: the vector path prices
            # 1-, 2- and 3+-level matrices natively.
            return ResultBatch.of(
                [self.evaluate_genome(genome) for genome in matrix.to_genomes()]
            )
        return self._evaluate_matrix_vector(matrix)

    def _evaluate_matrix_vector(self, matrix: GenomeMatrix) -> ResultBatch:
        """In-process vector-engine path of :meth:`evaluate_matrix`."""
        data = matrix.data
        count = len(data)
        orders = data.reshape(count, matrix.num_levels, 14)[:, :, 2:8]
        invalid = (np.sort(orders, axis=2) != np.arange(6, dtype=np.int64)).any(
            axis=(1, 2)
        )
        if invalid.any():
            level = orders[np.flatnonzero(invalid)[0]]
            raise ValueError(
                f"order must be a permutation of all dims, got {level.tolist()}"
            )
        performances = self.cost_model.evaluate_model_matrix(
            self.model,
            data,
            noc_bandwidth=self.platform.noc_bandwidth,
            dram_bandwidth=self.platform.dram_bandwidth,
        )
        rows = self._score_columns(data, performances)
        return ResultBatch(
            rows.fitnesses, rows.valid, parts=[(0, rows)], vectors=rows.vectors
        )

    def _score_columns(
        self, data: np.ndarray, performances: PerformanceBatch
    ) -> _ScoredRows:
        """Score a priced gene matrix column by column.

        The arithmetic of :meth:`_score_performance` — derived hardware
        (either buffer allocation) or the fixed hardware, area breakdown,
        constraint check, objective values and fitness — runs on whole
        columns in the same operation order on the same float64 / int64
        values, so every entry carries the oracle's bits.  Rows whose
        integer products could leave int64, or whose requirements are not
        exact in float64, are scored by :meth:`_score_performance` itself
        and kept in the ``oracle`` dict.
        """
        area_model = self.area_model
        budget = self.platform.area_budget_um2
        fixed = self.fixed_hardware
        count = len(data)
        spatial = data[:, ::LEVEL_WIDTH]
        l1 = performances.l1_requirement_bytes
        l2 = performances.l2_requirement_bytes
        risky = np.zeros(count, dtype=bool)
        if l1.dtype != np.int64 or l2.dtype != np.int64:
            # A layer requirement beyond int64: the oracle scores every row.
            risky[:] = True
            l1 = l2 = np.ones(count, dtype=np.int64)
        if fixed is None:
            # PE counts, and PE counts times L1 sizes, that could leave
            # int64 go to the oracle (float estimates, far inside the guard).
            risky |= np.prod(spatial.astype(np.float64), axis=1) >= INT64_GUARD
            num_pes = spatial[:, 0]
            for level in range(1, spatial.shape[1]):
                num_pes = num_pes * spatial[:, level]
            l1_size = np.maximum(l1, 1)
            l2_size = np.maximum(l2, 1)
            risky |= (
                num_pes.astype(np.float64) * l1_size.astype(np.float64)
                >= INT64_GUARD
            )
            pe_area = num_pes * area_model.pe_area_um2
            l1_area = num_pes * l1_size * area_model.l1_area_per_byte_um2
            if self.buffer_allocation == "fill":
                leftover = budget - (pe_area + l1_area)
                grown = leftover // area_model.l2_area_per_byte_um2
                risky |= grown >= INT64_GUARD
                grown = np.clip(grown, -INT64_GUARD, INT64_GUARD).astype(np.int64)
                l2_size = np.where(
                    leftover > 0, _first_max(l2_size, grown), l2_size
                )
            l2_area = l2_size * area_model.l2_area_per_byte_um2
            total = pe_area + (l1_area + l2_area)
            buffers = list(zip(l1_size.tolist(), l2_size.tolist()))
            areas = list(zip(pe_area.tolist(), l1_area.tolist(), l2_area.tolist()))
            ratio = total / budget
            over = ratio > 1.0
            valid = ~over
            severity = np.where(over, ratio, 1.0)
        else:
            buffers = None
            areas = area_model.breakdown(fixed)
            total = np.full(count, areas.total)
            ratio = areas.total / budget
            severity = np.full(count, max(1.0, ratio))
            valid = np.full(count, not ratio > 1.0)
            risky |= (l1 >= _FLOAT_EXACT) | (l2 >= _FLOAT_EXACT)
            if max(fixed.l1_size, fixed.l2_size) >= _FLOAT_EXACT:
                risky[:] = True
            for requirement, capacity in ((l1, fixed.l1_size), (l2, fixed.l2_size)):
                over = requirement > capacity
                valid &= ~over
                severity = np.where(
                    over, _first_max(severity, requirement / capacity), severity
                )
        latency = performances.latency
        energy = performances.energy
        values = objective_column(self.objective, latency, energy, total)
        vectors = None
        if self.objectives is not None:
            vectors = list(
                zip(
                    *(
                        objective_column(objective, latency, energy, total).tolist()
                        for objective in self.objectives
                    )
                )
            )
        fitness = np.where(
            valid,
            -values,
            -INVALID_FITNESS_SCALE * _first_max(1.0, severity),
        )
        fitnesses = fitness.tolist()
        valid_list = valid.tolist()
        oracle: Dict[int, EvaluationResult] = {}
        for position in np.flatnonzero(risky).tolist():
            result = self._score_performance(
                performances[position],
                pe_array=tuple(spatial[position].tolist()),
                mapping_fingerprint=data[position].tobytes(),
            )
            oracle[position] = result
            fitnesses[position] = result.fitness
            valid_list[position] = result.valid
            if vectors is not None:
                vectors[position] = result.objective_vector
        return _ScoredRows(
            data=data,
            performances=performances,
            fitnesses=fitnesses,
            valid=valid_list,
            values=values.tolist(),
            vectors=vectors,
            buffers=buffers,
            areas=areas,
            oracle=oracle,
            objective=self.objective,
            checker=self.constraint_checker,
            fixed_hardware=fixed,
            platform=self.platform,
            bytes_per_element=self.bytes_per_element,
        )

    @property
    def cache_stats(self) -> CacheStats:
        """Combined hit/miss counters of the design and layer caches."""
        return self._design_cache.stats().combined(self.cost_model.cache_stats)

    @property
    def design_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the whole-design memo."""
        return self._design_cache.stats()

    @property
    def layer_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-layer report cache."""
        return self.cost_model.cache_stats

    @property
    def persistent_cache(self):
        """The attached persistent L2 tier, or ``None``."""
        return self.cost_model.layer_cache.tier

    def cache_clear(self) -> None:
        """Drop all memoized evaluations and their counters."""
        self._design_cache.clear()
        self.cost_model.cache_clear()

    def _map_chunks(
        self, chunks: List[GenomeMatrix], width: int
    ) -> List[ResultBatch]:
        """Map deterministic matrix chunks over the pool, surviving dead workers.

        ``pool.map`` yields chunk results in input order, so when a worker
        dies (OOM-killer, segfault, injected ``kill-worker`` fault) and the
        iteration raises :class:`BrokenProcessPool`, every chunk already
        yielded is kept and exactly the undelivered chunks are re-dispatched
        — against a respawned pool while the lifetime restart budget
        (:attr:`max_pool_restarts`) lasts, and in-process once it is spent
        (:attr:`_pool_degraded` then stays set, so later population calls
        skip the pool entirely).  The chunk boundaries never change across
        re-dispatches and every evaluation is a pure function of its genes,
        so results are bit-identical to an undisturbed pool run.
        """
        outputs: List[Optional[ResultBatch]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        while pending:
            if self._pool_degraded:
                for index in pending:
                    outputs[index] = self.evaluate_matrix(chunks[index], workers=1)
                break
            pool = self._ensure_pool(width)
            try:
                cursor = 0
                for batch in pool.map(
                    _evaluate_matrix_in_worker,
                    [chunks[index] for index in pending],
                ):
                    outputs[pending[cursor]] = batch
                    cursor += 1
                pending = []
            except BrokenProcessPool:
                self.pool_stats["broken"] += 1
                self._teardown_pool()
                pending = [index for index in pending if outputs[index] is None]
                self.pool_stats["redispatched_chunks"] += len(pending)
                if self._pool_restarts >= self.max_pool_restarts:
                    self._pool_degraded = True
                    self.pool_stats["degraded"] = True
                else:
                    self._pool_restarts += 1
                    self.pool_stats["restarts"] += 1
        return outputs

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the worker pool (if one was started).

        ``wait=False`` abandons in-flight work instead of joining it — the
        right call when discarding an evaluator whose pool may be broken or
        whose search may still be running on a watchdog thread.

        A persistent cache tier is flushed and its index persisted; the
        close is not terminal (the next lookup reopens the store).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None
            self._pool_workers = 0
        tier = self.cost_model.layer_cache.tier
        if tier is not None:
            tier.close()

    def close(self) -> None:
        """Alias of :meth:`shutdown` (context-manager symmetry)."""
        self.shutdown()

    def __enter__(self) -> "DesignEvaluator":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.shutdown()

    def _teardown_pool(self) -> None:
        """Drop a (possibly broken) pool without joining its workers."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False)
            except Exception:
                pass
            self._pool = None
            self._pool_workers = 0

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """Start (or resize) the lazily created evaluation worker pool."""
        if self._pool is None or self._pool_workers != workers:
            self.shutdown()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self,),
            )
            self._pool_workers = workers
        return self._pool

    def __getstate__(self) -> dict:
        # Worker pools never cross process boundaries; caches restart
        # empty in the worker (see LRUCache.__getstate__).
        state = dict(self.__dict__)
        state["_pool"] = None
        state["_pool_workers"] = 0
        return state

    def evaluate_mapping(
        self,
        mapping: Mapping | Callable[[Layer], Mapping],
        pe_array: Optional[tuple] = None,
    ) -> EvaluationResult:
        """Score a mapping (or per-layer mapping provider) directly.

        Used by the Fixed-Mapping use case and the HW-opt grid-search
        baseline, where mappings come from dataflow templates rather than
        from the genome encoding.  ``pe_array`` must be given when
        ``mapping`` is a callable (the spatial sizes cannot be read off it).
        """
        if isinstance(mapping, Mapping):
            representative_mapping = mapping
        else:
            if pe_array is None:
                raise ValueError("pe_array is required for per-layer mapping providers")
            representative_mapping = None

        performance = self.cost_model.evaluate_model(
            self.model,
            mapping,
            noc_bandwidth=self.platform.noc_bandwidth,
            dram_bandwidth=self.platform.dram_bandwidth,
        )
        return self._score_performance(
            performance,
            pe_array=pe_array
            if pe_array is not None
            else representative_mapping.pe_array,
            design_mapping=representative_mapping
            if representative_mapping is not None
            else mapping(self.model.unique_layers()[0]),
        )

    # -- internals ---------------------------------------------------------

    def _score_performance(
        self,
        performance: ModelPerformance,
        pe_array: tuple,
        design_mapping: Optional[Mapping] = None,
        mapping_fingerprint: Optional[bytes] = None,
    ) -> EvaluationResult:
        """Turn a cost-model report into a scored design point.

        The design's mapping comes eagerly (``design_mapping``) or as a
        gene-row fingerprint (``mapping_fingerprint``), which rebuilds the
        mapping lazily on first access (the matrix path, where almost no
        mapping is ever inspected).
        """
        hardware = self._derive_hardware(performance, pe_array=pe_array)
        area = self.area_model.breakdown(hardware)
        check = self.constraint_checker.check(
            hardware,
            area,
            l1_requirement_bytes=performance.l1_requirement_bytes,
            l2_requirement_bytes=performance.l2_requirement_bytes,
        )
        value = objective_value(self.objective, performance, area)
        fitness = self._fitness(value, check.valid, check.severity)
        vector = (
            self.objectives.values(performance, area)
            if self.objectives is not None
            else None
        )
        if design_mapping is not None:
            design = AcceleratorDesign(
                hardware=hardware,
                mapping=design_mapping,
                performance=performance,
                area=area,
            )
        else:
            design = LazyRowMappingDesign.build(
                hardware, mapping_fingerprint, performance, area
            )
        return EvaluationResult(
            fitness=fitness,
            valid=check.valid,
            objective=self.objective,
            objective_value=value,
            design=design,
            violations=check.violations,
            genome=None,
            objective_vector=vector,
        )

    def _derive_hardware(
        self,
        performance: ModelPerformance,
        pe_array: tuple,
    ) -> HardwareConfig:
        """Apply the buffer-allocation strategy (or return the fixed HW)."""
        if self.fixed_hardware is not None:
            return self.fixed_hardware
        l1_size = max(1, performance.l1_requirement_bytes)
        l2_size = max(1, performance.l2_requirement_bytes)
        if self.buffer_allocation == "fill":
            num_pes = 1
            for size in pe_array:
                num_pes *= int(size)
            committed = (
                num_pes * self.area_model.pe_area_um2
                + num_pes * l1_size * self.area_model.l1_area_per_byte_um2
            )
            leftover = self.platform.area_budget_um2 - committed
            if leftover > 0:
                l2_size = max(
                    l2_size, int(leftover // self.area_model.l2_area_per_byte_um2)
                )
        return HardwareConfig(
            pe_array=tuple(pe_array),
            l1_size=l1_size,
            l2_size=l2_size,
            noc_bandwidth=self.platform.noc_bandwidth,
            dram_bandwidth=self.platform.dram_bandwidth,
            bytes_per_element=self.bytes_per_element,
        )

    @staticmethod
    def _fitness(value: float, valid: bool, severity: float) -> float:
        """Higher-is-better fitness with graded penalties for invalid points."""
        if valid:
            return -value
        return -INVALID_FITNESS_SCALE * max(1.0, severity)

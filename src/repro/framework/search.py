"""Search bookkeeping shared by every optimization algorithm.

The paper's Optimization Block exposes one knob to all algorithms: the
sampling budget.  :class:`SearchTracker` enforces that budget, counts
evaluations, records the best design point found so far and offers both the
genome view and the flat-vector view of the encoding, so any algorithm can
be plugged in without touching the framework.  Population-based algorithms
should prefer the batched views (:meth:`SearchTracker.evaluate_batch` /
:meth:`SearchTracker.evaluate_vector_batch`): whole generations are scored
in one evaluator call, which prices them on the vector engine (repeated
rows once) and lets the evaluator fan the work out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.cache import CacheStats
from repro.encoding.genome import Genome, GenomeSpace
from repro.encoding.genome_matrix import GenomeMatrix, repaired_matrix
from repro.encoding.repair import repaired_copy
from repro.encoding.vector_codec import VectorCodec
from repro.framework.evaluator import DesignEvaluator, EvaluationResult, ResultBatch
from repro.framework.pareto import ParetoArchive


class BudgetExhausted(RuntimeError):
    """Raised when an optimizer requests an evaluation beyond the budget."""


class SearchInterrupted(RuntimeError):
    """Raised at a generation boundary when an interrupt was requested.

    Unlike :class:`BudgetExhausted` this is *not* swallowed by the
    framework: it propagates to the caller (the sweep runner records an
    ``interrupted`` result), leaving the just-written checkpoint on disk
    so a later run resumes instead of restarting.
    """


class SearchTracker:
    """Budget-enforcing fitness function with best-so-far tracking."""

    def __init__(
        self,
        evaluator: DesignEvaluator,
        space: GenomeSpace,
        sampling_budget: int,
        archive: Optional[ParetoArchive] = None,
    ):
        if sampling_budget < 1:
            raise ValueError("sampling_budget must be >= 1")
        self.evaluator = evaluator
        self.space = space
        self.codec = VectorCodec(space)
        self.sampling_budget = sampling_budget
        #: Optional Pareto archive fed with every *valid* result carrying an
        #: objective vector, regardless of which optimizer runs: the front
        #: of a search is a property of its evaluations, not its algorithm.
        self.archive = archive
        self.evaluations = 0
        #: Number of calls to the batched evaluation views.
        self.batch_calls = 0
        #: Evaluations performed through the batched views (counted once,
        #: even when a vector batch is routed through the genome batch).
        self.batched_evaluations = 0
        self.best: Optional[EvaluationResult] = None
        #: (evaluation index, best fitness so far) recorded at every improvement.
        self.history: List[Tuple[int, float]] = []
        #: 1-based generation boundary counter, advanced by
        #: :meth:`checkpoint_generation` (0 while in the initial population).
        self.generation = 0
        #: Human-facing label of this run (job id under the sweep runner);
        #: generation-targeted fault specs match against it.
        self.run_label = ""
        #: Attached :class:`~repro.framework.checkpoint.CheckpointSession`,
        #: or None when the search runs without checkpointing.
        self.checkpoint_session = None
        #: Zero-arg callable polled at generation boundaries; truthy means
        #: "checkpoint now and raise :class:`SearchInterrupted`".
        self.interrupt_check = None
        #: Optimizer loop state restored from a checkpoint, consumed once
        #: by the optimizer via :func:`repro.optim.base.resume_state`.
        self.resume_state = None

    # -- budget ------------------------------------------------------------

    @property
    def remaining(self) -> int:
        """Evaluations left in the sampling budget."""
        return max(0, self.sampling_budget - self.evaluations)

    @property
    def exhausted(self) -> bool:
        """True once the sampling budget has been spent."""
        return self.remaining == 0

    # -- evaluation views --------------------------------------------------

    def evaluate_genome(self, genome: Genome) -> float:
        """Evaluate an encoded individual; returns its fitness (higher is better)."""
        self._charge()
        repaired = repaired_copy(genome, self.space)
        result = self.evaluator.evaluate_genome(repaired)
        self._record(result)
        return result.fitness

    def evaluate_vector(self, vector: np.ndarray) -> float:
        """Evaluate a flat ``[0, 1]^n`` vector; returns its fitness."""
        self._charge()
        genome = self.codec.decode(vector)
        repaired = repaired_copy(genome, self.space)
        result = self.evaluator.evaluate_genome(repaired)
        self._record(result)
        return result.fitness

    def evaluate_batch(self, genomes: Sequence[Genome]) -> List[float]:
        """Evaluate a population slice in one call; returns its fitnesses.

        Only as many genomes as the remaining budget allows are evaluated
        (in order), so the returned list may be shorter than the input —
        callers should stop when that happens.  Results are bit-identical
        to evaluating the same genomes one by one.
        """
        return self.evaluate_batch_results(genomes).fitnesses

    def evaluate_batch_results(self, genomes: Sequence[Genome]) -> ResultBatch:
        """Batched view returning full results instead of scalar fitnesses.

        Multi-objective algorithms need the per-objective vectors (and the
        decoded designs) of a whole generation.  The genome list is packed
        into a gene matrix and rides :meth:`evaluate_matrix_results` —
        identical budget/bookkeeping semantics and one vectorized repair
        pass — just without collapsing each result to its scalar fitness.
        """
        batch = list(genomes)[: self.remaining]
        if not batch:
            self.batch_calls += 1
            return ResultBatch([], [])
        return self.evaluate_matrix_results(GenomeMatrix.from_genomes(batch))

    def evaluate_matrix(self, matrix: GenomeMatrix) -> List[float]:
        """Evaluate a gene-matrix population in one call; returns fitnesses.

        The matrix-native counterpart of :meth:`evaluate_batch` — same
        budget/truncation semantics, bit-identical fitnesses — fed by the
        population data path: one vectorized repair pass, then the
        evaluator's packed vector engine and array scoring.  No per-member
        ``Genome`` is constructed, and the only result objects built are
        the ones that improve on the best so far (plus, with a Pareto
        archive, the valid ones it is offered).
        """
        return self.evaluate_matrix_results(matrix).fitnesses

    def evaluate_matrix_results(self, matrix: GenomeMatrix) -> ResultBatch:
        """Gene-matrix view returning the lazy result batch (multi-objective
        loops read its results; see :class:`ResultBatch`)."""
        batch = matrix.truncated(min(len(matrix), self.remaining))
        if len(batch) == 0:
            self.batch_calls += 1
            return ResultBatch([], [])
        results = self.evaluator.evaluate_matrix(
            repaired_matrix(batch, self.space)
        )
        self.batch_calls += 1
        self.batched_evaluations += len(results)
        self._record_batch(results)
        return results

    def evaluate_vector_batch(self, vectors: Sequence[np.ndarray]) -> List[float]:
        """Evaluate a batch of flat vectors; returns their fitnesses.

        Budget semantics match :meth:`evaluate_batch` (truncated to the
        remaining budget).  Vectors decode straight into gene-matrix rows —
        one decoded gene row per vector, no intermediate ``Genome`` — and
        ride the same population data path as :meth:`evaluate_matrix`.
        """
        batch = list(vectors)[: self.remaining]
        if not batch:
            self.batch_calls += 1
            return []
        matrix = self.codec.decode_matrix(batch)
        return self.evaluate_matrix(matrix)

    @property
    def vector_dimension(self) -> int:
        """Length of the flat-vector encoding."""
        return self.codec.dimension

    @property
    def cache_stats(self) -> CacheStats:
        """Combined evaluation-cache counters of the underlying evaluator."""
        return self.evaluator.cache_stats

    # -- generation boundaries ---------------------------------------------

    def checkpoint_generation(self, state) -> None:
        """Mark a generation boundary; the first statement of a loop iteration.

        ``state`` is a zero-argument callable returning the optimizer's
        JSON-able loop-state dict — a callable so normal, uncheckpointed
        runs never pay the serialization cost.  In boundary order: the
        generation counter advances, the previous boundary's background
        checkpoint write is awaited (so it is durable before anything of
        this boundary happens), generation-targeted fault specs fire
        (chaos testing of exactly this machinery), a checkpoint is saved
        when the cadence — or a pending interrupt — calls for one, and a
        pending interrupt then waits for that save to be published and
        raises :class:`SearchInterrupted`.

        Because this runs *before* the boundary's breeding/evaluation, a
        restore that rewinds the counter by one re-enters the same
        boundary: numbering, cadence and fault matching are identical to
        the uninterrupted run.
        """
        self.generation += 1
        session = self.checkpoint_session
        if session is not None:
            session.wait()
        fault_plan = getattr(self.evaluator, "fault_plan", None)
        if fault_plan is not None:
            on_generation = getattr(fault_plan, "on_generation", None)
            if on_generation is not None:
                on_generation(self.run_label, self.generation)
        interrupted = self.interrupt_check is not None and bool(
            self.interrupt_check()
        )
        if session is not None and (
            interrupted or session.due(self.generation)
        ):
            session.save(self, state())
        if interrupted:
            detail = ""
            if session is not None:
                session.wait()
                detail = " (checkpoint saved)"
            raise SearchInterrupted(
                f"search interrupted at generation boundary "
                f"{self.generation}{detail}"
            )

    # -- internals ---------------------------------------------------------

    def _charge(self) -> None:
        if self.exhausted:
            raise BudgetExhausted(
                f"sampling budget of {self.sampling_budget} evaluations exhausted"
            )
        self.evaluations += 1

    def _record_batch(self, results: ResultBatch) -> None:
        """:meth:`_record` over a priced batch, in row order.

        Best-so-far and history scan the fitness list and build only the
        results that improve on the best; the archive is offered every
        valid result, in order.  The two never read each other's state, so
        this equals calling :meth:`_record` row by row.
        """
        start = self.evaluations
        best_fitness = None if self.best is None else self.best.fitness
        for offset, fitness in enumerate(results.fitnesses):
            if best_fitness is None or fitness > best_fitness:
                best_fitness = fitness
                self.best = results[offset]
                self.history.append((start + offset + 1, fitness))
        self.evaluations = start + len(results)
        if self.archive is not None:
            for offset, valid in enumerate(results.valid):
                if valid:
                    result = results[offset]
                    if result.objective_vector is not None:
                        self.archive.add(result)

    def _record(self, result: EvaluationResult) -> None:
        if self.best is None or result.fitness > self.best.fitness:
            self.best = result
            self.history.append((self.evaluations, result.fitness))
        if (
            self.archive is not None
            and result.valid
            and result.objective_vector is not None
        ):
            self.archive.add(result)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run."""

    optimizer_name: str
    best: Optional[EvaluationResult]
    evaluations: int
    sampling_budget: int
    wall_time_seconds: float
    history: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)

    @property
    def found_valid(self) -> bool:
        """True when the search found at least one budget-respecting design."""
        return self.best is not None and self.best.valid

    @property
    def evals_per_second(self) -> float:
        """Search throughput (evaluations per wall-clock second)."""
        if self.wall_time_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.wall_time_seconds

    @property
    def best_latency(self) -> float:
        """Latency of the best valid design (``inf`` when none was found)."""
        if not self.found_valid:
            return float("inf")
        return self.best.latency

    @property
    def best_latency_area_product(self) -> float:
        """Latency-area product of the best valid design (``inf`` when none)."""
        if not self.found_valid:
            return float("inf")
        return self.best.latency_area_product

    @property
    def best_objective_value(self) -> float:
        """Objective value of the best valid design (``inf`` when none)."""
        if not self.found_valid:
            return float("inf")
        return self.best.objective_value

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not self.found_valid:
            return (
                f"{self.optimizer_name}: no valid design found "
                f"({self.evaluations}/{self.sampling_budget} samples, "
                f"{self.evals_per_second:.0f} evals/s)"
            )
        return (
            f"{self.optimizer_name}: latency={self.best_latency:.3e} cycles, "
            f"LAP={self.best_latency_area_product:.3e} "
            f"({self.evaluations}/{self.sampling_budget} samples, "
            f"{self.wall_time_seconds:.1f}s, {self.evals_per_second:.0f} evals/s)"
        )

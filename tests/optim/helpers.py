"""Test helpers for optimizer unit tests.

``QuadraticTracker`` mimics the :class:`SearchTracker` interface with a
cheap analytic fitness (a negated sphere function), so the black-box
optimizers can be unit-tested for convergence without the full framework.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

import numpy as np

from repro.encoding.genome import Genome, GenomeSpace
from repro.encoding.vector_codec import VectorCodec
from repro.framework.search import BudgetExhausted


def make_space(max_pes: int = 256) -> GenomeSpace:
    """A small genome space independent of any model."""
    return GenomeSpace(
        dim_bounds={"K": 64, "C": 64, "Y": 16, "X": 16, "R": 3, "S": 3},
        max_pes=max_pes,
        num_levels=2,
    )


class QuadraticTracker:
    """Tracker stub whose fitness is ``-||x - target||^2``.

    Genome evaluations are scored through the codec's (approximate) encoding
    so both evaluation views share one optimum.
    """

    def __init__(self, sampling_budget: int, dimension_target: float = 0.7):
        self.space = make_space()
        self.codec = VectorCodec(self.space)
        self.vector_dimension = self.codec.dimension
        self.sampling_budget = sampling_budget
        self.evaluations = 0
        self.target = np.full(self.codec.dimension, dimension_target)
        self.best_fitness = -np.inf
        self.fitness_log: List[float] = []

    @property
    def remaining(self) -> int:
        return max(0, self.sampling_budget - self.evaluations)

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def _score(self, vector: np.ndarray) -> float:
        self.evaluations += 1
        fitness = -float(np.sum((np.asarray(vector) - self.target) ** 2))
        self.best_fitness = max(self.best_fitness, fitness)
        self.fitness_log.append(fitness)
        return fitness

    def evaluate_vector(self, vector: np.ndarray) -> float:
        if self.exhausted:
            raise BudgetExhausted("budget exhausted")
        return self._score(np.clip(np.asarray(vector, dtype=float), 0.0, 1.0))

    def evaluate_genome(self, genome: Genome) -> float:
        if self.exhausted:
            raise BudgetExhausted("budget exhausted")
        return self._score(self.codec.encode(genome))

    def evaluate_matrix(self, matrix) -> List[float]:
        return [result.fitness for result in self.evaluate_matrix_results(matrix)]

    def evaluate_matrix_results(self, matrix) -> List[SimpleNamespace]:
        """Gene-matrix view, truncated to the remaining budget.

        Each result carries only the fields the GA loops read; as a
        single-objective stub every result is valid with no vector.
        """
        genomes = matrix.truncated(min(len(matrix), self.remaining)).to_genomes()
        results = []
        for genome in genomes:
            fitness = self._score(self.codec.encode(genome))
            results.append(
                SimpleNamespace(
                    fitness=fitness,
                    valid=True,
                    objective_value=-fitness,
                    objective_vector=None,
                )
            )
        return results

    def first_sample_fitness(self) -> float:
        """Fitness of the very first sample (a random-start reference)."""
        return self.fitness_log[0] if self.fitness_log else -np.inf


class BatchSpyTracker(QuadraticTracker):
    """Quadratic tracker with the batched views and call counters.

    Mirrors :class:`SearchTracker`'s batch semantics (truncate to the
    remaining budget) while recording how many evaluations arrived through
    the batched path — used to assert optimizers keep the fast path when
    wrapped (e.g. inside a portfolio's budget slice).
    """

    def __init__(self, sampling_budget: int, dimension_target: float = 0.7):
        super().__init__(sampling_budget, dimension_target)
        self.batch_calls = 0
        self.batched_evaluations = 0

    def evaluate_batch(self, genomes) -> List[float]:
        batch = list(genomes)[: self.remaining]
        self.batch_calls += 1
        self.batched_evaluations += len(batch)
        return [self._score(self.codec.encode(genome)) for genome in batch]

    def evaluate_matrix_results(self, matrix) -> List[SimpleNamespace]:
        results = super().evaluate_matrix_results(matrix)
        self.batch_calls += 1
        self.batched_evaluations += len(results)
        return results

    def evaluate_vector_batch(self, vectors) -> List[float]:
        batch = list(vectors)[: self.remaining]
        self.batch_calls += 1
        self.batched_evaluations += len(batch)
        return [
            self._score(np.clip(np.asarray(vector, dtype=float), 0.0, 1.0))
            for vector in batch
        ]

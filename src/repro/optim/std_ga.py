"""Standard genetic algorithm baseline.

This is the "stdGA" baseline of the paper: conventional uniform crossover
and random gene mutation applied blindly to the encoded design point,
without any of DiGamma's domain-aware operators.  Its poor sample efficiency
relative to DiGamma isolates the contribution of the specialised operators.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.encoding.genome import log_uniform_int
from repro.encoding.genome_matrix import LEVEL_WIDTH, GenomeMatrix
from repro.framework.search import SearchTracker
from repro.optim.base import (
    Optimizer,
    checkpoint_generation,
    matrix_view,
    resume_state,
)
from repro.workloads.dims import DIMS


class StandardGA(Optimizer):
    """Elitist GA with uniform crossover and per-gene random mutation.

    The generation loop breeds a packed gene matrix and scores it through
    the tracker's
    :meth:`~repro.framework.search.SearchTracker.evaluate_matrix` view.
    """

    name = "stdGA"
    supports_checkpoint = True

    def __init__(
        self,
        population_size: int = 40,
        elite_ratio: float = 0.1,
        crossover_rate: float = 0.8,
        mutation_rate: float = 0.1,
    ):
        if population_size < 4:
            raise ValueError("population_size must be >= 4")
        if not 0.0 < elite_ratio < 1.0:
            raise ValueError("elite_ratio must be in (0, 1)")
        self.population_size = population_size
        self.elite_ratio = elite_ratio
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        evaluate = matrix_view(tracker, "evaluate_matrix")
        space = tracker.space
        state = resume_state(tracker, "stdga-matrix")
        if state is not None:
            population = GenomeMatrix(
                np.array(state["rows"], dtype=np.int64),
                int(state["num_levels"]),
            )
            num_levels = population.num_levels
            fitnesses = [float(value) for value in state["fitnesses"]]
        else:
            population = GenomeMatrix.from_genomes(
                space.random_population(self.population_size, rng)
            )
            num_levels = population.num_levels
            fitnesses = evaluate(population)
            if len(fitnesses) < len(population):
                return

        def loop_state():
            return {
                "kind": "stdga-matrix",
                "rows": population.data.tolist(),
                "num_levels": num_levels,
                "fitnesses": [float(value) for value in fitnesses],
            }

        num_elites = max(1, int(self.population_size * self.elite_ratio))
        while not tracker.exhausted:
            checkpoint_generation(tracker, loop_state)
            order = np.argsort(fitnesses)[::-1]
            parents = population.data.tolist()

            children = [parents[i].copy() for i in order[:num_elites]]
            while len(children) < self.population_size:
                parent_a = parents[int(rng.choice(order[: self.population_size // 2]))]
                parent_b = parents[int(rng.choice(order[: self.population_size // 2]))]
                child = (
                    self._uniform_crossover_row(parent_a, parent_b, num_levels, rng)
                    if rng.random() < self.crossover_rate
                    else parent_a.copy()
                )
                self._mutate_row(child, space, num_levels, rng)
                children.append(child)

            population = GenomeMatrix(
                np.array(children, dtype=np.int64), num_levels
            )
            fitnesses = evaluate(population)
            if len(fitnesses) < len(population):
                return

    # -- blind genetic operators on gene rows ---------------------------------

    @staticmethod
    def _uniform_crossover_row(
        a: List[int], b: List[int], num_levels: int, rng: np.random.Generator
    ) -> List[int]:
        child = a.copy()
        for level in range(num_levels):
            base = level * LEVEL_WIDTH
            if rng.random() < 0.5:
                child[base] = b[base]
            if rng.random() < 0.5:
                child[base + 1] = b[base + 1]
            if rng.random() < 0.5:
                child[base + 2 : base + 8] = b[base + 2 : base + 8]
            for column in range(base + 8, base + 14):
                if rng.random() < 0.5:
                    child[column] = b[column]
        return child

    def _mutate_row(
        self,
        row: List[int],
        space,
        num_levels: int,
        rng: np.random.Generator,
    ) -> None:
        rate = self.mutation_rate
        for level_index in range(num_levels):
            base = level_index * LEVEL_WIDTH
            if rng.random() < rate:
                row[base] = log_uniform_int(
                    rng, 1, space.spatial_bound(level_index)
                )
            if rng.random() < rate:
                # Indexing with integers() draws the same stream as
                # rng.choice(DIMS) at a fraction of the per-call cost.
                row[base + 1] = int(rng.integers(len(DIMS)))
            if rng.random() < rate:
                order = row[base + 2 : base + 8]
                rng.shuffle(order)
                row[base + 2 : base + 8] = order
            for position, dim in enumerate(DIMS):
                if rng.random() < rate:
                    row[base + 8 + position] = log_uniform_int(
                        rng, 1, space.dim_bounds[dim]
                    )

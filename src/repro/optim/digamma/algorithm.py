"""The DiGamma genetic algorithm (paper Sec. IV-C).

DiGamma is an elitist genetic algorithm over the structured genome encoding
whose operators (see :mod:`repro.optim.digamma.operators`) are specialised
for the HW-Mapping co-optimization space.  Buffer sizes are never part of
the genome: the evaluation block allocates exactly the buffer capacity the
decoded mapping needs, so the search walks the compute-vs-memory area
trade-off through the PE-array and tiling genes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.encoding.genome_matrix import GenomeMatrix, genome_to_genes
from repro.framework.search import SearchTracker
from repro.optim.base import (
    Optimizer,
    checkpoint_generation,
    matrix_view,
    resume_state,
)
from repro.optim.digamma import operators


@dataclass(frozen=True)
class DiGammaHyperParameters:
    """Hyper-parameters of the DiGamma GA.

    The paper tunes these with Bayesian optimization; the defaults below
    come from a small sweep (see ``benchmarks/bench_ablation_operators.py``)
    and are intentionally unexciting: a moderately sized population with a
    small elite fraction and operator rates that apply roughly one
    structured perturbation per child.
    """

    population_size: Optional[int] = None
    elite_ratio: float = 0.10
    crossover_rate: float = 0.60
    reorder_rate: float = 0.30
    grow_rate: float = 0.40
    mutate_map_rate: float = 0.50
    mutate_hw_rate: float = 0.30
    #: Fraction of each generation re-seeded with fresh random genomes to
    #: keep diversity in the very rugged co-optimization landscape.
    immigration_ratio: float = 0.05

    def __post_init__(self) -> None:
        if self.population_size is not None and self.population_size < 4:
            raise ValueError("population_size must be >= 4 when given")
        if not 0.0 < self.elite_ratio < 1.0:
            raise ValueError("elite_ratio must be in (0, 1)")
        for name in (
            "crossover_rate",
            "reorder_rate",
            "grow_rate",
            "mutate_map_rate",
            "mutate_hw_rate",
            "immigration_ratio",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def resolved_population(self, sampling_budget: int) -> int:
        """Population size: explicit value, or scaled to the sampling budget."""
        if self.population_size is not None:
            return self.population_size
        return int(np.clip(sampling_budget // 25, 20, 100))


class DiGamma(Optimizer):
    """Domain-aware genetic algorithm for HW-Mapping co-optimization.

    Parameters
    ----------
    hyper_parameters:
        GA hyper-parameters; defaults follow DESIGN.md.
    use_hw_operators:
        When False the Mutate-HW operator is disabled.  This is how the
        GAMMA mapping-only baseline and the operator ablation are built.
    use_structured_operators:
        When False, reorder / grow / mutate-map degrade to nothing and only
        plain crossover remains (ablation support).
    seeded_fraction:
        Fraction of the initial population drawn from the domain-informed
        sampler (:func:`repro.optim.digamma.operators.seeded_genome`)
        instead of the uniform random sampler.

    The generation loop keeps the population as a
    :class:`~repro.encoding.genome_matrix.GenomeMatrix`, breeds it with the
    row twins of the genome operators (same RNG stream, no per-member
    ``Genome`` allocation) and scores it through the tracker's
    :meth:`~repro.framework.search.SearchTracker.evaluate_matrix` view.
    """

    name = "DiGamma"
    supports_checkpoint = True

    def __init__(
        self,
        hyper_parameters: Optional[DiGammaHyperParameters] = None,
        use_hw_operators: bool = True,
        use_structured_operators: bool = True,
        seeded_fraction: float = 0.5,
    ):
        if not 0.0 <= seeded_fraction <= 1.0:
            raise ValueError("seeded_fraction must be in [0, 1]")
        self.hyper_parameters = (
            hyper_parameters if hyper_parameters is not None else DiGammaHyperParameters()
        )
        self.use_hw_operators = use_hw_operators
        self.use_structured_operators = use_structured_operators
        self.seeded_fraction = seeded_fraction

    # -- GA loop -------------------------------------------------------------

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        evaluate = matrix_view(tracker, "evaluate_matrix")
        params = self.hyper_parameters
        space = tracker.space
        population_size = params.resolved_population(tracker.sampling_budget)
        num_elites = max(1, int(population_size * params.elite_ratio))
        num_immigrants = int(population_size * params.immigration_ratio)

        state = resume_state(tracker, "digamma-matrix")
        if state is not None:
            population = GenomeMatrix(
                np.array(state["rows"], dtype=np.int64),
                int(state["num_levels"]),
            )
            num_levels = population.num_levels
            fitnesses = [float(value) for value in state["fitnesses"]]
        else:
            population = GenomeMatrix.from_genomes(
                operators.initial_population(
                    space, population_size, self.seeded_fraction, rng
                )
            )
            num_levels = population.num_levels
            fitnesses = evaluate(population)
            if len(fitnesses) < len(population):
                return

        def loop_state():
            return {
                "kind": "digamma-matrix",
                "rows": population.data.tolist(),
                "num_levels": num_levels,
                "fitnesses": [float(value) for value in fitnesses],
            }

        while not tracker.exhausted:
            checkpoint_generation(tracker, loop_state)
            order = np.argsort(fitnesses)[::-1]
            parents = population.data.tolist()
            pool = [parents[i] for i in order[: max(2, population_size // 2)]]

            children = [parents[i].copy() for i in order[:num_elites]]
            for _ in range(num_immigrants):
                children.append(genome_to_genes(space.random_genome(rng)))
            while len(children) < population_size:
                children.append(
                    self._make_child_row(pool, space, num_levels, rng)
                )

            population = GenomeMatrix(
                np.array(children, dtype=np.int64), num_levels
            )
            fitnesses = evaluate(population)
            if len(fitnesses) < len(population):
                return

    # -- reproduction ----------------------------------------------------------

    def _make_child_row(
        self,
        pool: List[List[int]],
        space,
        num_levels: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Breed one child row from two parents drawn from ``pool``.

        Applies the row twins of the genome operators in
        :mod:`repro.optim.digamma.operators`, which consume the identical
        RNG stream and produce the identical genes.
        """
        params = self.hyper_parameters
        parent_a = pool[int(rng.integers(len(pool)))]
        parent_b = pool[int(rng.integers(len(pool)))]

        if rng.random() < params.crossover_rate:
            child = operators.crossover_rows(parent_a, parent_b, num_levels, rng)
        else:
            child = parent_a.copy()

        if self.use_structured_operators:
            if rng.random() < params.reorder_rate:
                operators.reorder_row(child, num_levels, rng)
            if rng.random() < params.grow_rate:
                operators.grow_row(child, space, num_levels, rng)
            if rng.random() < params.mutate_map_rate:
                operators.mutate_map_row(child, space, num_levels, rng)
        if self.use_hw_operators and rng.random() < params.mutate_hw_rate:
            operators.mutate_hw_row(child, space, num_levels, rng)
        return child

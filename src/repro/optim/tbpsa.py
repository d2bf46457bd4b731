"""Test-based population-size adaptation (TBPSA) baseline.

TBPSA is a population-based evolution strategy designed for noisy
optimization: it keeps a Gaussian search distribution whose mean and step
size are re-estimated from the best half of each population, and it grows
the population over time to average out noise.  This is a faithful
simplified re-implementation of the algorithm as popularised by the
nevergrad library, which the paper uses as its TBPSA baseline.  Each
generation is sampled before any fitness is read, so it is priced as one
batch on the gene-matrix path.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer, evaluate_vectors


class TBPSA(Optimizer):
    """Population-size-adaptive (mu/mu, lambda) evolution strategy."""

    name = "TBPSA"

    def __init__(
        self,
        initial_population: Optional[int] = None,
        initial_sigma: float = 0.25,
        growth: float = 1.2,
    ):
        if initial_sigma <= 0:
            raise ValueError("initial_sigma must be positive")
        if growth < 1.0:
            raise ValueError("growth must be >= 1.0")
        self.initial_population = initial_population
        self.initial_sigma = initial_sigma
        self.growth = growth

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        dimension = tracker.vector_dimension
        lam = self.initial_population or (4 + int(3 * math.log(dimension)))
        sigma = self.initial_sigma
        mean = rng.random(dimension)
        stagnation = 0
        best_seen = -np.inf

        while not tracker.exhausted:
            mu = max(1, lam // 2)
            candidates = [
                np.clip(mean + sigma * rng.standard_normal(dimension), 0.0, 1.0)
                for _ in range(min(lam, tracker.remaining))
            ]
            fitnesses = evaluate_vectors(tracker, candidates)
            if len(fitnesses) < lam:
                return

            order = np.argsort(fitnesses)[::-1][:mu]
            elite = np.array([candidates[i] for i in order])
            new_mean = elite.mean(axis=0)

            # Step-size update: shrink when the mean stops moving, grow the
            # population when progress stalls (the "test-based" adaptation).
            movement = float(np.linalg.norm(new_mean - mean))
            mean = new_mean
            sigma = float(np.clip(0.9 * sigma + 0.3 * movement, 1e-4, 0.5))

            generation_best = max(fitnesses)
            if generation_best > best_seen:
                best_seen = generation_best
                stagnation = 0
            else:
                stagnation += 1
                if stagnation >= 2:
                    lam = int(math.ceil(lam * self.growth))
                    stagnation = 0

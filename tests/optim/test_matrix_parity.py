"""Trajectory parity of the gene-matrix search loops.

The hard invariant of this repository's perf work: rewriting a search
inner loop must not change *anything* about the search — the RNG stream,
the fitness sequence, the best design, the history.  Every matrix-native
loop is pinned here against a per-genome reference loop kept in this
module, and the engine selectors are pinned against each other through
whole searches.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List

import numpy as np
import pytest

from repro.arch.platform import get_platform
from repro.encoding.genome import Genome, GenomeSpace, log_uniform_int
from repro.encoding.genome_matrix import GenomeMatrix, genome_to_genes
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.search import SearchTracker
from repro.optim.base import evaluate_genomes
from repro.optim.cma import CMAES
from repro.optim.digamma import operators
from repro.optim.digamma.algorithm import DiGamma
from repro.optim.grid_search import HardwareGridSearch
from repro.optim.nsga2 import NSGA2
from repro.optim.portfolio import PassivePortfolio
from repro.optim.pso import ParticleSwarm
from repro.optim.std_ga import StandardGA
from repro.optim.tbpsa import TBPSA
from repro.workloads.dims import DIMS
from repro.workloads.registry import get_model
from tests.optim.helpers import BatchSpyTracker


@pytest.fixture(scope="module")
def ncf():
    return get_model("ncf")


def _search(model, optimizer, budget=600, seed=3, **framework_kwargs):
    framework = CoOptimizationFramework(
        model, get_platform("edge"), **framework_kwargs
    )
    return framework.search(optimizer, sampling_budget=budget, seed=seed)


class _ReferenceDiGamma(DiGamma):
    """The per-genome DiGamma generation loop, kept as ground truth."""

    def run(self, tracker, rng):
        params = self.hyper_parameters
        space = tracker.space
        population_size = params.resolved_population(tracker.sampling_budget)
        num_elites = max(1, int(population_size * params.elite_ratio))
        num_immigrants = int(population_size * params.immigration_ratio)

        population = operators.initial_population(
            space, population_size, self.seeded_fraction, rng
        )
        fitnesses = evaluate_genomes(tracker, population)
        if len(fitnesses) < len(population):
            return

        while not tracker.exhausted:
            order = list(np.argsort(fitnesses)[::-1])
            pool = [population[i] for i in order[: max(2, population_size // 2)]]

            children: List[Genome] = [population[i].copy() for i in order[:num_elites]]
            for _ in range(num_immigrants):
                children.append(space.random_genome(rng))
            while len(children) < population_size:
                children.append(self._make_child(pool, space, rng))

            population = children
            fitnesses = evaluate_genomes(tracker, population)
            if len(fitnesses) < len(population):
                return

    def _make_child(self, pool, space, rng) -> Genome:
        params = self.hyper_parameters
        parent_a = pool[int(rng.integers(len(pool)))]
        parent_b = pool[int(rng.integers(len(pool)))]

        if rng.random() < params.crossover_rate:
            child = operators.crossover(parent_a, parent_b, rng)
        else:
            child = parent_a.copy()

        if self.use_structured_operators:
            if rng.random() < params.reorder_rate:
                child = operators.reorder(child, rng)
            if rng.random() < params.grow_rate:
                child = operators.grow(child, space, rng)
            if rng.random() < params.mutate_map_rate:
                child = operators.mutate_map(child, space, rng)
        if self.use_hw_operators and rng.random() < params.mutate_hw_rate:
            child = operators.mutate_hw(child, space, rng)
        return child


class _ReferenceStdGA(StandardGA):
    """The per-genome stdGA loop with its blind genome operators."""

    def run(self, tracker, rng):
        space = tracker.space
        population = space.random_population(self.population_size, rng)
        fitnesses = evaluate_genomes(tracker, population)
        if len(fitnesses) < len(population):
            return

        num_elites = max(1, int(self.population_size * self.elite_ratio))
        while not tracker.exhausted:
            order = np.argsort(fitnesses)[::-1]
            children: List[Genome] = [population[i].copy() for i in order[:num_elites]]
            while len(children) < self.population_size:
                parent_a = population[int(rng.choice(order[: self.population_size // 2]))]
                parent_b = population[int(rng.choice(order[: self.population_size // 2]))]
                child = (
                    self._uniform_crossover(parent_a, parent_b, rng)
                    if rng.random() < self.crossover_rate
                    else parent_a.copy()
                )
                self._mutate(child, space, rng)
                children.append(child)

            population = children
            fitnesses = evaluate_genomes(tracker, population)
            if len(fitnesses) < len(population):
                return

    @staticmethod
    def _uniform_crossover(a, b, rng) -> Genome:
        child = a.copy()
        for level_index, level in enumerate(child.levels):
            other = b.levels[level_index]
            if rng.random() < 0.5:
                level.spatial_size = other.spatial_size
            if rng.random() < 0.5:
                level.parallel_dim = other.parallel_dim
            if rng.random() < 0.5:
                level.order = list(other.order)
            for dim in DIMS:
                if rng.random() < 0.5:
                    level.tiles[dim] = other.tiles[dim]
        return child

    def _mutate(self, genome, space, rng) -> None:
        for level_index, level in enumerate(genome.levels):
            if rng.random() < self.mutation_rate:
                level.spatial_size = log_uniform_int(
                    rng, 1, space.spatial_bound(level_index)
                )
            if rng.random() < self.mutation_rate:
                level.parallel_dim = str(rng.choice(DIMS))
            if rng.random() < self.mutation_rate:
                order = list(level.order)
                rng.shuffle(order)
                level.order = order
            for dim in DIMS:
                if rng.random() < self.mutation_rate:
                    level.tiles[dim] = log_uniform_int(rng, 1, space.dim_bounds[dim])


def _ranking_vector(result, num_objectives):
    """The per-result ranking vector NSGA-II read before it ranked columns."""
    if result.valid:
        vector = result.objective_vector
        if vector is not None:
            return tuple(vector)
        return (result.objective_value,)
    return (-result.fitness,) * num_objectives


class _ReferenceNSGA2(NSGA2):
    """The per-genome NSGA-II loop over the batched results view."""

    def run(self, tracker, rng):
        evaluate = tracker.evaluate_batch_results
        params = self.hyper_parameters
        space = tracker.space
        population_size = params.resolved_population(tracker.sampling_budget)
        num_objectives = self._num_objectives(tracker)

        population = operators.initial_population(
            space, population_size, self.seeded_fraction, rng
        )
        results = evaluate(population)
        if len(results) < len(population):
            return
        values = [_ranking_vector(result, num_objectives) for result in results]

        while not tracker.exhausted:
            ranks, crowding = self._rank(values)
            children = [
                self._make_child(population, values, ranks, crowding, space, rng)
                for _ in range(population_size)
            ]
            child_results = evaluate(children)
            if len(child_results) < len(children):
                return

            combined_population = population + children
            combined_values = values + [
                _ranking_vector(result, num_objectives)
                for result in child_results
            ]
            survivors = self._environmental_selection(
                combined_values, population_size
            )
            population = [combined_population[i] for i in survivors]
            values = [combined_values[i] for i in survivors]

    def _make_child(self, population, values, ranks, crowding, space, rng) -> Genome:
        params = self.hyper_parameters
        if rng.random() < params.extreme_bias:
            axis = int(rng.integers(len(values[0])))
            extreme = min(range(len(values)), key=lambda i: values[i][axis])
            parent_a = population[extreme]
        else:
            parent_a = population[self._tournament(ranks, crowding, rng)]
        parent_b = population[self._tournament(ranks, crowding, rng)]

        if rng.random() < params.crossover_rate:
            child = operators.crossover(parent_a, parent_b, rng)
        else:
            child = parent_a.copy()
        if rng.random() < params.reorder_rate:
            child = operators.reorder(child, rng)
        if rng.random() < params.grow_rate:
            child = operators.grow(child, space, rng)
        if rng.random() < params.mutate_map_rate:
            child = operators.mutate_map(child, space, rng)
        if rng.random() < params.mutate_hw_rate:
            child = operators.mutate_hw(child, space, rng)
        return child


class TestLoopParity:
    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_digamma_matrix_equals_genome_loop(self, ncf, num_levels):
        matrix = _search(ncf, DiGamma(), num_levels=num_levels)
        reference = _search(ncf, _ReferenceDiGamma(), num_levels=num_levels)
        assert matrix.history == reference.history
        assert matrix.best.fitness == reference.best.fitness
        assert matrix.evaluations == reference.evaluations

    def test_stdga_matrix_equals_genome_loop(self, ncf):
        matrix = _search(ncf, StandardGA())
        reference = _search(ncf, _ReferenceStdGA())
        assert matrix.history == reference.history
        assert matrix.best.fitness == reference.best.fitness

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_nsga2_matrix_equals_genome_loop(self, ncf, num_levels):
        def front(optimizer):
            framework = CoOptimizationFramework(
                ncf,
                get_platform("edge"),
                objectives="latency,energy",
                num_levels=num_levels,
            )
            return framework.pareto_search(optimizer, sampling_budget=480, seed=1)

        matrix = front(NSGA2())
        reference = front(_ReferenceNSGA2())
        assert matrix.front_values == reference.front_values
        assert matrix.evaluations == reference.evaluations

    def test_nsga2_scalar_mode_matrix_equals_genome_loop(self, ncf):
        matrix = _search(ncf, NSGA2(), budget=480, seed=2)
        reference = _search(ncf, _ReferenceNSGA2(), budget=480, seed=2)
        assert matrix.history == reference.history
        assert matrix.best.fitness == reference.best.fitness


class TestEngineParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "fast"},
            {"engine": "reference"},
            {"use_cache": False},
        ],
        ids=["fast", "reference", "no-cache"],
    )
    def test_whole_search_trajectories_are_pinned(self, ncf, kwargs):
        want = _search(ncf, DiGamma())
        got = _search(ncf, DiGamma(), **kwargs)
        assert got.history == want.history
        assert got.best.fitness == want.best.fitness

class _ReferencePSO(ParticleSwarm):
    """The pre-vectorization per-particle update loop, kept as ground truth."""

    def run(self, tracker, rng):
        from repro.optim.base import evaluate_vectors

        dimension = tracker.vector_dimension
        positions = rng.random((self.swarm_size, dimension))
        velocities = (rng.random((self.swarm_size, dimension)) - 0.5) * 0.1
        personal_best = positions.copy()
        personal_fitness = np.full(self.swarm_size, -np.inf)
        global_best = positions[0].copy()
        global_fitness = -np.inf

        fitnesses = evaluate_vectors(tracker, list(positions))
        for index, fitness in enumerate(fitnesses):
            personal_fitness[index] = fitness
            if fitness > global_fitness:
                global_fitness = fitness
                global_best = positions[index].copy()
        if len(fitnesses) < self.swarm_size:
            return

        while not tracker.exhausted:
            for index in range(self.swarm_size):
                r_cognitive = rng.random(dimension)
                r_social = rng.random(dimension)
                velocities[index] = (
                    self.inertia * velocities[index]
                    + self.cognitive
                    * r_cognitive
                    * (personal_best[index] - positions[index])
                    + self.social * r_social * (global_best - positions[index])
                )
                velocities[index] = np.clip(
                    velocities[index], -self.velocity_clamp, self.velocity_clamp
                )
                positions[index] = np.clip(
                    positions[index] + velocities[index], 0.0, 1.0
                )

            fitnesses = evaluate_vectors(tracker, list(positions))
            for index, fitness in enumerate(fitnesses):
                if fitness > personal_fitness[index]:
                    personal_fitness[index] = fitness
                    personal_best[index] = positions[index].copy()
                if fitness > global_fitness:
                    global_fitness = fitness
                    global_best = positions[index].copy()
            if len(fitnesses) < self.swarm_size:
                return


class TestPSOVectorizedSweep:
    def test_matches_the_per_particle_reference(self, ncf):
        vectorized = _search(ncf, ParticleSwarm(), budget=240, seed=5)
        reference = _search(ncf, _ReferencePSO(), budget=240, seed=5)
        assert vectorized.history == reference.history
        assert vectorized.best.fitness == reference.best.fitness


class _ReferenceCMAES(CMAES):
    """The per-candidate CMA-ES generation loop, kept as ground truth."""

    def _run_once(self, tracker, rng):
        dimension = tracker.vector_dimension
        lam = self.population_size or (4 + int(3 * math.log(dimension)))
        mu = lam // 2
        raw_weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw_weights / raw_weights.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))

        c_sigma = (mu_eff + 2.0) / (dimension + mu_eff + 5.0)
        d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dimension + 1.0)) - 1.0)
            + c_sigma
        )
        c_c = (4.0 + mu_eff / dimension) / (dimension + 4.0 + 2.0 * mu_eff / dimension)
        c_1 = 2.0 / ((dimension + 1.3) ** 2 + mu_eff)
        c_mu = min(
            1.0 - c_1,
            2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dimension + 2.0) ** 2 + mu_eff),
        )
        chi_n = math.sqrt(dimension) * (
            1.0 - 1.0 / (4.0 * dimension) + 1.0 / (21.0 * dimension**2)
        )

        mean = rng.random(dimension)
        sigma = self.initial_sigma
        covariance = np.eye(dimension)
        path_sigma = np.zeros(dimension)
        path_c = np.zeros(dimension)
        eigenvalues = np.ones(dimension)
        eigenvectors = np.eye(dimension)
        generation = 0

        while not tracker.exhausted:
            generation += 1
            if generation % max(1, int(1.0 / (10.0 * dimension * (c_1 + c_mu)))) == 1:
                eigenvalues, eigenvectors = self._decompose(covariance)

            sqrt_eigenvalues = np.sqrt(eigenvalues)
            samples = []
            fitnesses = []
            for _ in range(lam):
                if tracker.exhausted:
                    return
                z = rng.standard_normal(dimension)
                step = eigenvectors @ (sqrt_eigenvalues * z)
                candidate = np.clip(mean + sigma * step, 0.0, 1.0)
                samples.append((candidate, z))
                fitnesses.append(tracker.evaluate_vector(candidate))

            order = np.argsort(fitnesses)[::-1][:mu]
            selected = [samples[i] for i in order]

            old_mean = mean
            mean = np.sum(
                [w * candidate for w, (candidate, _) in zip(weights, selected)], axis=0
            )
            mean = np.clip(mean, 0.0, 1.0)

            z_mean = np.sum([w * z for w, (_, z) in zip(weights, selected)], axis=0)
            path_sigma = (1.0 - c_sigma) * path_sigma + math.sqrt(
                c_sigma * (2.0 - c_sigma) * mu_eff
            ) * (eigenvectors @ z_mean)

            sigma *= math.exp(
                (c_sigma / d_sigma) * (np.linalg.norm(path_sigma) / chi_n - 1.0)
            )
            sigma = float(np.clip(sigma, 1e-8, 1.0))

            h_sigma = 1.0 if np.linalg.norm(path_sigma) / math.sqrt(
                1.0 - (1.0 - c_sigma) ** (2.0 * generation)
            ) < (1.4 + 2.0 / (dimension + 1.0)) * chi_n else 0.0
            displacement = (mean - old_mean) / max(sigma, 1e-12)
            path_c = (1.0 - c_c) * path_c + h_sigma * math.sqrt(
                c_c * (2.0 - c_c) * mu_eff
            ) * displacement

            rank_mu = np.zeros_like(covariance)
            for w, (candidate, _) in zip(weights, selected):
                y = (candidate - old_mean) / max(sigma, 1e-12)
                rank_mu += w * np.outer(y, y)
            covariance = (
                (1.0 - c_1 - c_mu) * covariance
                + c_1
                * (
                    np.outer(path_c, path_c)
                    + (1.0 - h_sigma) * c_c * (2.0 - c_c) * covariance
                )
                + c_mu * rank_mu
            )

            if sigma < self.restart_sigma_threshold:
                return


class _ReferenceTBPSA(TBPSA):
    """The per-candidate TBPSA generation loop, kept as ground truth."""

    def run(self, tracker, rng):
        dimension = tracker.vector_dimension
        lam = self.initial_population or (4 + int(3 * math.log(dimension)))
        sigma = self.initial_sigma
        mean = rng.random(dimension)
        stagnation = 0
        best_seen = -np.inf

        while not tracker.exhausted:
            mu = max(1, lam // 2)
            candidates = []
            fitnesses = []
            for _ in range(lam):
                if tracker.exhausted:
                    return
                candidate = np.clip(
                    mean + sigma * rng.standard_normal(dimension), 0.0, 1.0
                )
                candidates.append(candidate)
                fitnesses.append(tracker.evaluate_vector(candidate))

            order = np.argsort(fitnesses)[::-1][:mu]
            elite = np.array([candidates[i] for i in order])
            new_mean = elite.mean(axis=0)

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


class _ReferenceGridSearch(HardwareGridSearch):
    """The per-grid-point evaluation loop, kept as ground truth."""

    def run(self, tracker, rng):
        space = tracker.space
        grid = self._build_grid(space.max_pes, tracker.remaining)
        for pe_array in grid:
            if tracker.exhausted:
                return
            tracker.evaluate_genome(self._template_genome(space, pe_array))


#: Default CMA-ES / TBPSA generation size on the 28-gene edge encoding.
_LAM = 13

#: Ask/tell pairs (batched optimizer, per-candidate reference).
_ASK_TELL = {
    "cma": (CMAES, _ReferenceCMAES),
    "tbpsa": (TBPSA, _ReferenceTBPSA),
    "portfolio": (
        lambda: PassivePortfolio([CMAES(), TBPSA()]),
        lambda: PassivePortfolio([_ReferenceCMAES(), _ReferenceTBPSA()]),
    ),
}


class TestAskTellBatchParity:
    """CMA-ES and TBPSA price each generation in one batch; the trajectory
    must equal the per-candidate loop's, including the budget cut of a
    generation (by the tracker, or by a portfolio's budget slice)."""

    @pytest.mark.parametrize("budget", [20 * _LAM, 20 * _LAM + 3])
    @pytest.mark.parametrize("name", sorted(_ASK_TELL))
    @pytest.mark.parametrize("model_name", ["ncf", "resnet18"])
    def test_matches_the_per_candidate_reference(self, model_name, name, budget):
        model = get_model(model_name)
        batched, reference = _ASK_TELL[name]
        got = _search(model, batched(), budget=budget, seed=1)
        want = _search(model, reference(), budget=budget, seed=1)
        assert got.evaluations == want.evaluations == budget
        assert got.best.fitness == want.best.fitness
        assert got.history == want.history

    @pytest.mark.parametrize("budget", [20 * _LAM, 20 * _LAM + 3])
    def test_each_generation_is_one_batch_call(self, ncf, budget):
        framework = CoOptimizationFramework(ncf, get_platform("edge"))
        calls = {}
        for optimizer in (CMAES(), TBPSA()):
            tracker = SearchTracker(framework.evaluator, framework.space, budget)
            assert tracker.vector_dimension == 28
            optimizer.run(tracker, np.random.default_rng(0))
            assert tracker.batched_evaluations == tracker.evaluations == budget
            calls[optimizer.name] = tracker.batch_calls
        generations = math.ceil(budget / _LAM)
        # CMA keeps lam fixed across restarts; TBPSA only grows it.
        assert calls["CMA"] == generations
        assert 1 < calls["TBPSA"] <= generations


class TestGridSearchBatchParity:
    @pytest.mark.parametrize("budget", [7, 400])
    @pytest.mark.parametrize("platform", ["edge", "cloud"])
    @pytest.mark.parametrize("dataflow", ["dla", "shi", "eye"])
    def test_matches_the_per_point_reference(self, ncf, dataflow, platform, budget):
        def run(optimizer):
            framework = CoOptimizationFramework(ncf, get_platform(platform))
            return framework.search(optimizer, sampling_budget=budget, seed=0)

        got = run(HardwareGridSearch(dataflow))
        want = run(_ReferenceGridSearch(dataflow))
        assert got.evaluations == want.evaluations
        assert got.best.fitness == want.best.fitness
        assert got.history == want.history

    def test_the_grid_is_priced_in_one_batch_call(self, ncf):
        framework = CoOptimizationFramework(ncf, get_platform("edge"))
        tracker = SearchTracker(framework.evaluator, framework.space, 60)
        HardwareGridSearch("dla").run(tracker, np.random.default_rng(0))
        assert tracker.batch_calls == 1
        assert tracker.batched_evaluations == tracker.evaluations > 0


class TestOperatorRowTwins:
    """Each row twin must consume the identical RNG stream and produce the
    identical genes as its per-genome operator."""

    def _space(self):
        return GenomeSpace(
            dim_bounds={"K": 64, "C": 48, "Y": 16, "X": 16, "R": 3, "S": 3},
            max_pes=256,
            num_levels=2,
        )

    def _pair(self, space, seed):
        rng = np.random.default_rng(seed)
        parent_a = space.random_genome(rng)
        parent_b = space.random_genome(rng)
        return parent_a, parent_b, rng

    @pytest.mark.parametrize("seed", range(8))
    def test_every_operator(self, seed):
        space = self._space()
        cases = [
            ("crossover", lambda g, b, r: operators.crossover(g, b, r),
             lambda row, b, r: operators.crossover_rows(row, b, 2, r)),
            ("reorder", lambda g, b, r: operators.reorder(g, r),
             lambda row, b, r: operators.reorder_row(row, 2, r)),
            ("grow", lambda g, b, r: operators.grow(g, space, r),
             lambda row, b, r: operators.grow_row(row, space, 2, r)),
            ("mutate_map", lambda g, b, r: operators.mutate_map(g, space, r),
             lambda row, b, r: operators.mutate_map_row(row, space, 2, r)),
            ("mutate_hw", lambda g, b, r: operators.mutate_hw(g, space, r),
             lambda row, b, r: operators.mutate_hw_row(row, space, 2, r)),
        ]
        for name, genome_op, row_op in cases:
            parent_a, parent_b, _ = self._pair(space, seed)
            rng_genome = np.random.default_rng(100 + seed)
            rng_row = np.random.default_rng(100 + seed)
            genome_result = genome_op(parent_a.copy(), parent_b, rng_genome)
            row_result = row_op(
                genome_to_genes(parent_a), genome_to_genes(parent_b), rng_row
            )
            assert row_result == genome_to_genes(genome_result), name
            # Identical stream: the next draws must agree too.
            assert rng_genome.random() == rng_row.random(), name

    def test_balance_parallel_row(self):
        space = self._space()
        genome = space.random_genome(np.random.default_rng(9))
        row = genome_to_genes(genome)
        operators.balance_parallel(genome, space)
        operators.balance_parallel_row(row, 2)
        assert row == genome_to_genes(genome)


class TestTrackerShim:
    def test_matrix_optimizers_run_on_stub_trackers(self):
        for optimizer in (DiGamma(), StandardGA(population_size=20), NSGA2()):
            tracker = BatchSpyTracker(sampling_budget=120)
            optimizer.run(tracker, np.random.default_rng(0))
            assert tracker.evaluations == 120
            assert tracker.batched_evaluations == 120

    @pytest.mark.parametrize(
        "optimizer, view",
        [
            (DiGamma(), "evaluate_matrix"),
            (StandardGA(), "evaluate_matrix"),
            (NSGA2(), "evaluate_matrix_results"),
        ],
        ids=["digamma", "stdga", "nsga2"],
    )
    def test_trackers_without_the_matrix_view_are_refused(self, optimizer, view):
        scalar_only = SimpleNamespace(
            evaluate_genome=lambda genome: 0.0,
            evaluate_batch=lambda genomes: [0.0] * len(genomes),
        )
        with pytest.raises(TypeError, match=f"SearchTracker.{view}\\b"):
            optimizer.run(scalar_only, np.random.default_rng(0))

    def test_matrix_population_container_round_trips(self):
        space = GenomeSpace(
            dim_bounds={"K": 8, "C": 8, "Y": 4, "X": 4, "R": 3, "S": 3},
            max_pes=64,
            num_levels=2,
        )
        genomes = space.random_population(6, np.random.default_rng(1))
        matrix = GenomeMatrix.from_genomes(genomes)
        assert len(matrix.truncated(4)) == 4
        assert matrix.copy().data is not matrix.data
        assert [g.cache_key() for g in matrix.to_genomes()] == [
            g.cache_key() for g in genomes
        ]

"""The gene-matrix evaluation path.

Contracts pinned here:

* ``DesignEvaluator.evaluate_matrix`` is bit-identical to evaluating the
  same (repaired) genomes one by one, under every engine selector;
* the vector path reads and writes neither the design LRU nor the layer
  LRU (pool workers run the same path), while per-design searches still
  use them, and results match a ``use_cache=False`` run in-process and
  with workers;
* rows are deduplicated within a call only, so nothing aliases across
  layer shapes, models or bandwidths;
* the tracker's matrix views share the genome views' budget semantics; and
* results carry lazily materialized genomes/mappings that match the
  eagerly built ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.platform import CLOUD, EDGE
from repro.encoding.genome_matrix import (
    GenomeMatrix,
    genome_to_genes,
    repaired_matrix,
)
from repro.encoding.repair import repaired_copy
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import DesignEvaluator, RowGenomeResult
from repro.framework.search import SearchTracker
from repro.optim.registry import get_optimizer
from repro.serialization import design_to_dict
from repro.workloads.registry import get_model

PLATFORMS = pytest.mark.parametrize("platform", [EDGE, CLOUD], ids=["edge", "cloud"])


@pytest.fixture(scope="module")
def resnet18():
    return get_model("resnet18")


@pytest.fixture(scope="module")
def ncf():
    return get_model("ncf")


def _repaired_population(evaluator, count, seed, num_levels=2):
    space = evaluator.genome_space(num_levels=num_levels)
    rng = np.random.default_rng(seed)
    genomes = space.random_population(count, rng)
    matrix = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
    return space, genomes, matrix


def _assert_results_identical(a, b):
    assert a.fitness == b.fitness
    assert a.valid == b.valid
    assert a.objective_value == b.objective_value
    assert a.latency == b.latency
    assert a.energy == b.energy
    assert a.violations == b.violations
    assert a.objective_vector == b.objective_vector


class TestMatrixMatchesGenomePath:
    @PLATFORMS
    def test_bit_identical_to_genome_loop(self, resnet18, platform):
        matrix_evaluator = DesignEvaluator(model=resnet18, platform=platform)
        genome_evaluator = DesignEvaluator(model=resnet18, platform=platform)
        space, genomes, matrix = _repaired_population(matrix_evaluator, 25, seed=11)
        matrix_results = matrix_evaluator.evaluate_matrix(matrix)
        for result, genome in zip(matrix_results, genomes):
            want = genome_evaluator.evaluate_genome(repaired_copy(genome, space))
            _assert_results_identical(result, want)

    @PLATFORMS
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_scalar_engines_take_the_genome_fallback(
        self, resnet18, platform, engine
    ):
        scalar = DesignEvaluator(model=resnet18, platform=platform, engine=engine)
        vector = DesignEvaluator(model=resnet18, platform=platform)
        _, _, matrix = _repaired_population(vector, 10, seed=13)
        for a, b in zip(
            scalar.evaluate_matrix(matrix), vector.evaluate_matrix(matrix)
        ):
            _assert_results_identical(a, b)

    def test_three_level_hierarchies_fall_back_to_genomes(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        reference = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, matrix = _repaired_population(
            evaluator, 8, seed=17, num_levels=3
        )
        for result, genome in zip(
            evaluator.evaluate_matrix(matrix), genomes
        ):
            want = reference.evaluate_genome(repaired_copy(genome, space))
            _assert_results_identical(result, want)

    def test_fill_buffer_allocation_matches(self, ncf):
        filled = DesignEvaluator(model=ncf, platform=EDGE, buffer_allocation="fill")
        want = DesignEvaluator(model=ncf, platform=EDGE, buffer_allocation="fill")
        space, genomes, matrix = _repaired_population(filled, 10, seed=19)
        for result, genome in zip(filled.evaluate_matrix(matrix), genomes):
            _assert_results_identical(
                result, want.evaluate_genome(repaired_copy(genome, space))
            )

    def test_objective_vectors_ride_along(self, ncf):
        from repro.framework.objective import ObjectiveSet

        objectives = ObjectiveSet.from_names("latency,energy,area")
        vector = DesignEvaluator(model=ncf, platform=EDGE, objectives=objectives)
        scalar = DesignEvaluator(model=ncf, platform=EDGE, objectives=objectives)
        space, genomes, matrix = _repaired_population(vector, 12, seed=23)
        for result, genome in zip(vector.evaluate_matrix(matrix), genomes):
            want = scalar.evaluate_genome(repaired_copy(genome, space))
            assert result.objective_vector == want.objective_vector

    def test_invalid_orders_are_rejected(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 9, seed=29)
        matrix.data[4, 2:8] = [0, 0, 2, 3, 4, 5]
        with pytest.raises(ValueError, match="permutation"):
            evaluator.evaluate_matrix(matrix)


class TestLazyResults:
    def test_genome_materializes_from_the_row(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 6, seed=31)
        results = evaluator.evaluate_matrix(matrix)
        for result, genome in zip(results, genomes):
            assert isinstance(result, RowGenomeResult)
            want = repaired_copy(genome, space)
            assert result.genome.cache_key() == want.cache_key()
            assert result.design.mapping.cache_key() == want.cache_key()

    def test_gene_rows_match_the_genome_view(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 6, seed=31)
        for result, genome in zip(evaluator.evaluate_matrix(matrix), genomes):
            want = genome_to_genes(repaired_copy(genome, space))
            assert result.genes == want
            assert evaluator.evaluate_genome(result.genome).genes == want


def _next_generation(genomes, space, survivors, dim):
    """Elitist survivors followed by children with one tile shrunk."""
    children = []
    for genome in genomes[survivors:]:
        child = genome.copy()
        child.levels[1].tiles[dim] = max(1, child.levels[1].tiles[dim] - 1)
        children.append(child)
    return repaired_matrix(
        GenomeMatrix.from_genomes(genomes[:survivors] + children), space
    )


class TestCrossGenerationReuse:
    def test_results_identical_with_cache_on_and_off(self, resnet18):
        on = DesignEvaluator(model=resnet18, platform=EDGE)
        off = DesignEvaluator(model=resnet18, platform=EDGE, use_cache=False)
        space, genomes, matrix = _repaired_population(on, 20, seed=37)
        second = _next_generation(genomes, space, survivors=7, dim="R")
        for generation in (matrix, second):
            for a, b in zip(
                on.evaluate_matrix(generation), off.evaluate_matrix(generation)
            ):
                _assert_results_identical(a, b)

    def test_disabled_cache_keeps_counters_at_zero(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE, use_cache=False)
        _, _, matrix = _repaired_population(evaluator, 10, seed=43)
        evaluator.evaluate_matrix(matrix)
        evaluator.evaluate_matrix(matrix)
        stats = evaluator.cache_stats
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.size == 0

    def test_cache_clear_drops_memoized_results(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, _ = _repaired_population(evaluator, 10, seed=47)
        genomes = [repaired_copy(genome, space) for genome in genomes]
        want = [evaluator.evaluate_genome(genome) for genome in genomes]
        evaluator.cache_clear()
        stats = evaluator.cache_stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        unique = len({genome.cache_key() for genome in genomes})
        got = [evaluator.evaluate_genome(genome) for genome in genomes]
        assert evaluator.design_cache_stats.misses == unique
        for a, b in zip(got, want):
            _assert_results_identical(a, b)


class TestRowFingerprints:
    def test_cross_model_rows_cannot_alias(self, ncf):
        # Column 0 of a work row is the layer's slot in the engine's
        # statics table, which grows as models come and go; a cost model
        # that has priced other models' layers must price a model exactly
        # like a fresh one.
        from repro.cost.maestro import CostModel
        from repro.encoding.genome import GenomeSpace

        other = get_model("dlrm")

        def rows(model, seed):
            space = GenomeSpace.from_model(model, max_pes=1024)
            rng = np.random.default_rng(seed)
            return repaired_matrix(
                GenomeMatrix.from_genomes(space.random_population(10, rng)),
                space,
            ).data

        shared = CostModel()
        shared.evaluate_model_matrix(ncf, rows(ncf, 73), 64.0, 16.0)
        shared.evaluate_model_matrix(other, rows(other, 73), 64.0, 16.0)
        reused = shared.evaluate_model_matrix(other, rows(other, 73), 64.0, 16.0)
        fresh = CostModel().evaluate_model_matrix(other, rows(other, 73), 64.0, 16.0)
        for a, b in zip(reused, fresh):
            assert a.latency == b.latency
            assert a.energy == b.energy

    def test_bandwidths_never_alias(self, ncf):
        # The same rows priced under different bandwidths by one cost
        # model must never reuse each other's reports.
        from repro.cost.maestro import CostModel

        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 10, seed=71)
        shared = CostModel()
        shared.evaluate_model_matrix(ncf, matrix.data, 100.0, 50.0)
        reused = shared.evaluate_model_matrix(ncf, matrix.data, 1.0, 0.5)
        fresh = CostModel().evaluate_model_matrix(ncf, matrix.data, 1.0, 0.5)
        for a, b in zip(reused, fresh):
            assert a.latency == b.latency
            assert a.energy == b.energy


class TestTrackerMatrixViews:
    def test_matches_the_genome_batch_view(self, resnet18):
        def make():
            evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
            return SearchTracker(
                evaluator, evaluator.genome_space(), sampling_budget=30
            )

        matrix_tracker = make()
        genome_tracker = make()
        rng = np.random.default_rng(53)
        genomes = matrix_tracker.space.random_population(30, rng)
        fits_matrix = matrix_tracker.evaluate_matrix(
            GenomeMatrix.from_genomes(genomes)
        )
        fits_genomes = genome_tracker.evaluate_batch(genomes)
        assert fits_matrix == fits_genomes
        assert matrix_tracker.best.fitness == genome_tracker.best.fitness
        assert matrix_tracker.history == genome_tracker.history
        assert matrix_tracker.batch_calls == genome_tracker.batch_calls
        assert (
            matrix_tracker.batched_evaluations
            == genome_tracker.batched_evaluations
        )

    def test_truncates_at_the_budget(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        tracker = SearchTracker(
            evaluator, evaluator.genome_space(), sampling_budget=5
        )
        rng = np.random.default_rng(59)
        genomes = tracker.space.random_population(9, rng)
        fitnesses = tracker.evaluate_matrix(GenomeMatrix.from_genomes(genomes))
        assert len(fitnesses) == 5
        assert tracker.exhausted
        assert tracker.evaluate_matrix(GenomeMatrix.from_genomes(genomes)) == []

    def test_vector_batch_rides_the_matrix_path(self, ncf):
        def make(budget=12):
            evaluator = DesignEvaluator(model=ncf, platform=EDGE)
            return SearchTracker(
                evaluator, evaluator.genome_space(), sampling_budget=budget
            )

        tracker_batch = make()
        tracker_loop = make()
        rng = np.random.default_rng(61)
        vectors = [tracker_batch.codec.random_vector(rng) for _ in range(12)]
        fits_batch = tracker_batch.evaluate_vector_batch(vectors)
        fits_loop = [tracker_loop.evaluate_vector(vector) for vector in vectors]
        assert fits_batch == fits_loop
        assert tracker_batch.history == tracker_loop.history


class TestWorkerPoolMatrixPath:
    def test_worker_chunks_match_in_process(self, ncf):
        pooled = DesignEvaluator(model=ncf, platform=EDGE, workers=2)
        local = DesignEvaluator(model=ncf, platform=EDGE)
        try:
            _, _, matrix = _repaired_population(pooled, 9, seed=67)
            pooled_results = pooled.evaluate_matrix(matrix)
            local_results = local.evaluate_matrix(matrix)
            for a, b in zip(pooled_results, local_results):
                _assert_results_identical(a, b)
        finally:
            pooled.shutdown()


def _search_with_stats(
    model, name, num_levels, objectives, workers, use_cache, budget=120
):
    """One seeded search: its outcome and its in-process LRU counters."""
    framework = CoOptimizationFramework(
        model,
        EDGE,
        num_levels=num_levels,
        workers=workers,
        use_cache=use_cache,
        objectives=objectives,
    )
    try:
        if objectives:
            result = framework.pareto_search(
                get_optimizer(name), sampling_budget=budget, seed=4
            )
            members = result.front
            history = None
        else:
            result = framework.search(
                get_optimizer(name), sampling_budget=budget, seed=4
            )
            members = (result.best,)
            history = result.history
        design = framework.evaluator.design_cache_stats
        layer = framework.evaluator.layer_cache_stats
    finally:
        framework.close()
    outcome = [
        (member.fitness, member.objective_vector, design_to_dict(member.design))
        for member in members
    ]
    return (outcome, history), design, layer


#: Gene-matrix searches: (optimizer, hierarchy depth, Pareto objectives).
_MATRIX_SEARCHES = [
    ("digamma", 2, None),
    ("stdga", 2, None),
    ("nsga2", 3, "latency,energy,area"),
]


class TestGeneMatrixPathSkipsLRUs:
    @pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "workers2"])
    @pytest.mark.parametrize(
        "name, num_levels, objectives",
        _MATRIX_SEARCHES,
        ids=[f"{name}-L{levels}" for name, levels, _ in _MATRIX_SEARCHES],
    )
    def test_matrix_searches_skip_the_lrus_and_match_an_uncached_run(
        self, tiny_model, name, num_levels, objectives, workers
    ):
        args = (tiny_model, name, num_levels, objectives, workers)
        cached, design, layer = _search_with_stats(*args, use_cache=True)
        uncached, _, _ = _search_with_stats(*args, use_cache=False)
        assert design.requests == 0 and design.size == 0
        assert layer.requests == 0 and layer.size == 0
        assert cached == uncached

    def test_per_design_search_still_records_lru_hits(self, tiny_model):
        # (1+1)-ES prices one candidate at a time on the per-design path;
        # once its step size shrinks it re-proposes known designs.
        args = (tiny_model, "(1+1)-es", 2, None, None)
        cached, design, layer = _search_with_stats(
            *args, use_cache=True, budget=400
        )
        uncached, _, _ = _search_with_stats(*args, use_cache=False, budget=400)
        assert design.hits > 0
        assert layer.hits > 0
        assert cached == uncached

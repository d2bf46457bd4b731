"""Parity of cached / batched / parallel evaluation with the plain path.

The ISSUE-level acceptance criterion: over a seeded sweep of random
repaired genomes on ``resnet18`` (edge and cloud), cached vs uncached and
batched vs sequential evaluation produce *bit-identical*
``EvaluationResult`` fitness / latency / energy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.platform import CLOUD, EDGE
from repro.encoding.repair import repair_genome
from repro.framework.evaluator import DesignEvaluator
from repro.framework.search import SearchTracker
from repro.workloads.registry import get_model

PLATFORMS = pytest.mark.parametrize("platform", [EDGE, CLOUD], ids=["edge", "cloud"])


def _seeded_genomes(evaluator, count, seed):
    space = evaluator.genome_space()
    rng = np.random.default_rng(seed)
    return space, [
        repair_genome(space.random_genome(rng), space) for _ in range(count)
    ]


@pytest.fixture(scope="module")
def resnet18():
    return get_model("resnet18")


class TestCachedVsUncached:
    @PLATFORMS
    def test_bit_identical_results(self, resnet18, platform):
        cached = DesignEvaluator(model=resnet18, platform=platform)
        uncached = DesignEvaluator(
            model=resnet18, platform=platform, use_cache=False
        )
        _, genomes = _seeded_genomes(cached, 30, seed=42)
        # Repeat a slice so the cache actually gets hits during the sweep.
        genomes = genomes + genomes[:10]
        for genome in genomes:
            a = cached.evaluate_genome(genome)
            b = uncached.evaluate_genome(genome)
            assert a.fitness == b.fitness
            assert a.latency == b.latency
            assert a.energy == b.energy
            assert a.valid == b.valid
            assert a.objective_value == b.objective_value
        assert cached.cache_stats.hits > 0
        assert uncached.cache_stats.requests == 0

    @PLATFORMS
    def test_reference_engine_agrees(self, resnet18, platform):
        fast = DesignEvaluator(model=resnet18, platform=platform)
        reference = DesignEvaluator(
            model=resnet18, platform=platform, engine="reference", use_cache=False
        )
        _, genomes = _seeded_genomes(fast, 15, seed=99)
        for genome in genomes:
            a = fast.evaluate_genome(genome)
            b = reference.evaluate_genome(genome)
            assert a.fitness == b.fitness
            assert a.latency == b.latency
            assert a.energy == b.energy


class TestBatchedVsSequential:
    @PLATFORMS
    def test_population_call_matches_loop(self, resnet18, platform):
        batched = DesignEvaluator(model=resnet18, platform=platform)
        sequential = DesignEvaluator(model=resnet18, platform=platform)
        _, genomes = _seeded_genomes(batched, 20, seed=7)
        batch_results = batched.evaluate_population(genomes)
        loop_results = [sequential.evaluate_genome(g) for g in genomes]
        assert len(batch_results) == len(loop_results)
        for a, b in zip(batch_results, loop_results):
            assert a.fitness == b.fitness
            assert a.latency == b.latency
            assert a.energy == b.energy

    @PLATFORMS
    def test_tracker_batch_matches_tracker_loop(self, resnet18, platform):
        make = lambda: SearchTracker(
            DesignEvaluator(model=resnet18, platform=platform),
            DesignEvaluator(model=resnet18, platform=platform).genome_space(),
            sampling_budget=25,
        )
        tracker_batch = make()
        tracker_loop = make()
        _, genomes = _seeded_genomes(tracker_batch.evaluator, 25, seed=3)
        fits_batch = tracker_batch.evaluate_batch(genomes)
        fits_loop = [tracker_loop.evaluate_genome(g) for g in genomes]
        assert fits_batch == fits_loop
        assert tracker_batch.best.fitness == tracker_loop.best.fitness
        assert tracker_batch.best.latency == tracker_loop.best.latency
        assert tracker_batch.best.energy == tracker_loop.best.energy
        assert tracker_batch.history == tracker_loop.history

    def test_batch_truncates_at_budget(self, resnet18):
        evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
        tracker = SearchTracker(
            evaluator, evaluator.genome_space(), sampling_budget=5
        )
        _, genomes = _seeded_genomes(evaluator, 9, seed=1)
        fitnesses = tracker.evaluate_batch(genomes)
        assert len(fitnesses) == 5
        assert tracker.exhausted
        assert tracker.evaluate_batch(genomes) == []

    def test_empty_populations_return_empty(self, resnet18):
        evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
        tracker = SearchTracker(
            evaluator, evaluator.genome_space(), sampling_budget=5
        )
        assert evaluator.evaluate_population([]) == []
        assert tracker.evaluate_batch([]) == []
        assert tracker.batch_calls == 1
        assert tracker.evaluations == 0

    def test_vector_batch_matches_vector_loop(self, resnet18):
        make = lambda: SearchTracker(
            DesignEvaluator(model=resnet18, platform=EDGE),
            DesignEvaluator(model=resnet18, platform=EDGE).genome_space(),
            sampling_budget=16,
        )
        tracker_batch = make()
        tracker_loop = make()
        rng = np.random.default_rng(11)
        vectors = [
            tracker_batch.codec.random_vector(rng) for _ in range(16)
        ]
        fits_batch = tracker_batch.evaluate_vector_batch(vectors)
        fits_loop = [tracker_loop.evaluate_vector(v) for v in vectors]
        assert fits_batch == fits_loop


class TestWorkerPool:
    def test_process_pool_matches_sequential(self, resnet18):
        try:
            parallel = DesignEvaluator(model=resnet18, platform=EDGE, workers=2)
            sequential = DesignEvaluator(model=resnet18, platform=EDGE)
            _, genomes = _seeded_genomes(sequential, 8, seed=13)
            results_parallel = parallel.evaluate_population(genomes)
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable here: {error}")
        finally:
            try:
                parallel.shutdown()
            except Exception:  # pragma: no cover
                pass
        results_sequential = sequential.evaluate_population(genomes)
        for a, b in zip(results_parallel, results_sequential):
            assert a.fitness == b.fitness
            assert a.latency == b.latency
            assert a.energy == b.energy

    def test_invalid_worker_count_rejected(self, resnet18):
        with pytest.raises(ValueError):
            DesignEvaluator(model=resnet18, platform=EDGE, workers=0)


class TestSearchTrajectoryParity:
    """End-to-end: a whole GA search is unchanged by caching/batching."""

    @pytest.mark.parametrize("optimizer_name", ["digamma", "stdga", "random"])
    def test_search_results_identical_with_and_without_cache(
        self, resnet18, optimizer_name
    ):
        from repro.framework.cooptimizer import CoOptimizationFramework
        from repro.optim.registry import get_optimizer

        outcomes = []
        for use_cache in (True, False):
            framework = CoOptimizationFramework(
                resnet18, EDGE, use_cache=use_cache
            )
            result = framework.search(
                get_optimizer(optimizer_name), sampling_budget=120, seed=5
            )
            outcomes.append(result)
        with_cache, without_cache = outcomes
        assert with_cache.best.fitness == without_cache.best.fitness
        assert with_cache.best.latency == without_cache.best.latency
        assert with_cache.best.energy == without_cache.best.energy
        assert with_cache.history == without_cache.history


class TestVectorEngineParity:
    """The vector population engine vs the scalar paths, end to end."""

    @PLATFORMS
    def test_vector_population_matches_fast_sequential(self, resnet18, platform):
        vector = DesignEvaluator(
            model=resnet18, platform=platform, engine="vector"
        )
        fast = DesignEvaluator(model=resnet18, platform=platform, engine="fast")
        _, genomes = _seeded_genomes(vector, 30, seed=21)
        genomes = genomes + genomes[:10]  # duplicates within one batch
        vector_results = vector.evaluate_population(genomes)
        fast_results = [fast.evaluate_genome(genome) for genome in genomes]
        for a, b in zip(vector_results, fast_results):
            assert a.fitness == b.fitness
            assert a.latency == b.latency
            assert a.energy == b.energy
            assert a.valid == b.valid
            assert a.violations == b.violations
            assert a.design.hardware == b.design.hardware
            assert a.design.mapping == b.design.mapping

    def test_malformed_orders_raise_like_the_scalar_path(self, resnet18):
        vector = DesignEvaluator(model=resnet18, platform=EDGE, engine="vector")
        fast = DesignEvaluator(model=resnet18, platform=EDGE, engine="fast")
        _, genomes = _seeded_genomes(vector, 3, seed=2)
        genomes[1].levels[0].order[0] = genomes[1].levels[0].order[1]
        with pytest.raises(ValueError):
            [fast.evaluate_genome(genome) for genome in genomes]
        with pytest.raises(ValueError):
            vector.evaluate_population(genomes)

    def test_rejects_unknown_engine(self, resnet18):
        with pytest.raises(ValueError):
            DesignEvaluator(model=resnet18, platform=EDGE, engine="warp")

    @pytest.mark.parametrize("optimizer_name", ["digamma", "de", "pso", "random"])
    def test_search_trajectories_identical_across_engines(
        self, resnet18, optimizer_name
    ):
        from repro.framework.cooptimizer import CoOptimizationFramework
        from repro.optim.registry import get_optimizer

        outcomes = {}
        for engine in ("vector", "fast", "reference"):
            framework = CoOptimizationFramework(resnet18, EDGE, engine=engine)
            outcomes[engine] = framework.search(
                get_optimizer(optimizer_name), sampling_budget=120, seed=5
            )
        vector, fast, reference = (
            outcomes["vector"], outcomes["fast"], outcomes["reference"]
        )
        assert vector.best.fitness == fast.best.fitness == reference.best.fitness
        assert vector.best.latency == fast.best.latency == reference.best.latency
        assert vector.best.energy == fast.best.energy == reference.best.energy
        assert vector.history == fast.history == reference.history

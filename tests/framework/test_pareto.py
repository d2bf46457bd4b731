"""Tests for the multi-objective primitives and the Pareto search plumbing."""

from typing import List, Sequence

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import EvaluationResult
from repro.framework.objective import Objective, ObjectiveSet
from repro.framework.pareto import (
    ParetoArchive,
    ParetoResult,
    crowding_distances,
    dominates,
    fast_non_dominated_sort,
    non_dominated_indices,
)
from repro.optim.digamma import DiGamma
from repro.optim.random_search import RandomSearch
from repro.workloads.registry import get_model


def fast_non_dominated_sort_reference(
    values: Sequence[Sequence[float]],
) -> List[List[int]]:
    """The original pure-Python sort: ground truth for the vectorized one."""
    count = len(values)
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_counts = [0] * count
    fronts: List[List[int]] = [[]]
    for i in range(count):
        for j in range(i + 1, count):
            if dominates(values[i], values[j]):
                dominated_by[i].append(j)
                domination_counts[j] += 1
            elif dominates(values[j], values[i]):
                dominated_by[j].append(i)
                domination_counts[i] += 1
    for index in range(count):
        if domination_counts[index] == 0:
            fronts[0].append(index)
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for index in fronts[current]:
            for dominated in dominated_by[index]:
                domination_counts[dominated] -= 1
                if domination_counts[dominated] == 0:
                    next_front.append(dominated)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the loop always appends one trailing empty front
    return fronts


def make_result(vector, fitness=None, valid=True):
    """A minimal EvaluationResult stub carrying an objective vector."""
    return EvaluationResult(
        fitness=fitness if fitness is not None else -vector[0],
        valid=valid,
        objective=Objective.LATENCY,
        objective_value=vector[0],
        design=None,
        violations=(),
        objective_vector=tuple(vector),
    )


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_tie_on_one_axis_still_dominates(self):
        assert dominates((1.0, 1.0), (1.0, 2.0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_incomparable_vectors(self):
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        assert not dominates((3.0, 1.0), (1.0, 3.0))


class TestNonDominatedSort:
    def test_non_dominated_indices(self):
        values = [(1.0, 3.0), (3.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert non_dominated_indices(values) == [0, 1, 2]

    def test_fronts_partition_the_population(self):
        values = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.5, 4.0)]
        fronts = fast_non_dominated_sort(values)
        assert fronts[0] == [0, 3]
        assert fronts[1] == [1]
        assert fronts[2] == [2]
        assert sorted(i for front in fronts for i in front) == [0, 1, 2, 3]

    def test_empty_input(self):
        assert fast_non_dominated_sort([]) == []
        assert non_dominated_indices([]) == []


class TestVectorizedSortParity:
    """The NumPy sort must reproduce the pure-Python reference *including*
    the within-front index order: with duplicate objective vectors, front
    order decides which duplicate receives the infinite boundary crowding
    distance — and therefore selection, and therefore trajectories."""

    @pytest.mark.parametrize("objectives", [1, 2, 3])
    def test_randomized_fronts(self, objectives):
        rng = np.random.default_rng(objectives)
        for _ in range(120):
            count = int(rng.integers(0, 36))
            # Small integer grids maximise duplicates and dominance ties.
            values = (
                rng.integers(0, 4, size=(count, objectives))
                .astype(float)
                .tolist()
            )
            assert fast_non_dominated_sort(values) == (
                fast_non_dominated_sort_reference(values)
            )

    def test_continuous_fronts(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            count = int(rng.integers(1, 60))
            values = rng.random((count, 2)).tolist()
            assert fast_non_dominated_sort(values) == (
                fast_non_dominated_sort_reference(values)
            )

    def test_non_dominated_indices_match_pairwise_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            count = int(rng.integers(0, 30))
            values = rng.integers(0, 3, size=(count, 2)).astype(float).tolist()
            want = [
                index
                for index, candidate in enumerate(values)
                if not any(
                    dominates(other, candidate)
                    for position, other in enumerate(values)
                    if position != index
                )
            ]
            assert non_dominated_indices(values) == want


class TestCrowding:
    def test_boundary_points_are_infinite(self):
        values = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)]
        distances = crowding_distances(values)
        assert distances[0] == np.inf and distances[3] == np.inf
        assert np.isfinite(distances[1]) and np.isfinite(distances[2])

    def test_two_or_fewer_points_are_infinite(self):
        assert np.all(np.isinf(crowding_distances([(1.0, 2.0)])))
        assert np.all(np.isinf(crowding_distances([(1.0, 2.0), (2.0, 1.0)])))

    def test_degenerate_axis_does_not_divide_by_zero(self):
        distances = crowding_distances([(1.0, 5.0), (1.0, 3.0), (1.0, 1.0)])
        assert np.all(np.isfinite(distances) | np.isinf(distances))


class TestParetoArchive:
    def test_keeps_non_dominated_only(self):
        archive = ParetoArchive()
        assert archive.add(make_result((2.0, 2.0)))
        assert archive.add(make_result((1.0, 3.0)))
        assert not archive.add(make_result((3.0, 3.0)))  # dominated, rejected
        assert archive.front_values() == [(1.0, 3.0), (2.0, 2.0)]
        # A new point dominating existing entries evicts them.
        assert archive.add(make_result((1.0, 1.0)))
        assert archive.front_values() == [(1.0, 1.0)]

    def test_duplicates_collapse(self):
        archive = ParetoArchive()
        assert archive.add(make_result((1.0, 3.0)))
        assert not archive.add(make_result((1.0, 3.0)))
        assert len(archive) == 1

    def test_capacity_eviction_preserves_extremes(self):
        archive = ParetoArchive(capacity=3)
        points = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]
        for point in points:
            archive.add(make_result(point))
        assert len(archive) == 3
        values = archive.front_values()
        assert (1.0, 5.0) in values  # latency extreme
        assert (5.0, 1.0) in values  # area extreme

    def test_requires_vector(self):
        archive = ParetoArchive()
        with pytest.raises(ValueError, match="objective_vector"):
            archive.add(
                EvaluationResult(
                    fitness=-1.0,
                    valid=True,
                    objective=Objective.LATENCY,
                    objective_value=1.0,
                    design=None,
                    violations=(),
                )
            )


class TestParetoResultProperties:
    def make(self, vectors):
        return ParetoResult(
            optimizer_name="x",
            objectives=(Objective.LATENCY, Objective.AREA),
            front=tuple(make_result(v) for v in vectors),
            evaluations=10,
            sampling_budget=10,
            wall_time_seconds=1.0,
            batch_calls=2,
            batched_evaluations=10,
        )

    def test_extremes_and_invariants(self):
        result = self.make([(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)])
        assert result.found_valid
        assert result.is_non_dominated()
        assert result.extreme_value(Objective.LATENCY) == 1.0
        assert result.extreme_value(Objective.AREA) == 1.0
        assert result.extreme_point(Objective.AREA).objective_vector == (4.0, 1.0)
        assert result.evals_per_second == 10.0
        assert "front of 3" in result.summary()

    def test_dominated_front_detected(self):
        result = self.make([(1.0, 1.0), (2.0, 2.0)])
        assert not result.is_non_dominated()

    def test_unsearched_objective_rejected(self):
        result = self.make([(1.0, 2.0)])
        with pytest.raises(ValueError, match="not among"):
            result.extreme_value(Objective.ENERGY)

    def test_empty_front(self):
        result = ParetoResult(
            optimizer_name="x",
            objectives=(Objective.LATENCY,),
            front=(),
            evaluations=0,
            sampling_budget=10,
            wall_time_seconds=0.0,
        )
        assert not result.found_valid
        assert result.extreme_value(Objective.LATENCY) == float("inf")
        assert result.extreme_point(Objective.LATENCY) is None
        assert "empty front" in result.summary()


class TestFrameworkParetoSearch:
    @pytest.fixture(scope="class")
    def framework(self):
        framework = CoOptimizationFramework(
            get_model("ncf"), EDGE, objectives="latency,energy,area"
        )
        yield framework
        framework.close()

    def test_primary_objective_drives_scalar_fitness(self, framework):
        assert framework.objective is Objective.LATENCY
        assert framework.evaluator.objectives == ObjectiveSet.from_names(
            "latency,energy,area"
        )

    def test_results_carry_objective_vectors(self, framework):
        space = framework.space
        rng = np.random.default_rng(0)
        result = framework.evaluator.evaluate_genome(space.random_genome(rng))
        assert result.objective_vector is not None
        assert len(result.objective_vector) == 3
        assert result.objective_vector[0] == result.objective_value

    def test_any_optimizer_yields_a_front(self, framework):
        result = framework.pareto_search(RandomSearch(), sampling_budget=60, seed=0)
        assert result.found_valid
        assert result.is_non_dominated()
        assert result.evaluations == 60

    def test_front_members_match_scalar_objective_values(self, framework):
        result = framework.pareto_search(DiGamma(), sampling_budget=80, seed=0)
        assert result.is_non_dominated()
        for entry in result.front:
            assert entry.valid
            assert entry.objective_vector == (
                entry.design.latency,
                entry.design.energy,
                entry.design.area.total,
            )

    def test_pareto_search_requires_objectives(self):
        framework = CoOptimizationFramework(get_model("ncf"), EDGE)
        try:
            with pytest.raises(ValueError, match="ObjectiveSet"):
                framework.pareto_search(RandomSearch(), sampling_budget=10)
        finally:
            framework.close()

    def test_scalar_path_is_bit_identical_with_objectives(self):
        """Requesting objective vectors must not change the scalar search."""
        plain = CoOptimizationFramework(get_model("ncf"), EDGE)
        vectored = CoOptimizationFramework(
            get_model("ncf"), EDGE, objectives="latency,energy"
        )
        try:
            result_plain = plain.search(DiGamma(), sampling_budget=80, seed=3)
            result_vectored = vectored.search(DiGamma(), sampling_budget=80, seed=3)
            assert result_plain.best.fitness == result_vectored.best.fitness
            assert result_plain.history == result_vectored.history
        finally:
            plain.close()
            vectored.close()

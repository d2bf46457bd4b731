"""Array scoring of the gene-matrix path against the per-design oracle.

``DesignEvaluator.evaluate_matrix`` scores a priced population column by
column and builds result objects only when they are read.  The contract
pinned here: every built result equals, field for field and bit for bit,
what :meth:`DesignEvaluator._score_performance` makes of the same design
priced on its own — under every objective and objective set, over budget
or not, with either buffer allocation or fixed hardware, at 1, 2 and 3
hierarchy levels, with repeated rows and with rows whose integer products
approach int64.  Also pinned: the tracker's batch bookkeeping equals the
per-result ``_record`` loop and builds only improving results, and the
lazy batch survives worker pools and pickling.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.hardware import HardwareConfig
from repro.arch.platform import CLOUD, EDGE
from repro.encoding.genome_matrix import LEVEL_WIDTH, GenomeMatrix, repaired_matrix
from repro.framework.evaluator import DesignEvaluator, ResultBatch
from repro.framework.objective import Objective, ObjectiveSet
from repro.framework.pareto import ParetoArchive
from repro.framework.search import SearchTracker
from repro.workloads.layer import Layer
from repro.workloads.model import build_model
from repro.workloads.registry import get_model

_MODELS = {
    "ncf": get_model("ncf"),
    "tiny": build_model(
        "tiny",
        [
            Layer.conv2d("small", in_channels=8, out_channels=16, out_hw=8, kernel=3),
            Layer.depthwise("dw", channels=96, out_hw=14, kernel=3),
            Layer.gemm("fc", m=64, n=256, k=512),
        ],
    ),
}


def _same(got, want, what):
    """Equal values of the same type; floats compared bit for bit."""
    assert type(got) is type(want), f"{what}: {type(got)} vs {type(want)}"
    if isinstance(want, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, want), what
        assert got == want or (got != got and want != want), (
            f"{what}: {got!r} vs {want!r}"
        )
    elif isinstance(want, tuple):
        assert len(got) == len(want), what
        for index, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{what}[{index}]")
    else:
        assert got == want, f"{what}: {got!r} vs {want!r}"


def _oracle(evaluator, matrix, index):
    """Row ``index`` priced per design and scored by the oracle."""
    genome = matrix.genome_at(index)
    performance = evaluator.cost_model.evaluate_model(
        evaluator.model,
        genome.to_mapping(),
        evaluator.platform.noc_bandwidth,
        evaluator.platform.dram_bandwidth,
    )
    return evaluator._score_performance(
        performance,
        pe_array=tuple(int(size) for size in matrix.data[index, ::LEVEL_WIDTH]),
        mapping_fingerprint=matrix.data[index].tobytes(),
    )


def _assert_matches_oracle(evaluator, matrix, batch):
    assert len(batch) == len(matrix)
    for index in range(len(matrix)):
        got = batch[index]
        want = _oracle(evaluator, matrix, index)
        where = f"row {index}"
        _same(batch.fitnesses[index], want.fitness, f"{where} fitnesses")
        _same(batch.valid[index], want.valid, f"{where} valid list")
        for name in (
            "fitness",
            "valid",
            "objective_value",
            "violations",
            "objective_vector",
        ):
            _same(getattr(got, name), getattr(want, name), f"{where} {name}")
        assert got.objective is want.objective
        for name in ("pe_area", "l1_area", "l2_area"):
            _same(
                getattr(got.design.area, name),
                getattr(want.design.area, name),
                f"{where} area.{name}",
            )
        for field in fields(HardwareConfig):
            _same(
                getattr(got.design.hardware, field.name),
                getattr(want.design.hardware, field.name),
                f"{where} hardware.{field.name}",
            )
        got_performance = got.design.performance
        want_performance = want.design.performance
        for name in (
            "latency",
            "energy",
            "l1_requirement_bytes",
            "l2_requirement_bytes",
        ):
            _same(
                getattr(got_performance, name),
                getattr(want_performance, name),
                f"{where} performance.{name}",
            )
        assert len(got_performance.layers) == len(want_performance.layers)
        for got_layer, want_layer in zip(
            got_performance.layers, want_performance.layers
        ):
            for field in fields(want_layer):
                _same(
                    getattr(got_layer, field.name),
                    getattr(want_layer, field.name),
                    f"{where} {want_layer.layer_name}.{field.name}",
                )
        assert got.genes == matrix.data[index].tolist()
        assert got.genome.cache_key() == matrix.genome_at(index).cache_key()
        assert (
            got.design.mapping.cache_key()
            == want.design.mapping.cache_key()
        )


@st.composite
def configurations(draw):
    """An evaluator configuration plus a population seed and shape."""
    num_levels = draw(st.sampled_from([1, 2, 3]))
    objectives = None
    if draw(st.booleans()):
        chosen = draw(
            st.lists(
                st.sampled_from(list(Objective)), min_size=1, max_size=5, unique=True
            )
        )
        objectives = ObjectiveSet(tuple(chosen))
    fixed = None
    allocation = draw(st.sampled_from(["exact", "fill"]))
    if draw(st.integers(0, 3)) == 0:
        allocation = "exact"
        fixed = HardwareConfig(
            pe_array=tuple(draw(st.sampled_from([2, 4, 8])) for _ in range(num_levels)),
            l1_size=draw(st.integers(1, 4096)),
            l2_size=draw(st.integers(1, 2**20)),
        )
    return {
        "model": draw(st.sampled_from(sorted(_MODELS))),
        "platform": draw(st.sampled_from([EDGE, CLOUD])),
        "objective": draw(st.sampled_from(list(Objective))),
        "objectives": objectives,
        "buffer_allocation": allocation,
        "fixed_hardware": fixed,
        "num_levels": num_levels,
        "seed": draw(st.integers(0, 2**16)),
        "count": draw(st.integers(1, 24)),
        "repeats": draw(st.lists(st.integers(0, 23), max_size=6)),
    }


def _evaluator(config, **extra):
    return DesignEvaluator(
        model=_MODELS[config["model"]],
        platform=config["platform"],
        objective=config["objective"],
        objectives=config["objectives"],
        buffer_allocation=config["buffer_allocation"],
        fixed_hardware=config["fixed_hardware"],
        **extra,
    )


def _population(evaluator, config):
    space = evaluator.genome_space(num_levels=config["num_levels"])
    rng = np.random.default_rng(config["seed"])
    matrix = repaired_matrix(
        GenomeMatrix.from_genomes(space.random_population(config["count"], rng)),
        space,
    )
    # Repeated rows: the cost model prices each distinct work row once.
    repeats = [index % config["count"] for index in config["repeats"]]
    data = np.concatenate([matrix.data, matrix.data[repeats]])
    return GenomeMatrix(data, matrix.num_levels)


class TestArrayScoringMatchesOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(configurations())
    def test_every_field_matches_score_performance(self, config):
        evaluator = _evaluator(config)
        matrix = _population(evaluator, config)
        _assert_matches_oracle(evaluator, matrix, evaluator.evaluate_matrix(matrix))

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("allocation", ["exact", "fill"])
    def test_over_budget_rows_grade_severity_and_explain(self, objective, allocation):
        # Cloud-sized PE arrays on the edge budget: most rows violate the
        # area constraint, so severity grading and the violation text are
        # exercised on every objective.
        edge = DesignEvaluator(
            model=_MODELS["ncf"],
            platform=EDGE,
            objective=objective,
            objectives=ObjectiveSet(tuple(Objective)),
            buffer_allocation=allocation,
        )
        cloud = DesignEvaluator(model=_MODELS["ncf"], platform=CLOUD)
        space = cloud.genome_space()
        rng = np.random.default_rng(7)
        matrix = repaired_matrix(
            GenomeMatrix.from_genomes(space.random_population(30, rng)), space
        )
        batch = edge.evaluate_matrix(matrix)
        assert not all(batch.valid) and any(batch.valid)
        _assert_matches_oracle(edge, matrix, batch)
        invalid = batch[batch.valid.index(False)]
        assert invalid.violations and "exceeds budget" in invalid.violations[0]

    def test_fixed_hardware_buffer_violations(self):
        fixed = HardwareConfig(pe_array=(4, 4), l1_size=64, l2_size=4096)
        evaluator = DesignEvaluator(
            model=_MODELS["tiny"], platform=EDGE, fixed_hardware=fixed
        )
        space = evaluator.genome_space()
        rng = np.random.default_rng(11)
        matrix = repaired_matrix(
            GenomeMatrix.from_genomes(space.random_population(40, rng)), space
        )
        batch = evaluator.evaluate_matrix(matrix)
        assert not all(batch.valid) and any(batch.valid)
        _assert_matches_oracle(evaluator, matrix, batch)
        texts = [text for result in batch for text in result.violations]
        assert any("of L1 per PE" in text for text in texts)

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    @pytest.mark.parametrize("allocation", ["exact", "fill"])
    def test_rows_near_int64(self, num_levels, allocation):
        # Spatial genes far beyond any budget.  Row 0's PE count of 2**62
        # and row 2's PE count times its L1 requirement (in [2**63, 2**64))
        # would leave int64 in num_pes * l1, so both rows must be scored
        # by the oracle; row 1's PE count of 2**40 stays on the array path.
        evaluator = DesignEvaluator(
            model=_MODELS["tiny"],
            platform=EDGE,
            buffer_allocation=allocation,
            objectives=ObjectiveSet(tuple(Objective)),
        )
        space = evaluator.genome_space(num_levels=num_levels)
        rng = np.random.default_rng(13)
        data = repaired_matrix(
            GenomeMatrix.from_genomes(space.random_population(12, rng)), space
        ).data.copy()

        def with_pe_count(bits_by_row):
            for row, bits in bits_by_row.items():
                shares = [bits // num_levels] * num_levels
                shares[0] += bits - sum(shares)
                for level, share in enumerate(shares):
                    data[row, level * LEVEL_WIDTH] = 2**share
            return GenomeMatrix(data, num_levels)

        probe = evaluator.evaluate_matrix(with_pe_count({0: 62, 1: 40, 2: 40}))
        l1 = probe[2].design.performance.l1_requirement_bytes
        matrix = with_pe_count({2: 64 - l1.bit_length()})
        batch = evaluator.evaluate_matrix(matrix)
        assert batch[2].design.performance.l1_requirement_bytes == l1
        assert 2**63 <= batch[2].design.hardware.num_pes * l1 < 2**64
        _assert_matches_oracle(evaluator, matrix, batch)
        assert sorted(batch._parts[0][1].oracle) == [0, 2]
        assert not any(batch.valid[:3])


def _archive_tracker(budget=200):
    evaluator = DesignEvaluator(
        model=_MODELS["ncf"],
        platform=EDGE,
        objectives=ObjectiveSet.from_names("latency,energy,area"),
    )
    return SearchTracker(
        evaluator,
        evaluator.genome_space(),
        sampling_budget=budget,
        archive=ParetoArchive(),
    )


def _improving_batch(tracker, seed):
    """Rows ordered so the best improves mid-batch, with exact ties."""
    rng = np.random.default_rng(seed)
    matrix = repaired_matrix(
        GenomeMatrix.from_genomes(tracker.space.random_population(24, rng)),
        tracker.space,
    )
    probe = tracker.evaluator.evaluate_matrix(matrix).fitnesses
    ascending = np.argsort(probe, kind="stable")
    order = list(ascending[:6]) + list(ascending[:6]) + list(rng.permutation(24))
    return GenomeMatrix(matrix.data[order], matrix.num_levels)


class TestTrackerBatchBookkeeping:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_matches_the_per_result_record_loop(self, seed):
        batched = _archive_tracker()
        looped = _archive_tracker()
        for generation in range(3):
            matrix = _improving_batch(batched, seed + generation)
            fitnesses = batched.evaluate_matrix(matrix)
            results = list(
                looped.evaluator.evaluate_matrix(
                    repaired_matrix(matrix, looped.space)
                )
            )
            for result in results:
                looped.evaluations += 1
                looped._record(result)
            assert fitnesses == [result.fitness for result in results]
        assert len(batched.history) > 2
        assert batched.history == looped.history
        assert batched.evaluations == looped.evaluations
        assert batched.best.fitness == looped.best.fitness
        assert batched.best.genes == looped.best.genes
        assert [
            (tuple(result.objective_vector), result.genes)
            for result in batched.archive.entries_in_order()
        ] == [
            (tuple(result.objective_vector), result.genes)
            for result in looped.archive.entries_in_order()
        ]

    def test_only_improving_results_are_built(self):
        evaluator = DesignEvaluator(model=_MODELS["ncf"], platform=EDGE)
        tracker = SearchTracker(
            evaluator, evaluator.genome_space(), sampling_budget=100
        )
        matrix = _improving_batch(tracker, 17)
        batch = tracker.evaluate_matrix_results(matrix)
        built = [index for index, result in enumerate(batch._results) if result]
        assert [index + 1 for index in built] == [
            evaluation for evaluation, _ in tracker.history
        ]
        assert tracker.best is batch[built[-1]]


class TestResultBatchTransport:
    def test_worker_pool_matches_in_process(self):
        objectives = ObjectiveSet.from_names("latency,energy,area")
        pooled = DesignEvaluator(
            model=_MODELS["ncf"], platform=EDGE, objectives=objectives, workers=2
        )
        local = DesignEvaluator(
            model=_MODELS["ncf"], platform=EDGE, objectives=objectives
        )
        try:
            space = local.genome_space()
            rng = np.random.default_rng(19)
            matrix = repaired_matrix(
                GenomeMatrix.from_genomes(space.random_population(25, rng)), space
            )
            pooled_batch = pooled.evaluate_matrix(matrix)
            local_batch = local.evaluate_matrix(matrix)
        finally:
            pooled.shutdown()
        assert pooled_batch.fitnesses == local_batch.fitnesses
        assert pooled_batch.valid == local_batch.valid
        _assert_matches_oracle(local, matrix, pooled_batch)

    def test_lazy_batch_pickles(self):
        evaluator = DesignEvaluator(
            model=_MODELS["ncf"],
            platform=EDGE,
            objectives=ObjectiveSet.from_names("latency,area"),
        )
        space = evaluator.genome_space()
        rng = np.random.default_rng(23)
        matrix = repaired_matrix(
            GenomeMatrix.from_genomes(space.random_population(16, rng)), space
        )
        batch = evaluator.evaluate_matrix(matrix)
        batch[3]  # one row already built, the rest still lazy
        restored = pickle.loads(pickle.dumps(batch))
        assert isinstance(restored, ResultBatch)
        assert restored.fitnesses == batch.fitnesses
        _assert_matches_oracle(evaluator, matrix, restored)

    def test_join_keeps_row_order(self):
        evaluator = DesignEvaluator(model=_MODELS["tiny"], platform=EDGE)
        space = evaluator.genome_space()
        rng = np.random.default_rng(29)
        matrix = repaired_matrix(
            GenomeMatrix.from_genomes(space.random_population(10, rng)), space
        )
        halves = [
            evaluator.evaluate_matrix(GenomeMatrix(part, matrix.num_levels))
            for part in (matrix.data[:4], matrix.data[4:])
        ]
        joined = ResultBatch.join(halves)
        assert joined.fitnesses == evaluator.evaluate_matrix(matrix).fitnesses
        _assert_matches_oracle(evaluator, matrix, joined)
        assert joined[-1].genes == matrix.data[-1].tolist()

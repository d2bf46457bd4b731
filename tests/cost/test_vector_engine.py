"""Bit-identical parity of the vector (population-axis) engine.

The NumPy structure-of-arrays engine evaluates whole batches of
(layer, mapping) rows in one pass; the hard invariant is that every field
of every report — and therefore every fitness, cache entry and search
trajectory — is *bit-identical* to the scalar fast engine and the seed
reference implementation.  These tests sweep seeded random repaired
genomes over real models and platforms and compare with ``==`` (no
tolerances), and additionally exercise every scalar-fallback trigger:
non-two-level hierarchies, oversized layer statics, sub-threshold batches
and 2**53-scale intermediates.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.arch.platform import CLOUD, EDGE
from repro.cost.maestro import CostModel, LazyModelPerformance
from repro.cost.vector_engine import MIN_VECTOR_ROWS
from repro.encoding.genome import GenomeSpace
from repro.encoding.repair import repair_genome, repaired_copy
from repro.framework.evaluator import DesignEvaluator
from repro.mapping.mapping import Mapping, mapping_from_cache_key, uniform_mapping
from repro.workloads.layer import Layer
from repro.workloads.model import Model
from repro.workloads.registry import get_model

PLATFORMS = pytest.mark.parametrize("platform", [EDGE, CLOUD], ids=["edge", "cloud"])


def _random_mappings(model, count, seed, num_levels=2):
    space = GenomeSpace.from_model(model, max_pes=4096, num_levels=num_levels)
    rng = np.random.default_rng(seed)
    return [
        repair_genome(space.random_genome(rng), space).to_mapping()
        for _ in range(count)
    ]


def _assert_reports_identical(batch_performance, scalar_performance):
    assert batch_performance.latency == scalar_performance.latency
    assert batch_performance.energy == scalar_performance.energy
    assert (
        batch_performance.l1_requirement_bytes
        == scalar_performance.l1_requirement_bytes
    )
    assert (
        batch_performance.l2_requirement_bytes
        == scalar_performance.l2_requirement_bytes
    )
    for batch_layer, scalar_layer in zip(
        batch_performance.layers, scalar_performance.layers
    ):
        for field in fields(scalar_layer):
            batch_value = getattr(batch_layer, field.name)
            scalar_value = getattr(scalar_layer, field.name)
            assert batch_value == scalar_value, (
                f"{field.name}: vector={batch_value!r} scalar={scalar_value!r}"
            )
            assert type(batch_value) is type(scalar_value), field.name


class TestBatchMatchesScalar:
    @PLATFORMS
    @pytest.mark.parametrize("model_name", ["resnet18", "mobilenet_v2", "dlrm"])
    def test_random_repaired_genomes(self, platform, model_name):
        model = get_model(model_name)
        mappings = _random_mappings(model, 25, seed=2022)
        batch_model = CostModel()
        scalar_model = CostModel()
        batch = batch_model.evaluate_model_batch(
            model, mappings, platform.noc_bandwidth, platform.dram_bandwidth
        )
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(
                model, mapping, platform.noc_bandwidth, platform.dram_bandwidth
            )
            _assert_reports_identical(batch_performance, scalar)
        stats = batch_model.vector_stats
        assert stats["rows_vectorized"] > 0
        assert stats["rows_fallback"] == 0

    def test_reference_engine_agrees(self):
        model = get_model("resnet18")
        mappings = _random_mappings(model, 6, seed=7)
        batch = CostModel().evaluate_model_batch(model, mappings, 64.0, 16.0)
        reference = CostModel(engine="reference")
        for mapping, batch_performance in zip(mappings, batch):
            scalar = reference.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)

    def test_raw_cache_key_parts_match_mapping_objects(self):
        model = get_model("ncf")
        mappings = _random_mappings(model, 10, seed=3)
        from_mappings = CostModel().evaluate_model_batch(model, mappings, 64.0, 16.0)
        from_parts = CostModel().evaluate_model_batch(
            model, [mapping.cache_key() for mapping in mappings], 64.0, 16.0
        )
        for a, b in zip(from_mappings, from_parts):
            _assert_reports_identical(a, b)

class TestScalarFallbacks:
    @pytest.mark.parametrize("num_levels", [1, 3])
    def test_non_default_hierarchy_depths(self, num_levels):
        # Depth is a parameter, not a fallback trigger: 1- and 3-level
        # batches ride the vector path and match the scalar engine exactly.
        model = get_model("ncf")
        mappings = _random_mappings(model, 8, seed=11, num_levels=num_levels)
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar_model = CostModel()
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)
        assert batch_model.vector_stats["rows_vectorized"] > 0
        assert batch_model.vector_stats["fallback_depth"] == 0
        assert batch_model.vector_stats["rows_fallback"] == 0

    def test_mixed_depth_batches_group_by_depth(self):
        # One call containing 1-, 2- and 3-level mappings vectorizes every
        # depth group (each is >= MIN_VECTOR_ROWS rows) without fallback.
        model = get_model("ncf")
        mappings = []
        for num_levels in (1, 2, 3):
            mappings += _random_mappings(
                model, 2 * MIN_VECTOR_ROWS, seed=41 + num_levels,
                num_levels=num_levels,
            )
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar_model = CostModel()
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)
        assert batch_model.vector_stats["rows_fallback"] == 0
        assert batch_model.vector_stats["rows_vectorized"] > 0

    def test_oversized_layer_statics_fall_back(self):
        # macs = 2**60 >= 2**53: float64 cannot hold the integer chain.
        layer = Layer.conv2d("huge", 2**20, 2**20, (2**10, 2**10), 1)
        model = Model(name="huge", layers=(layer,))
        mappings = _random_mappings(model, 3 * MIN_VECTOR_ROWS, seed=31)
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar_model = CostModel()
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)
        assert batch_model.vector_stats["rows_vectorized"] == 0
        assert batch_model.vector_stats["rows_fallback"] > 0

    def test_large_intermediate_products_fall_back_row_wise(self):
        # Statics stay vectorizable (macs = 2**40) but the input-halo
        # footprint c * in_y * in_x crosses 2**53 mid-chain on full L2
        # tiles, so such rows are flagged inexact and must reproduce the
        # scalar engine's exact bits.
        layer = Layer.conv2d(
            "strided", 2**10, 1, (2**15, 2**15), 1, stride=2**20
        )
        model = Model(name="strided", layers=(layer,))
        mappings = [uniform_mapping(layer, (4, 4), ("Y", "X"))]
        mappings += _random_mappings(model, 3 * MIN_VECTOR_ROWS, seed=37)
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar_model = CostModel()
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)
        assert batch_model.vector_stats["rows_fallback"] > 0
        assert batch_model.vector_stats["rows_vectorized"] > 0

    def test_unflagged_final_products_beyond_2_53_stay_exact(self):
        # Traffic terms that only feed the float accumulation carry no
        # exactness flag even past 2**53: IEEE-754 rounds the product of
        # exact operands once, exactly like the scalar engine's int->float
        # conversion.  This pins that reasoning with dram terms ~2**54
        # (unit K/C tiles + K ordered outside C maximise input re-fetch)
        # evaluated WITHOUT any scalar fallback.
        from repro.mapping.directives import LevelMapping

        layer = Layer.conv2d("big", 2**10, 2**10, (2**15, 2**15), 1, stride=4)
        assert layer.macs < 2**53  # stays on the vectorized path
        model = Model(name="big", layers=(layer,))
        order = ("Y", "X", "R", "S", "K", "C")
        inner = LevelMapping(
            spatial_size=4, parallel_dim="X", order=order,
            tiles={"K": 1, "C": 1, "Y": 1, "X": 1, "R": 1, "S": 1},
        )
        mappings = [
            Mapping(levels=(
                LevelMapping(
                    spatial_size=4, parallel_dim="Y", order=order,
                    tiles={"K": 1, "C": c_tile, "Y": 2**15, "X": 2**15,
                           "R": 1, "S": 1},
                ),
                inner,
            ))
            for c_tile in (1, 2, 3, 5, 7, 11, 13, 17, 19)
        ]
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar_model = CostModel()
        assert any(
            performance.layers[0].dram_bytes >= 2.0**53 for performance in batch
        )
        for mapping, batch_performance in zip(mappings, batch):
            scalar = scalar_model.evaluate_model(model, mapping, 64.0, 16.0)
            _assert_reports_identical(batch_performance, scalar)
        assert batch_model.vector_stats["rows_fallback"] == 0

    def test_small_batches_use_the_scalar_engine(self):
        model = get_model("ncf")
        num_rows = max(1, (MIN_VECTOR_ROWS - 1) // len(model.unique_layers()))
        mappings = _random_mappings(model, num_rows, seed=13)
        batch_model = CostModel()
        batch = batch_model.evaluate_model_batch(model, mappings, 64.0, 16.0)
        scalar = CostModel()
        for mapping, batch_performance in zip(mappings, batch):
            _assert_reports_identical(
                batch_performance,
                scalar.evaluate_model(model, mapping, 64.0, 16.0),
            )
        assert batch_model.vector_stats["rows_vectorized"] == 0


class TestMappingFromCacheKey:
    def test_rebuilds_field_identical_mappings(self):
        model = get_model("resnet18")
        for mapping in _random_mappings(model, 10, seed=17):
            rebuilt = mapping_from_cache_key(mapping.cache_key())
            assert rebuilt == mapping
            assert rebuilt.cache_key() == mapping.cache_key()
            assert rebuilt.pe_array == mapping.pe_array
            for rebuilt_level, level in zip(rebuilt.levels, mapping.levels):
                assert rebuilt_level.tiles_tuple == level.tiles_tuple
                assert rebuilt_level.order_indexes == level.order_indexes
                assert rebuilt_level.static_key == level.static_key

    def test_rejects_non_permutation_orders(self):
        mapping = _random_mappings(get_model("ncf"), 1, seed=1)[0]
        (static, tiles), rest = mapping.cache_key()[0], mapping.cache_key()[1]
        broken = (((static[0], static[1], (0, 0, 2, 3, 4, 5)), tiles), rest)
        with pytest.raises(ValueError):
            mapping_from_cache_key(broken)


class TestLazyContainers:
    def test_lazy_performance_materializes_consistently(self):
        model = get_model("ncf")
        mapping = _random_mappings(model, 1, seed=19)[0]
        batch = CostModel().evaluate_model_batch(model, [mapping], 64.0, 16.0)[0]
        eager = CostModel().evaluate_model(model, mapping, 64.0, 16.0)
        assert isinstance(batch, LazyModelPerformance)
        # Derived properties that go through the lazy layers.
        assert batch.dram_bytes == eager.dram_bytes
        assert batch.macs == eager.macs
        assert batch.average_utilization == eager.average_utilization
        assert batch.num_pes == eager.num_pes
        assert batch.per_layer().keys() == eager.per_layer().keys()
        assert batch.summary() == eager.summary()

    def test_vector_results_serialize_like_scalar_results(self):
        from repro.serialization import search_result_to_dict
        from repro.framework.search import SearchResult

        model = get_model("ncf")
        vector = DesignEvaluator(model=model, platform=EDGE, engine="vector")
        scalar = DesignEvaluator(model=model, platform=EDGE, engine="fast")
        space = vector.genome_space()
        rng = np.random.default_rng(23)
        genomes = [
            repaired_copy(space.random_genome(rng), space) for _ in range(6)
        ]
        vector_results = vector.evaluate_population(genomes)
        scalar_results = [scalar.evaluate_genome(genome) for genome in genomes]

        def as_dict(result):
            return search_result_to_dict(
                SearchResult(
                    optimizer_name="test",
                    best=result,
                    evaluations=1,
                    sampling_budget=1,
                    wall_time_seconds=1.0,
                )
            )

        for vector_result, scalar_result in zip(vector_results, scalar_results):
            assert as_dict(vector_result) == as_dict(scalar_result)


class TestRepairedCopy:
    def test_matches_repair_of_a_copy(self):
        model = get_model("resnet18")
        space = GenomeSpace.from_model(model, max_pes=4096)
        rng = np.random.default_rng(29)
        for _ in range(40):
            genome = space.random_genome(rng)
            # Corrupt some genes so repair actually has work to do.
            genome.levels[0].spatial_size = int(rng.integers(-3, 9000))
            genome.levels[0].tiles["K"] = int(rng.integers(-2, 9999))
            if rng.random() < 0.5:
                genome.levels[1].order[0] = genome.levels[1].order[1]
            if rng.random() < 0.3:
                genome.levels[1].parallel_dim = "bogus"
            via_copy = repair_genome(genome.copy(), space)
            fused = repaired_copy(genome, space)
            assert fused.cache_key() == via_copy.cache_key()
            for fused_level, copied_level in zip(fused.levels, via_copy.levels):
                assert fused_level.order == copied_level.order
                assert fused_level.tiles == copied_level.tiles
                assert fused_level.spatial_size == copied_level.spatial_size
                assert fused_level.parallel_dim == copied_level.parallel_dim

    def test_leaves_the_original_untouched(self):
        model = get_model("ncf")
        space = GenomeSpace.from_model(model, max_pes=256)
        genome = space.random_genome(np.random.default_rng(0))
        genome.levels[0].tiles["K"] = 10**9
        before = genome.levels[0].tiles["K"]
        repaired_copy(genome, space)
        assert genome.levels[0].tiles["K"] == before

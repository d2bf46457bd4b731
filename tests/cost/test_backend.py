"""The pluggable cost-backend seam and the ZigZag-style backend.

The zigzag backend is an *independently coded* cost model, so these tests
pin its contract rather than its exact numbers: the protocol surface the
evaluator relies on, exact agreement with the analytic backend on the
shared modeling ground (footprint geometry, buffer sizing, PE counting,
total loop trips), and the stationarity lower-bound relationship on the
quantities the two models intentionally count differently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.backend import BACKENDS, CostBackend, create_backend
from repro.cost.maestro import CostModel
from repro.cost.zigzag import ZigZagCostModel
from repro.encoding.genome import GenomeSpace
from repro.encoding.repair import repair_genome
from repro.workloads.registry import get_model


def _random_mappings(model, count, seed, num_levels=2):
    space = GenomeSpace.from_model(model, max_pes=4096, num_levels=num_levels)
    rng = np.random.default_rng(seed)
    return [
        repair_genome(space.random_genome(rng), space).to_mapping()
        for _ in range(count)
    ]


class TestFactory:
    def test_analytic_builds_cost_model(self):
        backend = create_backend("analytic", bytes_per_element=2)
        assert isinstance(backend, CostModel)
        assert backend.bytes_per_element == 2

    def test_zigzag_builds_zigzag_model(self):
        backend = create_backend("zigzag", cache_size=7)
        assert isinstance(backend, ZigZagCostModel)
        assert backend.layer_cache.maxsize == 7

    def test_unknown_backend_names_valid_choices(self):
        with pytest.raises(ValueError) as excinfo:
            create_backend("timeloop")
        message = str(excinfo.value)
        for name in BACKENDS:
            assert name in message
        assert "timeloop" in message

    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_backend_satisfies_the_protocol(self, name):
        assert isinstance(create_backend(name), CostBackend)


class TestZigZagAgreement:
    """Shared ground agrees exactly; everything else is lower-bounded."""

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_shared_geometry_and_bounds(self, num_levels):
        model = get_model("ncf")
        mappings = _random_mappings(model, 24, seed=5, num_levels=num_levels)
        analytic = create_backend("analytic")
        zigzag = create_backend("zigzag")
        for a, z in zip(
            analytic.evaluate_model_batch(model, mappings, 64.0, 16.0),
            zigzag.evaluate_model_batch(model, mappings, 64.0, 16.0),
        ):
            for la, lz in zip(a.layers, z.layers):
                # Exact: pure functions of the shared geometry.
                assert la.l1_requirement_bytes == lz.l1_requirement_bytes
                assert la.l2_requirement_bytes == lz.l2_requirement_bytes
                assert la.num_pes == lz.num_pes
                assert la.active_pes == lz.active_pes
                assert la.macs == lz.macs
                assert la.compute_cycles == pytest.approx(
                    lz.compute_cycles, rel=1e-9
                )
                # Bounded: maximal stationarity only removes traffic, and
                # dropping the fill term only shortens latency.
                slack = 1.0 + 1e-9
                assert lz.l2_to_l1_bytes <= la.l2_to_l1_bytes * slack
                assert lz.dram_bytes <= la.dram_bytes * slack
                assert lz.latency <= la.latency * slack
                assert lz.energy <= la.energy * slack


class TestZigZagPlumbing:
    def test_layer_cache_round_trip(self):
        model = get_model("ncf")
        mappings = _random_mappings(model, 4, seed=9)
        backend = create_backend("zigzag")
        first = backend.evaluate_model_batch(model, mappings, 64.0, 16.0)
        misses = backend.cache_stats.misses
        assert misses > 0
        again = backend.evaluate_model_batch(model, mappings, 64.0, 16.0)
        assert backend.cache_stats.misses == misses
        assert backend.cache_stats.hits > 0
        for a, b in zip(first, again):
            assert a.latency == b.latency
            assert a.energy == b.energy

    def test_vector_stats_has_every_standard_key(self):
        stats = create_backend("zigzag").vector_stats
        for key in (
            "l2_hits",
            "l2_misses",
            "l2_writes",
            "rows_vectorized",
            "rows_fallback",
            "fallback_depth",
            "fallback_statics_overflow",
            "fallback_intermediate_overflow",
            "fallback_small_batch",
            "fallback_gene_overflow",
        ):
            assert stats[key] == 0
        assert len(stats) == 10

    def test_matrix_path_is_rejected(self):
        backend = create_backend("zigzag")
        with pytest.raises(ValueError, match="analytic"):
            backend.evaluate_model_matrix(None, None, 64.0, 16.0)

    def test_cache_clear_resets_counters(self):
        model = get_model("ncf")
        backend = create_backend("zigzag")
        backend.evaluate_model_batch(
            model, _random_mappings(model, 2, seed=3), 64.0, 16.0
        )
        backend.cache_clear()
        assert backend.cache_stats.size == 0
        assert backend.cache_stats.hits == 0

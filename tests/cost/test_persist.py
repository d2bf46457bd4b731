"""Tests for the persistent cross-run layer-cache tier.

Covers the on-disk store's crash-safety contract (truncation healing,
torn-index rebuild, version quarantine, tampered records served as
misses), the digest scheme's anti-aliasing, and the end-to-end tiering:
a warm per-design rerun must answer its layer pricings from disk with
bit-identical results, and gene-matrix searches must never touch the tier.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.cost.maestro import CostModel
from repro.cost.persist import (
    FORMAT_NAME,
    PersistentCacheCorruption,
    PersistentLayerCache,
    cache_namespace,
    statics_blob,
    tuple_key_digest,
)
from repro.workloads.statics import layer_statics
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.objective import Objective
from repro.serialization import design_to_dict
from repro.optim.registry import get_optimizer

NOC = 32.0
DRAM = 8.0
SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def _digest(tag: str) -> bytes:
    return hashlib.sha1(tag.encode()).digest()


def _fill(cache: PersistentLayerCache, count: int, tag: str = "row") -> None:
    for i in range(count):
        cache.put(_digest(f"{tag}{i}"), (i, float(i) * 1.5, i * 3))
    cache.flush()


class TestStoreRoundtrip:
    def test_put_flush_get_same_instance(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("a"), (1, 2.5, 3))
        assert cache.get(_digest("a")) == (1, 2.5, 3)  # buffered, pre-flush
        cache.flush()
        assert cache.get(_digest("a")) == (1, 2.5, 3)
        assert cache.get(_digest("missing")) is None
        assert cache.counters() == {"l2_hits": 2, "l2_misses": 1, "l2_writes": 1}

    def test_cross_instance_warm_reuse(self, tmp_path):
        first = PersistentLayerCache(tmp_path)
        _fill(first, 5)
        first.close()

        second = PersistentLayerCache(tmp_path)
        for i in range(5):
            assert second.get(_digest(f"row{i}")) == (i, float(i) * 1.5, i * 3)
        assert second.loaded_entries == 5
        assert second.counters()["l2_hits"] == 5
        assert second.counters()["l2_writes"] == 0
        # Own writes are no carryover, even once the closed store reopens.
        second.put(_digest("late"), (9,))
        second.close()
        assert second.stats()["entries"] == 6
        assert second.get(_digest("late")) == (9,)
        assert second.loaded_entries == 5

    def test_values_round_trip_floats_exactly(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        values = (0.1 + 0.2, 1e-300, 2**53 + 1.0, 12345678901234567)
        cache.put(_digest("exact"), values)
        cache.close()
        reopened = PersistentLayerCache(tmp_path)
        assert reopened.get(_digest("exact")) == values

    def test_put_deduplicates(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("a"), (1,))
        cache.put(_digest("a"), (1,))
        cache.flush()
        cache.put(_digest("a"), (1,))
        assert cache.counters()["l2_writes"] == 1
        assert cache.entries == 1

    def test_close_is_idempotent_and_reopenable(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        cache.close()
        assert cache.get(_digest("row0")) == (0, 0.0, 0)  # reopens lazily
        cache.put(_digest("late"), (9,))
        cache.close()
        assert PersistentLayerCache(tmp_path).get(_digest("late")) == (9,)


class TestCorruptionHandling:
    def test_truncated_data_file_heals(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 4)
        cache.close()

        # Kill the last record mid-line, as a dying writer would.
        data = cache.data_path.read_bytes()
        cache.data_path.write_bytes(data[:-9])

        with pytest.warns(PersistentCacheCorruption):
            survivor = PersistentLayerCache(tmp_path)
            assert survivor.get(_digest("row3")) is None  # the torn row
        for i in range(3):
            assert survivor.get(_digest(f"row{i}")) is not None
        assert survivor.corrupt_lines == 1

        # The next append closes the partial line; both rows then serve.
        survivor.put(_digest("fresh"), (7,))
        survivor.close()
        healed = PersistentLayerCache(tmp_path)
        assert healed.get(_digest("fresh")) == (7,)
        assert healed.get(_digest("row2")) is not None

    def test_torn_index_is_rebuilt_from_data(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 4)
        cache.close()

        # Tear the index mid-entry: it is only an accelerator, so every
        # row must still be served after a rescan of the data file.
        raw = cache.index_path.read_bytes()
        cache.index_path.write_bytes(raw[: len(raw) - 7])

        reopened = PersistentLayerCache(tmp_path)
        for i in range(4):
            assert reopened.get(_digest(f"row{i}")) is not None
        assert reopened.corrupt_lines == 0

    def test_missing_index_is_fine(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 3)
        cache.close()
        cache.index_path.unlink()
        assert PersistentLayerCache(tmp_path).get(_digest("row1")) is not None

    def test_version_mismatch_quarantines(self, tmp_path):
        store = tmp_path / "layers.jsonl"
        store.write_text(
            '{"format": "%s", "version": 1, "key_version": 999}\n'
            '{"k": "%s", "v": [1]}\n' % (FORMAT_NAME, _digest("old").hex())
        )
        with pytest.warns(PersistentCacheCorruption, match="quarantined"):
            cache = PersistentLayerCache(tmp_path)
            assert cache.get(_digest("old")) is None  # never served
        assert (tmp_path / "layers.jsonl.quarantined").exists()
        # The store keeps working after quarantine.
        cache.put(_digest("new"), (2,))
        cache.flush()
        assert cache.get(_digest("new")) == (2,)

    def test_foreign_file_quarantines(self, tmp_path):
        (tmp_path / "layers.jsonl").write_bytes(b"\x00\xffnot a cache\n")
        cache = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption):
            assert cache.entries == 0  # first access opens and quarantines

    def test_tampered_record_serves_as_miss(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 1)
        cache.close()

        # Re-key the record in place (same length) after the index was
        # written: the pread re-verification must refuse to serve it.
        data = cache.data_path.read_bytes()
        honest = _digest("row0").hex().encode()
        forged = _digest("evil").hex().encode()
        cache.data_path.write_bytes(data.replace(honest, forged))

        reopened = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption, match="unreadable"):
            assert reopened.get(_digest("row0")) is None
        assert reopened.corrupt_lines == 1
        # Dropped, not retried: the second lookup is a plain miss.
        assert reopened.get(_digest("row0")) is None

    def test_garbage_lines_are_skipped_not_served(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        with cache.data_path.open("ab") as handle:
            handle.write(b"{broken json\n")
        cache.index_path.unlink()  # force a full rescan
        reopened = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption):
            assert reopened.get(_digest("row0")) is not None
        assert reopened.corrupt_lines == 1

    def test_verify_reports_damage(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        assert cache.verify()["ok"] is True
        with cache.data_path.open("ab") as handle:
            handle.write(b"nonsense\n")
        report = cache.verify()
        assert report["ok"] is False and report["corrupt_lines"] == 1


class TestConcurrentWriters:
    def test_interleaved_flushes_keep_every_row(self, tmp_path, monkeypatch):
        # Two writers on one directory (shards or pool workers sharing a
        # --cache-dir): the second appends while the first is between its
        # size probe and its own append.
        first = PersistentLayerCache(tmp_path)
        second = PersistentLayerCache(tmp_path)
        first.put(_digest("a0"), (0, 0.5))
        first.put(_digest("a1"), (1, 1.5))
        second.put(_digest("b0"), (2, 2.5))

        real_pread = os.pread
        pending = [second]

        def pread(descriptor, length, offset):
            if pending:
                pending.pop().flush()
            return real_pread(descriptor, length, offset)

        monkeypatch.setattr(os, "pread", pread)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PersistentCacheCorruption)
            first.flush()
            assert not pending  # the interleaving really happened
            # Each writer serves its own fresh rows from disk.
            assert first.get(_digest("a0")) == (0, 0.5)
            assert first.get(_digest("a1")) == (1, 1.5)
            assert second.get(_digest("b0")) == (2, 2.5)
            first.close()
            second.close()

            # The last index written must not hide the other writer's rows.
            fresh = PersistentLayerCache(tmp_path)
            assert fresh.get(_digest("a0")) == (0, 0.5)
            assert fresh.get(_digest("a1")) == (1, 1.5)
            assert fresh.get(_digest("b0")) == (2, 2.5)
        assert fresh.corrupt_lines == 0

    def test_writer_processes_sharing_a_directory_lose_nothing(self, tmp_path):
        writers, flushes = 4, 25
        env = {**os.environ, "PYTHONPATH": str(SRC_ROOT)}
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), f"w{index}",
                 str(flushes)],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for index in range(writers)
        ]
        try:
            # Every writer has opened the store before any of them appends.
            for process in processes:
                assert process.stdout.readline().strip() == "ready"
            for process in processes:
                process.stdin.write("go\n")
                process.stdin.flush()
            for process in processes:
                out, err = process.communicate(timeout=60)
                assert process.returncode == 0, err
                assert out.strip() == str(flushes)
        finally:
            for process in processes:
                process.kill()
                process.wait()

        with warnings.catch_warnings():
            warnings.simplefilter("error", PersistentCacheCorruption)
            fresh = PersistentLayerCache(tmp_path)
            for index in range(writers):
                for i in range(flushes):
                    assert fresh.get(_digest(f"w{index}-{i}")) == (index, i)
        assert fresh.corrupt_lines == 0


#: One writer process: opens the store, waits for "go", then flushes one
#: row at a time, reading each back, and prints how many it read back.
_WRITER = """
import hashlib, sys, warnings
from repro.cost.persist import PersistentLayerCache
warnings.simplefilter("error")
directory, tag, flushes = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = PersistentLayerCache(directory)
cache.entries
print("ready", flush=True)
sys.stdin.readline()
served = 0
for i in range(flushes):
    digest = hashlib.sha1(f"{tag}-{i}".encode()).digest()
    cache.put(digest, (int(tag[1:]), i))
    cache.flush()
    served += cache.get(digest) == (int(tag[1:]), i)
cache.close()
print(served)
"""


class TestDigestScheme:
    def test_namespace_separates_backend_configurations(self):
        base = cache_namespace("analytic", 1, (1.0, 2.0, 3.0))
        assert cache_namespace("zigzag", 1, (1.0, 2.0, 3.0)) != base
        assert cache_namespace("analytic", 2, (1.0, 2.0, 3.0)) != base
        assert cache_namespace("analytic", 1, (1.0, 2.0, 4.0)) != base
        assert cache_namespace("analytic", 1, (1.0, 2.0, 3.0)) == base

    def test_tuple_digest_separates_layers_keys_and_bandwidths(self, conv_layer, gemm_layer):
        namespace = cache_namespace("analytic", 1, (1.0,))
        key = (((4, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 6)),)
        other_key = (((4, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 7)),)
        base = tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC, DRAM)
        assert tuple_key_digest(namespace, layer_statics(gemm_layer), key, NOC, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), other_key, NOC, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC * 2, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC, DRAM) == base

    def test_oversized_genes_fall_back_deterministically(self, conv_layer):
        namespace = cache_namespace("analytic", 1, (1.0,))
        huge = (((2**70, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 6)),)
        first = tuple_key_digest(namespace, layer_statics(conv_layer), huge, NOC, DRAM)
        again = tuple_key_digest(namespace, layer_statics(conv_layer), huge, NOC, DRAM)
        assert first == again and len(first) == 20

    def test_statics_blob_is_content_not_identity(self, conv_layer):
        blob = statics_blob(layer_statics(conv_layer))
        assert statics_blob(layer_statics(conv_layer)) is blob  # memoized
        assert layer_statics(conv_layer).signature[0].name.encode() in blob


class TestCostModelTiering:
    def test_layer_roundtrip_is_bit_identical(self, conv_layer, simple_mapping, tmp_path):
        cold = CostModel()
        cold.attach_persistent_cache(PersistentLayerCache(tmp_path))
        report = cold.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        stats = cold.vector_stats
        assert stats["l2_misses"] == 1 and stats["l2_writes"] == 1

        warm = CostModel()
        warm.attach_persistent_cache(PersistentLayerCache(tmp_path))
        served = warm.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        assert warm.vector_stats["l2_hits"] == 1
        assert warm.vector_stats["l2_writes"] == 0
        assert served == report

    def test_l1_counters_match_cold_and_warm(self, conv_layer, simple_mapping, tmp_path):
        # An L2 hit still counts as an L1 miss: searches report identical
        # L1 efficiency whether or not a persistent tier is attached.
        runs = []
        for _ in range(2):
            model = CostModel()
            model.attach_persistent_cache(PersistentLayerCache(tmp_path))
            model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
            model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
            runs.append((model.layer_cache.hits, model.layer_cache.misses))
        assert runs[0] == runs[1] == (1, 1)

    def test_disabled_l1_keeps_tier_inactive(self, conv_layer, simple_mapping, tmp_path):
        model = CostModel(cache_size=0)
        model.attach_persistent_cache(PersistentLayerCache(tmp_path))
        model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        stats = model.vector_stats
        assert stats["l2_hits"] == stats["l2_misses"] == stats["l2_writes"] == 0

class TestFrameworkWarmRerun:
    def _search(self, model, platform, directory, seed=3, optimizer="(1+1)-es"):
        framework = CoOptimizationFramework(
            model,
            platform,
            objective=Objective.LATENCY,
            cache_dir=str(directory),
        )
        try:
            result = framework.search(
                get_optimizer(optimizer), sampling_budget=60, seed=seed
            )
            counters = framework.evaluator.persistent_cache.counters()
        finally:
            framework.close()
        return result, counters

    def test_warm_rerun_serves_from_disk_bit_identically(
        self, tiny_model, edge_platform, tmp_path
    ):
        cold_result, cold = self._search(tiny_model, edge_platform, tmp_path)
        assert cold["l2_writes"] > 0 and cold["l2_hits"] == 0

        warm_result, warm = self._search(tiny_model, edge_platform, tmp_path)
        requests = warm["l2_hits"] + warm["l2_misses"]
        assert requests > 0
        assert warm["l2_hits"] / requests >= 0.9
        assert warm["l2_writes"] == 0
        assert warm_result.best.fitness == cold_result.best.fitness
        assert warm_result.history == cold_result.history

    def test_results_identical_with_and_without_tier(
        self, tiny_model, edge_platform, tmp_path
    ):
        bare = CoOptimizationFramework(
            tiny_model, edge_platform, objective=Objective.LATENCY
        )
        try:
            baseline = bare.search(
                get_optimizer("(1+1)-es"), sampling_budget=60, seed=3
            )
        finally:
            bare.close()
        for _ in range(2):  # cold pass, then fully warm pass
            tiered, _ = self._search(tiny_model, edge_platform, tmp_path)
            assert tiered.best.fitness == baseline.best.fitness
            assert tiered.history == baseline.history


#: Gene-matrix searches: (optimizer, hierarchy depth, Pareto objectives).
_MATRIX_SEARCHES = [
    ("digamma", 2, None),
    ("stdga", 2, None),
    ("nsga2", 3, "latency,energy,area"),
]


class TestGeneMatrixPathSkipsTier:
    @staticmethod
    def _run(model, platform, name, num_levels, objectives, workers, cache_dir):
        framework = CoOptimizationFramework(
            model,
            platform,
            num_levels=num_levels,
            workers=workers,
            cache_dir=cache_dir,
            objectives=objectives,
        )
        try:
            if objectives:
                result = framework.pareto_search(
                    get_optimizer(name), sampling_budget=120, seed=4
                )
                members = result.front
                history = None
            else:
                result = framework.search(
                    get_optimizer(name), sampling_budget=120, seed=4
                )
                members = (result.best,)
                history = result.history
            tier = framework.evaluator.persistent_cache
            counters = tier.counters() if tier is not None else None
        finally:
            framework.close()
        outcome = [
            (member.fitness, member.objective_vector, design_to_dict(member.design))
            for member in members
        ]
        return (outcome, history), counters

    @pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "workers2"])
    @pytest.mark.parametrize(
        "name, num_levels, objectives",
        _MATRIX_SEARCHES,
        ids=[f"{name}-L{levels}" for name, levels, _ in _MATRIX_SEARCHES],
    )
    def test_matrix_searches_skip_the_tier_and_match_a_bare_run(
        self, tiny_model, edge_platform, tmp_path, name, num_levels, objectives,
        workers,
    ):
        args = (tiny_model, edge_platform, name, num_levels, objectives, workers)
        bare, _ = self._run(*args, cache_dir=None)
        tiered, counters = self._run(*args, cache_dir=str(tmp_path))
        assert counters == {"l2_hits": 0, "l2_misses": 0, "l2_writes": 0}
        assert PersistentLayerCache(tmp_path).entries == 0  # workers too
        assert tiered == bare

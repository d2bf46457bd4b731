"""Tests for crash-safe mid-search checkpointing and bit-identical resume."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.framework.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruption,
    CheckpointSession,
    CheckpointStore,
    SearchCheckpoint,
    checkpoint_slug,
    restore_rng_state,
    rng_state_to_jsonable,
    snapshot_tracker_state,
)
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.search import SearchInterrupted
from repro.optim.base import resume_state
from repro.optim.registry import get_optimizer
from repro.serialization import design_to_dict, genome_to_dict

#: Enough budget for several generation boundaries on every optimizer
#: (stdGA's default population of 40 is the widest per-generation spend).
BUDGET = 200

#: The single-objective optimizers that participate in the checkpoint
#: protocol (NSGA-II is exercised separately through pareto_search).
RESUMABLE = ("digamma", "stdga", "pso", "de", "random")

#: (optimizer, hierarchy depth) pairs of the resume-parity test: every
#: resumable optimizer at the default depth, plus DiGamma at depths 1 and 3.
RESUME_CASES = [(name, 2) for name in RESUMABLE] + [("digamma", 1), ("digamma", 3)]


class InterruptAfter:
    """Interrupt check that turns truthy after N generation boundaries."""

    def __init__(self, boundaries: int):
        self.boundaries = boundaries
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls > self.boundaries


def make_checkpoint(generation: int = 3) -> SearchCheckpoint:
    rng = np.random.default_rng(0)
    return SearchCheckpoint(
        generation=generation,
        rng_state=rng_state_to_jsonable(rng),
        optimizer_state={"kind": "random"},
        tracker_state={
            "evaluations": 40,
            "batch_calls": 2,
            "batched_evaluations": 40,
            "history": [[1, 5.0], [17, 4.0]],
            "best": None,
        },
    )


def stub_tracker(generation: int = 1) -> SimpleNamespace:
    """The tracker bookkeeping a session snapshots, with nothing priced."""
    return SimpleNamespace(
        generation=generation, evaluations=0, batch_calls=0,
        batched_evaluations=0, history=[], best=None, archive=None,
    )


def run_search(tiny_model, optimizer_name, *, checkpoint_dir=None,
               interrupt_check=None, checkpoint_every=1, seed=3, num_levels=2):
    framework = CoOptimizationFramework(tiny_model, EDGE, num_levels=num_levels)
    try:
        return framework.search(
            get_optimizer(optimizer_name),
            sampling_budget=BUDGET,
            seed=seed,
            interrupt_check=interrupt_check,
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
            checkpoint_every=checkpoint_every,
        )
    finally:
        framework.close()


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "model/edge/latency/b120/s3")
        original = make_checkpoint()
        store.save(original)
        assert store.path.exists()
        loaded = store.load()
        assert loaded == original

    def test_missing_checkpoint_loads_as_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "nothing-here").load() is None

    def test_clear_removes_the_file(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        store.clear()
        assert not store.path.exists()
        store.clear()  # idempotent

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint(generation=1))
        store.save(make_checkpoint(generation=2))
        assert store.load().generation == 2

    def test_interleaved_saves_of_one_key_both_succeed(
        self, tmp_path, monkeypatch
    ):
        # A timed-out attempt keeps saving on its daemon thread under the
        # same job key as its retry; here the retry's save lands inside the
        # first save's fsync.
        first = CheckpointStore(tmp_path, "job")
        second = CheckpointStore(tmp_path, "job")
        real_fsync = os.fsync
        pending = [second]

        def fsync(descriptor):
            if pending:
                pending.pop().save(make_checkpoint(generation=2))
            return real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        first.save(make_checkpoint(generation=1))
        assert not pending  # the interleaving really happened
        monkeypatch.undo()
        # The outer save replaces last, and its checkpoint is complete.
        assert second.load() == make_checkpoint(generation=1)
        assert not first.corrupt_path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_threads_saving_one_key_all_succeed(self, tmp_path):
        errors = []

        def saver(generation):
            store = CheckpointStore(tmp_path, "job")
            try:
                for _ in range(20):
                    store.save(make_checkpoint(generation=generation))
            except Exception as error:  # collected, asserted below
                errors.append(error)

        threads = [
            threading.Thread(target=saver, args=(generation,))
            for generation in range(1, 9)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        loaded = CheckpointStore(tmp_path, "job").load()
        assert loaded is not None and 1 <= loaded.generation <= 8
        assert list(tmp_path.glob("*.tmp")) == []

    def test_file_removed_mid_load_is_no_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # A completed search's clear() lands between the store noticing the
        # file and reading it: that is a missing checkpoint, not a corrupt
        # one — no warning, nothing quarantined.
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        real_read_bytes = Path.read_bytes

        def read_bytes(path):
            store.clear()
            return real_read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.load() is None
        assert not store.corrupt_path.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) - 30],  # torn tail
            lambda raw: raw[:-12] + b"x" + raw[-11:],  # flipped payload byte
            lambda raw: b"not json at all\n",  # garbage
            lambda raw: b"",  # empty file
        ],
    )
    def test_damaged_files_quarantine_and_load_as_none(self, tmp_path, damage):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        store.path.write_bytes(damage(store.path.read_bytes()))
        with pytest.warns(CheckpointCorruption):
            assert store.load() is None
        assert not store.path.exists()
        assert store.corrupt_path.exists()

    # Version 1 stored priced results instead of gene rows.
    @pytest.mark.parametrize("version", [1, CHECKPOINT_VERSION + 1])
    def test_unknown_version_quarantines(self, tmp_path, version):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        head, _, payload = store.path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["version"] = version
        store.path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.warns(CheckpointCorruption):
            assert store.load() is None
        assert store.corrupt_path.exists()

    def test_slug_is_filesystem_safe_and_collision_resistant(self):
        a = checkpoint_slug("ncf/edge/latency/DiGamma/b120/s3")
        b = checkpoint_slug("ncf/edge/latency/DiGamma/b120~s3")
        assert "/" not in a and "/" not in b
        assert a != b
        # Long labels truncate readably but stay distinct via the digest.
        long_a = checkpoint_slug("x" * 300 + "a")
        long_b = checkpoint_slug("x" * 300 + "b")
        assert long_a != long_b


class TestRngRoundTrip:
    def test_restored_generator_continues_the_stream(self):
        rng = np.random.default_rng(42)
        rng.random(17)
        state = rng_state_to_jsonable(rng)
        expected = rng.random(8)
        # JSON round trip (the state crosses a file in production).
        state = json.loads(json.dumps(state))
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, state)
        np.testing.assert_array_equal(fresh.random(8), expected)


class TestCheckpointSession:
    def test_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        session = CheckpointSession(store, np.random.default_rng(0), 3)
        assert [g for g in range(1, 10) if session.due(g)] == [3, 6, 9]

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        with pytest.raises(ValueError, match="checkpoint_every"):
            CheckpointSession(store, np.random.default_rng(0), 0)

    def test_closed_session_saves_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        session = CheckpointSession(store, np.random.default_rng(0))
        session.close()
        session.save(stub_tracker(), {"kind": "random"})
        assert session.saves == 0
        assert not store.path.exists()

    def test_close_waits_for_the_in_flight_write(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path, "key")
        session = CheckpointSession(store, np.random.default_rng(0))
        real_fsync = os.fsync

        def slow_fsync(descriptor):
            time.sleep(0.2)
            return real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        session.save(stub_tracker(), {"kind": "random"})
        session.close()
        # The write was published before close() returned; nothing of the
        # session lands afterwards.
        assert store.load().generation == 1
        assert list(tmp_path.glob("*.tmp")) == []
        session.save(stub_tracker(generation=2), {"kind": "random"})
        assert session.saves == 1
        assert store.load().generation == 1


    def test_close_racing_saves_lands_nothing_afterwards(self, tmp_path):
        # A closer thread (the sweep runner) races a search thread saving
        # every boundary: whatever is on disk when close() returns stays.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(20):
                store = CheckpointStore(tmp_path, f"key-{attempt}")
                session = CheckpointSession(store, np.random.default_rng(0))

                def saver():
                    for generation in range(1, 200):
                        session.save(stub_tracker(generation), {"kind": "random"})
                    session.wait()

                thread = threading.Thread(target=saver)
                thread.start()
                time.sleep(0.001 * (attempt % 5))
                session.close()
                published = store.load()
                thread.join(timeout=60)
                assert not thread.is_alive()
                assert store.load() == published
        finally:
            sys.setswitchinterval(interval)
        assert list(tmp_path.glob("*.tmp")) == []


class TestResumeStateGuards:
    def test_resume_state_is_consumed_once(self):
        tracker = SimpleNamespace(resume_state={"kind": "random"})
        assert resume_state(tracker, "random") == {"kind": "random"}
        assert tracker.resume_state is None
        assert resume_state(tracker, "random") is None

    def test_kind_mismatch_fails_loudly(self):
        tracker = SimpleNamespace(resume_state={"kind": "de"})
        with pytest.raises(ValueError, match="'de' loop state"):
            resume_state(tracker, "pso")


def assert_same_result(got, want):
    """Field-by-field equality of two evaluation results.

    A restored best is re-priced from its gene row and carries its design
    and genome in a different wrapper class than the live one, so designs
    and genomes are compared through their canonical serialized payloads.
    """
    assert got.fitness == want.fitness
    assert got.valid == want.valid
    assert got.objective == want.objective
    assert got.objective_value == want.objective_value
    assert got.violations == want.violations
    assert got.objective_vector == want.objective_vector
    assert design_to_dict(got.design) == design_to_dict(want.design)
    assert genome_to_dict(got.genome) == genome_to_dict(want.genome)


class TestBitIdenticalResume:
    @pytest.mark.parametrize(
        "name, num_levels",
        RESUME_CASES,
        ids=[f"{name}-L{levels}" for name, levels in RESUME_CASES],
    )
    def test_interrupt_and_resume_matches_uninterrupted_run(
        self, tmp_path, tiny_model, name, num_levels
    ):
        control = run_search(tiny_model, name, num_levels=num_levels)
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, name,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                num_levels=num_levels,
            )
        files = list(tmp_path.glob("*.ckpt.json"))
        assert len(files) == 1
        resumed = run_search(
            tiny_model, name, checkpoint_dir=tmp_path, num_levels=num_levels
        )
        assert resumed.history == control.history
        assert resumed.evaluations == control.evaluations
        assert_same_result(resumed.best, control.best)
        # A completed search clears its checkpoint.
        assert list(tmp_path.glob("*.ckpt.json")) == []

    def test_resume_from_every_boundary_is_bit_identical(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "digamma")
        for boundary in (1, 2, 3, 4):
            ckpt_dir = tmp_path / f"boundary-{boundary}"
            with pytest.raises(SearchInterrupted):
                run_search(
                    tiny_model, "digamma",
                    checkpoint_dir=ckpt_dir,
                    interrupt_check=InterruptAfter(boundary),
                )
            resumed = run_search(tiny_model, "digamma", checkpoint_dir=ckpt_dir)
            assert resumed.history == control.history, boundary
            assert resumed.best.fitness == control.best.fitness, boundary

    def test_sparser_cadence_still_resumes_bit_identically(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "stdga")
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, "stdga",
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(3),
                checkpoint_every=2,
            )
        resumed = run_search(
            tiny_model, "stdga", checkpoint_dir=tmp_path, checkpoint_every=2
        )
        assert resumed.history == control.history
        assert resumed.best.fitness == control.best.fitness

    def test_corrupt_checkpoint_restarts_fresh_never_alters_results(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "de")
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, "de",
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
            )
        (checkpoint,) = tmp_path.glob("*.ckpt.json")
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[: len(raw) // 2])
        with pytest.warns(CheckpointCorruption):
            resumed = run_search(tiny_model, "de", checkpoint_dir=tmp_path)
        assert resumed.history == control.history
        assert resumed.best.fitness == control.best.fitness
        assert list(tmp_path.glob("*.ckpt.json.corrupt"))

    def test_uninterrupted_checkpointed_run_matches_plain_run(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "pso")
        checkpointed = run_search(tiny_model, "pso", checkpoint_dir=tmp_path)
        assert checkpointed.history == control.history
        assert checkpointed.best.fitness == control.best.fitness
        assert list(tmp_path.glob("*.ckpt.json")) == []

    def test_non_checkpoint_optimizer_writes_no_checkpoint(
        self, tmp_path, tiny_model
    ):
        result = run_search(tiny_model, "cma", checkpoint_dir=tmp_path)
        assert result.evaluations == BUDGET
        assert list(tmp_path.iterdir()) == []


class TestParetoResume:
    def run_pareto(self, tiny_model, *, checkpoint_dir=None, interrupt_check=None,
                   num_levels=2):
        framework = CoOptimizationFramework(
            tiny_model, EDGE, objectives="latency,energy", num_levels=num_levels
        )
        try:
            return framework.pareto_search(
                get_optimizer("nsga2"),
                sampling_budget=BUDGET,
                seed=3,
                interrupt_check=interrupt_check,
                checkpoint_dir=(
                    None if checkpoint_dir is None else str(checkpoint_dir)
                ),
            )
        finally:
            framework.close()

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_interrupted_pareto_search_resumes_bit_identically(
        self, tmp_path, tiny_model, num_levels
    ):
        control = self.run_pareto(tiny_model, num_levels=num_levels)
        with pytest.raises(SearchInterrupted):
            self.run_pareto(
                tiny_model,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                num_levels=num_levels,
            )
        assert list(tmp_path.glob("*.ckpt.json"))
        resumed = self.run_pareto(
            tiny_model, checkpoint_dir=tmp_path, num_levels=num_levels
        )
        assert resumed.evaluations == control.evaluations
        assert len(resumed.front) == len(control.front)
        for got, want in zip(resumed.front, control.front):
            assert_same_result(got, want)
        assert list(tmp_path.glob("*.ckpt.json")) == []

    def test_checkpoint_stores_gene_rows_not_priced_results(
        self, tmp_path, tiny_model
    ):
        with pytest.raises(SearchInterrupted):
            self.run_pareto(
                tiny_model,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
            )
        (checkpoint,) = tmp_path.glob("*.ckpt.json")
        payload = checkpoint.read_bytes().partition(b"\n")[2]
        assert b"per_layer" not in payload
        tracker = json.loads(payload)["tracker"]
        rows = [tracker["best"], *tracker["archive"]["entries"]]
        assert len(rows) > 1
        for row in rows:
            assert all(type(gene) is int for gene in row)


def slow_fsync(monkeypatch, delay: float = 0.01) -> None:
    """Make every fsync slow enough that a write spans search compute."""
    real_fsync = os.fsync

    def fsync(descriptor):
        time.sleep(delay)
        return real_fsync(descriptor)

    monkeypatch.setattr(os, "fsync", fsync)


class TestWriteBehind:
    """Checkpoint writes are published off the search thread, in order."""

    def search(self, tiny_model, checkpoint_dir, *, interrupt_check=None,
               framework=None):
        owned = framework is None
        if owned:
            framework = CoOptimizationFramework(tiny_model, EDGE)
        try:
            return framework.search(
                get_optimizer("digamma"),
                sampling_budget=BUDGET,
                seed=3,
                interrupt_check=interrupt_check,
                checkpoint_dir=str(checkpoint_dir),
                checkpoint_key="job",
            )
        finally:
            if owned:
                framework.close()

    def test_write_overlaps_the_next_generation(
        self, tmp_path, tiny_model, monkeypatch
    ):
        saved = []
        overlapped = []
        real_save = CheckpointSession.save
        real_fsync = os.fsync

        def save(session, tracker, optimizer_state):
            saved.append((tracker, tracker.generation))
            real_save(session, tracker, optimizer_state)

        def fsync(descriptor):
            # Hold the first write until the search has moved past the
            # boundary being written; a synchronous save never gets there.
            if not overlapped:
                tracker, boundary = saved[0]
                deadline = time.monotonic() + 5.0
                while (
                    tracker.generation <= boundary
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                overlapped.append(tracker.generation > boundary)
            return real_fsync(descriptor)

        monkeypatch.setattr(CheckpointSession, "save", save)
        monkeypatch.setattr(os, "fsync", fsync)
        self.search(tiny_model, tmp_path)
        assert overlapped == [True]

    def test_completed_search_leaves_nothing_behind(
        self, tmp_path, tiny_model, monkeypatch
    ):
        slow_fsync(monkeypatch)
        control = run_search(tiny_model, "digamma")
        result = self.search(tiny_model, tmp_path)
        assert result.history == control.history
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_boundary_is_durable_when_interrupt_raises(
        self, tmp_path, tiny_model, monkeypatch
    ):
        slow_fsync(monkeypatch)
        with pytest.raises(SearchInterrupted):
            self.search(
                tiny_model, tmp_path, interrupt_check=InterruptAfter(2)
            )
        assert CheckpointStore(tmp_path, "job").load().generation == 3
        assert list(tmp_path.glob("*.tmp")) == []

    def test_write_error_surfaces_from_search(
        self, tmp_path, tiny_model, monkeypatch
    ):
        def failing_fsync(descriptor):
            raise OSError(5, "simulated I/O error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="simulated I/O error"):
            self.search(tiny_model, tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_published_bytes_match_synchronous_saves(
        self, tmp_path, tiny_model, monkeypatch
    ):
        runs = []
        real_publish = CheckpointStore.publish

        def publish(store, data):
            real_publish(store, data)
            runs[-1].append(store.path.read_bytes())

        def synchronous_save(session, tracker, optimizer_state):
            session.store.save(
                SearchCheckpoint(
                    generation=tracker.generation,
                    rng_state=rng_state_to_jsonable(session.rng),
                    optimizer_state=dict(optimizer_state),
                    tracker_state=snapshot_tracker_state(tracker),
                )
            )

        monkeypatch.setattr(CheckpointStore, "publish", publish)
        runs.append([])
        self.search(tiny_model, tmp_path / "behind")
        monkeypatch.setattr(CheckpointSession, "save", synchronous_save)
        runs.append([])
        self.search(tiny_model, tmp_path / "synchronous")
        published, synchronous = runs
        assert len(published) >= 3
        assert published == synchronous

    def test_no_writer_thread_outlives_its_search(
        self, tmp_path, tiny_model, monkeypatch
    ):
        slow_fsync(monkeypatch)
        before = threading.active_count()
        self.search(tiny_model, tmp_path / "completed")
        assert threading.active_count() == before
        with pytest.raises(SearchInterrupted):
            self.search(
                tiny_model, tmp_path / "interrupted",
                interrupt_check=InterruptAfter(2),
            )
        assert threading.active_count() == before

        def failing_fsync(descriptor):
            raise OSError(5, "simulated I/O error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            self.search(tiny_model, tmp_path / "crashed")
        assert threading.active_count() == before

    def test_externally_closed_session_never_clears(self, tmp_path, tiny_model):
        # The sweep runner closes a timed-out attempt's sessions while the
        # abandoned search keeps running; when that search completes it
        # must not delete the checkpoint its retry resumes from.
        framework = CoOptimizationFramework(tiny_model, EDGE)
        calls = []

        def close_at_boundary_3():
            calls.append(None)
            if len(calls) == 3:
                for session in list(framework.checkpoint_sessions):
                    session.close()
            return False

        try:
            result = self.search(
                tiny_model, tmp_path,
                interrupt_check=close_at_boundary_3, framework=framework,
            )
        finally:
            framework.close()
        assert result.evaluations == BUDGET
        assert CheckpointStore(tmp_path, "job").load().generation == 2

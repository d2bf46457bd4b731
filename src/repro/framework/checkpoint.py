"""Crash-safe, generation-granular search checkpoints with bit-identical resume.

A long search is all-or-nothing without this module: a preempted worker, a
``--job-timeout`` expiry or a Ctrl-C throws away every priced generation and
the retry restarts from generation zero.  The ingredients for something much
stronger already exist — every optimizer loop is RNG-stream-identical over
the packed gene matrix, and all caches are bit-identical *accelerators*
(dropping them never changes results) — so the complete state
of a search at a generation boundary is small and exact:

* the serialized ``np.random.Generator`` bit-generator state,
* the optimizer's loop state (population rows / DE-PSO float arrays /
  NSGA-II ranking vectors),
* the :class:`~repro.framework.search.SearchTracker` bookkeeping (budget
  counters, convergence history, and the gene rows of the best-so-far and
  of the Pareto archive entries).

Evaluation results are pure functions of their genes, so the best and the
archive are stored as gene rows and re-priced on restore rather than
serialized with every per-layer performance record — a depth-3 NSGA-II
archive shrinks from megabytes to tens of kilobytes per save.

Evaluator memo caches are deliberately **not** captured: restoring into a
fresh process with cold caches is the tested cache-on/off invariance, so
resume stays bit-identical while checkpoints stay small — that is the
"invalidation token" design (the token is the absence of the caches).

Durability follows the ``ResultStore`` / ``PersistentLayerCache``
discipline: a checkpoint is one JSON payload behind a versioned header
carrying its SHA-1 digest, written to a temporary file of its own, fsynced
and atomically ``os.replace``d into place
(:func:`repro.durable.replace_atomically`) — a crash mid-save leaves the
previous checkpoint intact, and concurrent saves of one key never collide.
A live search writes behind its own progress: :class:`CheckpointSession`
encodes each boundary's checkpoint on the search thread and publishes the
bytes on a one-slot background writer while the next generation computes.
Boundary N is durable before boundary N+1 begins, before
``SearchInterrupted`` is raised and before the search returns, so a hard
crash *during* a generation resumes from at most one boundary earlier than
a synchronous save would allow.  Loads verify format, version and digest;
anything wrong quarantines the file to ``<name>.corrupt`` with a
:class:`CheckpointCorruption` warning and the search starts fresh — a
corrupt checkpoint can cost progress, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.durable import replace_atomically
from repro.encoding.genome_matrix import LEVEL_WIDTH, row_to_genome
from repro.framework.evaluator import EvaluationResult
from repro.framework.pareto import ParetoArchive

#: On-disk format name; a header naming anything else never deserializes.
FORMAT_NAME = "repro-search-checkpoint"

#: Bump on incompatible payload changes; mismatched versions quarantine.
CHECKPOINT_VERSION = 2


class CheckpointCorruption(UserWarning):
    """Warning category for unreadable/damaged checkpoint files."""


# -- RNG state (de)serialization ----------------------------------------------
#
# ``Generator.bit_generator.state`` is a nested dict of plain ints for PCG64
# (the default_rng family) but may carry NumPy arrays for other bit
# generators (MT19937's key vector), so the converter handles both shapes.


def _jsonify(value: Any) -> Any:
    """Recursively convert a bit-generator state dict to JSON-able types."""
    if isinstance(value, dict):
        return {key: _jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _dejsonify(value: Any) -> Any:
    """Inverse of :func:`_jsonify`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        return {key: _dejsonify(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [_dejsonify(entry) for entry in value]
    return value


def rng_state_to_jsonable(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's complete bit-generator state, JSON-ready."""
    return _jsonify(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Set a generator's bit-generator state from its serialized form.

    The bit generator validates the ``bit_generator`` name itself, so a
    checkpoint written under a different RNG family fails loudly here.
    """
    rng.bit_generator.state = _dejsonify(state)


# -- the checkpoint payload ----------------------------------------------------


@dataclass(frozen=True)
class SearchCheckpoint:
    """Complete loop state of a search at one generation boundary.

    ``generation`` is the 1-based boundary the checkpoint was taken at;
    resuming re-enters exactly that boundary (the checkpoint hook is the
    first statement of a loop iteration), so the boundary numbering — and
    with it checkpoint cadence and generation-targeted fault matching — is
    identical between an interrupted and an uninterrupted run.
    """

    generation: int
    rng_state: Dict[str, Any]
    optimizer_state: Dict[str, Any]
    tracker_state: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "rng": self.rng_state,
            "optimizer": self.optimizer_state,
            "tracker": self.tracker_state,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchCheckpoint":
        return cls(
            generation=int(data["generation"]),
            rng_state=dict(data["rng"]),
            optimizer_state=dict(data["optimizer"]),
            tracker_state=dict(data["tracker"]),
        )


def checkpoint_slug(text: str) -> str:
    """Filename-safe checkpoint key for an arbitrary run label.

    Job ids contain ``/`` and other separator characters; the slug keeps a
    readable prefix and appends a short digest of the *full* label so two
    labels never collide after sanitization.
    """
    safe = re.sub(r"[^A-Za-z0-9._+=-]+", "_", text).strip("_")[:96]
    digest = hashlib.sha1(text.encode()).hexdigest()[:8]
    return f"{safe}-{digest}" if safe else digest


# -- durable storage -----------------------------------------------------------


class CheckpointStore:
    """One checkpoint file: atomic saves, digest-verified loads, quarantine.

    The file holds two lines: a JSON header (``format`` / ``version`` /
    ``digest`` / ``payload_bytes``) and the JSON payload the digest covers.
    Saves go through a temporary file + ``fsync`` + ``os.replace``, so a
    reader (or a crash) always sees a complete previous or complete new
    checkpoint, never a torn one.
    """

    def __init__(self, directory: Union[str, Path], key: str):
        self.directory = Path(directory)
        self.key = checkpoint_slug(key)
        self.path = self.directory / f"{self.key}.ckpt.json"

    @property
    def corrupt_path(self) -> Path:
        """Where a damaged checkpoint is quarantined for post-mortems."""
        return self.path.with_name(self.path.name + ".corrupt")

    def save(self, checkpoint: SearchCheckpoint) -> None:
        """Atomically persist a checkpoint (replaces any previous one).

        Durable when it returns: the composition of :meth:`encode` and
        :meth:`publish`.
        """
        self.publish(self.encode(checkpoint))

    def encode(self, checkpoint: SearchCheckpoint) -> bytes:
        """The complete file contents of a checkpoint: header + payload."""
        payload = json.dumps(checkpoint.to_dict(), sort_keys=True).encode()
        header = json.dumps(
            {
                "format": FORMAT_NAME,
                "version": CHECKPOINT_VERSION,
                "digest": hashlib.sha1(payload).hexdigest(),
                "payload_bytes": len(payload),
            },
            sort_keys=True,
        ).encode()
        return header + b"\n" + payload + b"\n"

    def publish(self, data: bytes) -> None:
        """Atomically replace the checkpoint file with encoded ``data``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        replace_atomically(self.path, data)

    def load(self) -> Optional[SearchCheckpoint]:
        """The stored checkpoint, or ``None`` (missing *or* quarantined).

        Every failure mode — torn file, digest mismatch, unknown version,
        malformed JSON — quarantines the file and returns ``None``: the
        caller starts the search fresh, which is always correct, merely
        slower.
        """
        try:
            raw = self.path.read_bytes()
            head, _, rest = raw.partition(b"\n")
            header = json.loads(head)
            if header.get("format") != FORMAT_NAME:
                raise ValueError(f"unknown format {header.get('format')!r}")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported version {header.get('version')!r} "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            payload = rest.rstrip(b"\n")
            if len(payload) != int(header["payload_bytes"]):
                raise ValueError(
                    f"payload is {len(payload)} byte(s), header promises "
                    f"{header['payload_bytes']}"
                )
            if hashlib.sha1(payload).hexdigest() != header["digest"]:
                raise ValueError("payload digest mismatch")
            return SearchCheckpoint.from_dict(json.loads(payload))
        except FileNotFoundError:
            # Never written, or removed by a concurrent clear(): no
            # checkpoint, and nothing to quarantine.
            return None
        except Exception as error:
            self._quarantine(error)
            return None

    def clear(self) -> None:
        """Remove the checkpoint (called when its search completes)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def _quarantine(self, error: Exception) -> None:
        try:
            os.replace(self.path, self.corrupt_path)
            moved = f"quarantined to {self.corrupt_path}"
        except OSError:
            moved = "and could not be quarantined"
        warnings.warn(
            f"{self.path}: unreadable checkpoint ({error}); {moved} — "
            "the search restarts from generation zero",
            CheckpointCorruption,
            stacklevel=3,
        )


# -- the live session a tracker drives -----------------------------------------


class CheckpointSession:
    """Checkpoint writer attached to one running search.

    The tracker calls :meth:`save` at generation boundaries; the session
    applies the ``checkpoint_every`` cadence (interruptions force a save
    regardless) and assembles the full :class:`SearchCheckpoint` from the
    rng, the optimizer's state dict and the tracker's bookkeeping.

    Saves are write-behind: :meth:`save` encodes the checkpoint on the
    search thread (so the bytes are a consistent snapshot of the boundary)
    and hands them to a one-slot background writer, which stages, fsyncs
    and publishes them while the next generation computes; writes land in
    boundary order.  :meth:`wait` blocks until the in-flight write is
    published and re-raises its error on the calling thread; the tracker
    calls it at the top of every boundary, so boundary N-1 is durable
    before boundary N begins.

    ``close()`` makes every further save a no-op and waits for the
    in-flight write, so no write of the session lands after it returns.
    The sweep runner closes the sessions of a discarded framework so a
    timed-out search still running on its abandoned watchdog thread can no
    longer touch the checkpoint file its retry is resuming from.
    """

    def __init__(
        self,
        store: CheckpointStore,
        rng: np.random.Generator,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.store = store
        self.rng = rng
        self.checkpoint_every = checkpoint_every
        #: Checkpoints written by this session (observability for tests).
        self.saves = 0
        self.closed = False
        # Serializes save/close/wait across the search thread and a closer.
        self._lock = threading.Lock()
        self._writer: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def due(self, generation: int) -> bool:
        """True when the cadence calls for a save at this boundary."""
        return generation % self.checkpoint_every == 0

    def save(self, tracker, optimizer_state: Dict[str, Any]) -> None:
        """Snapshot the current boundary and start its background write."""
        with self._lock:
            if self.closed:
                return
            data = self.store.encode(
                SearchCheckpoint(
                    generation=tracker.generation,
                    rng_state=rng_state_to_jsonable(self.rng),
                    optimizer_state=dict(optimizer_state),
                    tracker_state=snapshot_tracker_state(tracker),
                )
            )
            self._drain()
            self._writer = threading.Thread(
                target=self._publish, args=(data,), name="checkpoint-writer"
            )
            self._writer.start()
            self.saves += 1

    def wait(self) -> None:
        """Block until the in-flight write is published; raise its error."""
        with self._lock:
            self._drain()

    def complete(self) -> None:
        """Close the session of a search that ran to its end.

        Waits for the last write, then clears the checkpoint — unless the
        session was already closed by someone else (the sweep runner
        abandoning a timed-out attempt), whose retry may be resuming from
        that very file.
        """
        with self._lock:
            self._drain()
            if self.closed:
                return
            self.closed = True
            self.store.clear()

    def close(self) -> None:
        """Disarm the session; subsequent saves are ignored.

        Waits for the in-flight write, so nothing of this session lands
        after ``close()`` returns.  A write error stays pending for the
        search thread's next :meth:`wait`.
        """
        with self._lock:
            self.closed = True
            self._join()

    def _join(self) -> None:
        """Wait for the in-flight write, if any (caller holds the lock)."""
        if self._writer is not None:
            self._writer.join()
            self._writer = None

    def _drain(self) -> None:
        """:meth:`_join`, then re-raise the write's error."""
        self._join()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def _publish(self, data: bytes) -> None:
        """Writer-thread body: publish encoded bytes, keep any error.

        Calls only :meth:`CheckpointStore.publish`, never a method that
        span tracers wrap on the search thread (``save``/``load``/``clear``).
        """
        try:
            self.store.publish(data)
        except BaseException as error:
            self._error = error


# -- tracker state (de)serialization -------------------------------------------


def snapshot_tracker_state(tracker) -> Dict[str, Any]:
    """The tracker's complete bookkeeping, JSON-ready and lossless.

    ``best`` (valid *or* invalid — an invalid best's graded penalty fitness
    steers early search) and the Pareto archive entries are stored as the
    gene rows that priced them.  The archive is captured in insertion
    order, because eviction tie-breaking depends on entry order and must
    survive the round trip.
    """
    state: Dict[str, Any] = {
        "evaluations": tracker.evaluations,
        "batch_calls": tracker.batch_calls,
        "batched_evaluations": tracker.batched_evaluations,
        "history": [[index, fitness] for index, fitness in tracker.history],
        "best": (
            tracker.best.genes
            if tracker.best is not None
            else None
        ),
    }
    if tracker.archive is not None:
        state["archive"] = {
            "capacity": tracker.archive.capacity,
            "entries": [
                entry.genes
                for entry in tracker.archive.entries_in_order()
            ],
        }
    return state


def _reprice(tracker, genes) -> EvaluationResult:
    """The evaluation result of one stored gene row, priced afresh."""
    return tracker.evaluator.evaluate_genome(
        row_to_genome(genes, len(genes) // LEVEL_WIDTH)
    )


def restore_tracker_state(tracker, state: Dict[str, Any]) -> None:
    """Load :func:`snapshot_tracker_state` output into a fresh tracker."""
    tracker.evaluations = int(state["evaluations"])
    tracker.batch_calls = int(state["batch_calls"])
    tracker.batched_evaluations = int(state["batched_evaluations"])
    tracker.history = [
        (int(index), float(fitness)) for index, fitness in state["history"]
    ]
    best = state.get("best")
    tracker.best = _reprice(tracker, best) if best is not None else None
    archive = state.get("archive")
    if archive is not None and tracker.archive is not None:
        restored = ParetoArchive(int(archive["capacity"]))
        restored.restore_entries(
            _reprice(tracker, genes) for genes in archive["entries"]
        )
        tracker.archive = restored


def restore_search_state(
    tracker, rng: np.random.Generator, checkpoint: SearchCheckpoint
) -> None:
    """Rewind a fresh (tracker, rng) pair to a checkpoint's boundary.

    The generation counter is set one *below* the stored boundary: the
    resumed loop's first statement is the same ``checkpoint_generation``
    call that took the snapshot, which re-increments to the stored value —
    boundary numbering, cadence and fault matching line up exactly with the
    uninterrupted run (and the re-save it triggers writes an identical
    checkpoint).
    """
    restore_rng_state(rng, checkpoint.rng_state)
    restore_tracker_state(tracker, checkpoint.tracker_state)
    tracker.generation = checkpoint.generation - 1
    tracker.resume_state = dict(checkpoint.optimizer_state)

"""Unified experiment execution: one engine for every sweep.

The figure harnesses (Fig. 5/6/7, ablations) used to hand-roll the same
model x platform x optimizer loop, framework lifecycle and argparse each.
This module is the shared engine they now compile into:

* :class:`ResultStore` — an append-only JSONL store of completed searches
  (one ``{"job_id", "spec", "result"}`` record per line, written and
  flushed as soon as each search finishes, so a killed sweep loses at most
  the in-flight job).  Failed attempts are stored too, as structured
  failure records, and loads tolerate corruption: undecodable lines are
  counted, warned about and quarantined into ``<store>.corrupt`` instead
  of silently dropped (``verify()`` / ``repair()`` expose the same checks
  programmatically and through ``--verify-store``).
* :class:`SweepRunner` — executes a list of :class:`JobSpec` jobs through
  shared :class:`CoOptimizationFramework` instances (one per
  model/platform/constraint combination, so evaluation caches and worker
  pools are reused across jobs), streams results to the store, and supports
  ``resume`` (skip jobs whose ids are already stored) and ``shard i/N``
  (take every N-th job of the full list).  Every job runs inside an error
  boundary: exceptions become failure records and the sweep continues,
  failed jobs retry with exponential backoff + jitter (``--retries``), a
  watchdog enforces a per-job wall-clock timeout (``--job-timeout``), and
  jobs that exhaust their attempts are quarantined — ``--resume`` re-runs
  failed-but-retryable jobs while skipping quarantined ones.
* a CLI, reachable as ``python -m repro experiments``, that compiles the
  figure suites into job lists, runs them and renders the tables from the
  result store.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
import traceback
import warnings
import zlib
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import replace_atomically
from repro.experiments.faults import SweepAborted
from repro.experiments.jobs import (
    BACKENDS,
    ENGINES,
    JobSpec,
    build_framework,
    build_optimizer,
    job_from_dict,
    job_to_dict,
)
from repro.experiments.settings import (
    DEFAULT_MODELS,
    DEFAULT_SAMPLING_BUDGET,
    DURABILITY_MODES,
    FIG5_OPTIMIZERS,
    ExperimentSettings,
)
from repro.framework.pareto import ParetoResult
from repro.framework.search import SearchInterrupted, SearchResult
from repro.serialization import result_from_dict, result_to_dict

#: Either kind of search outcome: a single best or a Pareto front.
AnyResult = Union[SearchResult, ParetoResult]

#: One completed job: its spec plus the search outcome.
Outcome = Tuple[JobSpec, AnyResult]

#: Job statuses a store record can carry.  Success records predate the
#: field and stay unmarked for backward (and byte-) compatibility, so a
#: missing ``"status"`` key reads as ``"ok"``.  ``failed`` and
#: ``interrupted`` are both resumable (``--resume`` re-runs them);
#: ``interrupted`` additionally promises a mid-search checkpoint exists
#: when the sweep ran with ``--checkpoint-dir``.
JOB_STATUSES = ("ok", "failed", "quarantined", "interrupted")

#: Statuses ``--resume`` re-runs instead of skipping.
RESUMABLE_STATUSES = ("failed", "interrupted")

#: Smoke-sweep shape: one tiny model, three cheap-but-representative
#: optimizers (CMA included so the tables' normalization reference exists),
#: and a budget that finishes in seconds.  Used by ``--smoke`` and CI.
SMOKE_MODELS = ("ncf",)
SMOKE_OPTIMIZERS = ("random", "cma", "digamma")
SMOKE_BUDGET = 40


class JobTimeout(RuntimeError):
    """A job exceeded the runner's per-job wall-clock timeout."""


class SweepInterrupted(RuntimeError):
    """The sweep stopped on SIGINT/SIGTERM after an orderly shutdown.

    Raised by :class:`SweepRunner` once the in-flight job has been wound
    down (checkpoint saved, ``interrupted`` record appended, store write
    completed).  Carries the signal number so the CLI can exit with the
    conventional ``128 + signum`` code.
    """

    def __init__(self, signum: int, job_id: Optional[str] = None):
        self.signum = signum
        self.job_id = job_id
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        detail = f" during job {job_id!r}" if job_id else " between jobs"
        super().__init__(f"received {name}{detail}")

    @property
    def exit_code(self) -> int:
        """Conventional shell exit code for death-by-signal."""
        return 128 + self.signum


class ResultStoreCorruption(UserWarning):
    """Warning category for undecodable lines found in a result store."""


class ResultStore:
    """Append-only JSONL store of completed search results.

    Each line is an independent JSON record ``{"job_id": ..., "spec": ...,
    "result": ...}`` for a success, or ``{"job_id": ..., "spec": ...,
    "status": "failed"|"quarantined", "failure": {...}}`` for a failed
    attempt; later records for the same id win.  Malformed lines (e.g. the
    partial last line of a killed writer) are counted, warned about and
    quarantined into ``<store>.corrupt`` on load, so a store surviving a
    crash is always resumable and never *silently* lossy.

    ``durability`` selects how hard appends push each record toward disk:
    ``"flush"`` (default) performs one unbuffered ``write`` syscall on an
    ``O_APPEND`` descriptor; ``"fsync"`` additionally forces the record to
    stable storage before the append returns.
    """

    def __init__(self, path: Union[str, Path], durability: str = "flush"):
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self.path = Path(path)
        self.durability = durability
        #: Undecodable lines encountered by the most recent load.
        self.skipped_lines = 0

    @property
    def corrupt_path(self) -> Path:
        """Side file that quarantined undecodable lines accumulate in."""
        return self.path.with_name(self.path.name + ".corrupt")

    def append(
        self,
        spec: JobSpec,
        result: AnyResult,
        extra: Optional[dict] = None,
    ) -> None:
        """Persist one completed job; flushed immediately.

        ``extra`` merges additional top-level keys into the record (e.g.
        the runner's per-search cache statistics); readers ignore keys they
        do not know, so the store stays backward compatible.
        """
        record = {
            "job_id": spec.job_id,
            "spec": job_to_dict(spec),
            "result": result_to_dict(result),
        }
        if extra:
            record.update(extra)
        self._append_record(record)

    def append_failure(
        self,
        spec: JobSpec,
        failure: dict,
        quarantined: bool = False,
        status: Optional[str] = None,
    ) -> None:
        """Persist one failed attempt as a structured failure record.

        ``failure`` carries the boundary's diagnosis (``error``,
        ``traceback``, ``attempt``, ``elapsed``); ``quarantined`` marks the
        terminal attempt after which ``--resume`` stops retrying the job.
        ``status`` overrides the failed/quarantined choice with another
        non-``ok`` member of :data:`JOB_STATUSES` (``"interrupted"``).
        """
        if status is None:
            status = "quarantined" if quarantined else "failed"
        if status not in JOB_STATUSES or status == "ok":
            raise ValueError(
                f"failure status must be a non-ok member of {JOB_STATUSES}, "
                f"got {status!r}"
            )
        record = {
            "job_id": spec.job_id,
            "spec": job_to_dict(spec),
            "status": status,
            "failure": dict(failure),
        }
        self._append_record(record)

    def _append_record(self, record: dict) -> None:
        """Atomically append one record as a self-contained JSONL line.

        The record is emitted as one ``write`` syscall on an ``O_APPEND``
        descriptor (not through buffered text I/O, which splits multi-KB
        records into several syscalls), so shard processes sharing one
        store file do not interleave each other's lines.  If a previous
        writer died mid-line, the new record first closes the partial line
        with a newline, so one crash can never corrupt two records.  With
        ``durability="fsync"`` the record is forced to stable storage
        before the append returns.
        """
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # O_RDWR (not O_WRONLY): the partial-line check below preads the
        # current last byte through the same descriptor.
        descriptor = os.open(
            self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            size = os.fstat(descriptor).st_size
            if size > 0 and hasattr(os, "pread"):
                if os.pread(descriptor, 1, size - 1) != b"\n":
                    data = b"\n" + data
            view = memoryview(data)
            while view:  # short writes (ENOSPC mid-write, signals) must not
                view = view[os.write(descriptor, view) :]  # silently truncate
            if self.durability == "fsync":
                os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def _scan(
        self,
    ) -> Tuple[List[Tuple[int, bytes, dict]], List[Tuple[int, bytes]]]:
        """Parse the store without side effects.

        Returns ``(good, corrupt)``: well-formed records as ``(line_number,
        raw_line, parsed)`` triples and undecodable lines as
        ``(line_number, raw_line)`` pairs, both in file order.  Lines stay
        raw bytes and are decoded one at a time, so a line that is not
        valid UTF-8 is just another corrupt line.
        """
        if not self.path.exists():
            return [], []
        good: List[Tuple[int, bytes, dict]] = []
        corrupt: List[Tuple[int, bytes]] = []
        for number, line in enumerate(self.path.read_bytes().splitlines(), 1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                good.append((number, line, json.loads(stripped.decode())))
            except (UnicodeDecodeError, json.JSONDecodeError):
                corrupt.append((number, line))
        return good, corrupt

    def records(self) -> List[dict]:
        """All well-formed records, in file order.

        Undecodable lines (the partial last line of a killed writer, disk
        corruption) are never silently dropped: they are counted in
        :attr:`skipped_lines`, quarantined into :attr:`corrupt_path` and
        reported through a :class:`ResultStoreCorruption` warning.
        """
        good, corrupt = self._scan()
        self.skipped_lines = len(corrupt)
        if corrupt:
            quarantined = self._quarantine(corrupt)
            warnings.warn(
                f"{self.path}: skipped {len(corrupt)} undecodable line(s) "
                f"(line {', '.join(str(n) for n, _ in corrupt)}); "
                f"{quarantined} new line(s) quarantined to {self.corrupt_path}"
                " — run repair() (or `repro experiments --repair-store`) to"
                " drop them from the store",
                ResultStoreCorruption,
                stacklevel=2,
            )
        return [record for _, _, record in good]

    def _quarantine(self, corrupt: List[Tuple[int, bytes]]) -> int:
        """Copy undecodable lines into the ``.corrupt`` side file (deduped).

        Returns how many lines were newly quarantined; lines already in the
        side file (repeated loads of the same damaged store) are not
        duplicated.
        """
        known = set()
        if self.corrupt_path.exists():
            known = set(self.corrupt_path.read_bytes().splitlines())
        fresh = [line for _, line in corrupt if line not in known]
        if fresh:
            with self.corrupt_path.open("ab") as handle:
                handle.write(b"".join(line + b"\n" for line in fresh))
        return len(fresh)

    def verify(self) -> dict:
        """Integrity report of the store; read-only.

        ``ok`` is True when every line decodes.  ``jobs`` counts each job
        id once by its *latest* record's status, which is what resume
        semantics key off.
        """
        good, corrupt = self._scan()
        latest: Dict[str, str] = {}
        failure_records = 0
        for _, _, record in good:
            status = record.get("status", "ok")
            if status != "ok":
                failure_records += 1
            latest[record.get("job_id", "<missing id>")] = status
        jobs = {status: 0 for status in JOB_STATUSES}
        for status in latest.values():
            jobs[status] = jobs.get(status, 0) + 1
        return {
            "path": str(self.path),
            "records": len(good),
            "failure_records": failure_records,
            "jobs": jobs,
            "corrupt_lines": len(corrupt),
            "corrupt_line_numbers": [number for number, _ in corrupt],
            "ok": not corrupt,
        }

    def repair(self) -> dict:
        """Drop undecodable lines from the store, quarantining them first.

        Well-formed lines are preserved byte-for-byte; the cleaned store is
        written to a temporary file, fsynced and atomically renamed over
        the original, so a crash mid-repair leaves either the old or the
        new store — never a half-written one.  Returns a report with the
        number of ``removed_lines``.
        """
        good, corrupt = self._scan()
        if corrupt:
            self._quarantine(corrupt)
            replace_atomically(
                self.path, b"".join(line + b"\n" for _, line, _ in good)
            )
        return {
            "path": str(self.path),
            "records": len(good),
            "removed_lines": len(corrupt),
            "quarantine": str(self.corrupt_path) if corrupt else None,
        }

    def statuses(self, only: Optional[set] = None) -> Dict[str, str]:
        """Latest status per job id (a member of :data:`JOB_STATUSES`);
        later records win, success records (which carry no status field)
        read as ``"ok"``."""
        table: Dict[str, str] = {}
        for record in self.records():
            job_id = record.get("job_id")
            if only is not None and job_id not in only:
                continue
            table[job_id] = record.get("status", "ok")
        return table

    def completed_ids(self) -> set:
        """Ids of every job whose latest record is a successful result."""
        return {
            job_id
            for job_id, status in self.statuses().items()
            if status == "ok"
        }

    def load_results(self, only: Optional[set] = None) -> Dict[str, AnyResult]:
        """Deserialize stored results, keyed by job id.

        Records round-trip as whatever they were stored as (Pareto fronts
        come back as :class:`ParetoResult`); failure records carry no
        result and are skipped.  ``only`` restricts deserialization to the
        given ids — rebuilding a result (designs, per-layer reports,
        genomes) is the expensive part, so a shard resuming against a
        large shared store should not pay it for every other shard's
        records.
        """
        return {
            record["job_id"]: result_from_dict(record["result"])
            for record in self.records()
            if "result" in record
            and (only is None or record["job_id"] in only)
        }

    def load_jobs(self) -> Dict[str, JobSpec]:
        """Deserialize every stored job spec, keyed by job id."""
        return {
            record["job_id"]: job_from_dict(record["spec"])
            for record in self.records()
        }


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``--shard i/N`` argument into a 1-based (index, count) pair."""
    head, separator, tail = text.partition("/")
    if not separator:
        raise ValueError(
            f"shard must look like 'i/N' (shard i of N, e.g. '2/8'); "
            f"got {text!r}, which has no '/'"
        )
    try:
        index, count = int(head), int(tail)
    except ValueError as error:
        raise ValueError(
            f"shard must look like 'i/N' with integer i and N (e.g. '2/8'); "
            f"got {text!r}"
        ) from error
    if count < 1:
        raise ValueError(
            f"shard count N must be >= 1; got N={count} in {text!r}"
        )
    if not 1 <= index <= count:
        raise ValueError(
            f"shard index i is 1-based and must satisfy 1 <= i <= N; "
            f"got i={index} with N={count} in {text!r}"
        )
    return index, count


def select_shard(jobs: Sequence[JobSpec], index: int, count: int) -> List[JobSpec]:
    """Shard ``index`` of ``count`` (1-based): every ``count``-th job."""
    return list(jobs[index - 1 :: count])


def pin_settings_backend(
    jobs: Sequence[JobSpec], settings: ExperimentSettings
) -> List[JobSpec]:
    """Pin a non-default sweep backend onto every spec that inherits it.

    An explicit backend always lands in ``job_id``: runs under different
    backends are different experiments and must never collide in (or
    resume from) each other's store records.  Table rendering compiles
    suite specs independently of the runner, so both sides pin through
    this one helper to agree on ids.
    """
    if settings.backend == "analytic":
        return list(jobs)
    return [
        spec
        if spec.backend is not None
        else replace(spec, backend=settings.backend)
        for spec in jobs
    ]


class SweepRunner:
    """Execute a job list through shared framework/worker-pool lifecycles.

    Every job runs inside an error boundary: an exception (or watchdog
    timeout) becomes a structured failure record in the store and the sweep
    moves on.  Failed jobs retry up to ``settings.retries`` extra times
    with exponential backoff and deterministic jitter; a job that exhausts
    its attempts is quarantined.  ``resume`` re-runs jobs whose latest
    stored record is a retryable failure and skips quarantined ones.

    Parameters
    ----------
    jobs:
        The full sweep, in a deterministic order (sharding depends on it).
    settings:
        Evaluation-engine knobs shared by every job (cache, workers,
        bytes-per-element) plus the reliability knobs (``retries``,
        ``retry_backoff``, ``job_timeout``, ``durability``,
        ``fault_plan``).  ``models`` / ``sampling_budget`` / ``seed`` on
        the settings are ignored here — those live on the specs.
    store:
        Optional :class:`ResultStore` (or path); every completed search and
        every failed attempt is appended immediately.
    resume:
        Skip jobs whose ids already have a stored success (returning the
        stored result) or a quarantine marker; retryable failures re-run.
    shard:
        Optional 1-based ``(index, count)`` pair; only that slice of the
        job list is executed.
    progress:
        Optional callable receiving one human-readable line per job.
    """

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        settings: Optional[ExperimentSettings] = None,
        store: Union[ResultStore, str, Path, None] = None,
        resume: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.settings = settings if settings is not None else ExperimentSettings()
        self.jobs = pin_settings_backend(jobs, self.settings)
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, durability=self.settings.durability)
        self.store = store
        self.resume = resume
        if shard is not None:
            index, count = shard
            if count < 1 or not 1 <= index <= count:
                raise ValueError(f"invalid shard {shard!r}")
        self.shard = shard
        self.progress = progress
        #: Signal number of a pending graceful-shutdown request, set by the
        #: SIGINT/SIGTERM handler and polled at generation and job
        #: boundaries.  Handlers only set this flag — all actual shutdown
        #: work (checkpoint, store record, exit code) happens at the next
        #: boundary, so no store append is ever torn by a signal.
        self._interrupt: Optional[int] = None
        self._previous_handlers: Dict[int, object] = {}

    @property
    def shard_jobs(self) -> List[JobSpec]:
        """The slice of the sweep this runner executes."""
        if self.shard is None:
            return list(self.jobs)
        return select_shard(self.jobs, *self.shard)

    def run(self) -> List[Outcome]:
        """Execute (or reload) every job of this runner's shard, in order.

        Jobs are deduplicated by ``job_id``: an id encodes everything that
        affects the search outcome (the ``scheme`` label does not), so
        specs sharing an id — e.g. the same DiGamma search appearing in two
        suites under different labels — are executed once and the result is
        returned for each of them.  Failed and quarantined jobs contribute
        no outcome; their records live in the store.

        SIGINT/SIGTERM are handled gracefully for the duration of the run:
        the in-flight search checkpoints and stops at its next generation
        boundary, an ``interrupted`` record is appended, and
        :class:`SweepInterrupted` propagates so the CLI exits ``128 +
        signum`` with a resume hint.  A second signal aborts immediately.
        """
        self._install_signal_handlers()
        try:
            return self._run_jobs()
        finally:
            self._restore_signal_handlers()

    def _run_jobs(self) -> List[Outcome]:
        jobs = self.shard_jobs
        completed: Dict[str, AnyResult] = {}
        quarantined: set = set()
        if self.resume and self.store is not None:
            stored = self.store.statuses(only={spec.job_id for spec in jobs})
            quarantined = {
                job_id
                for job_id, status in stored.items()
                if status == "quarantined"
            }
            completed = self.store.load_results(
                only={
                    job_id
                    for job_id, status in stored.items()
                    if status == "ok"
                }
            )
        # Frameworks are shared across jobs and closed as soon as the last
        # job needing them has run, bounding memory on large sweeps.
        last_use: Dict[tuple, int] = {}
        for position, spec in enumerate(jobs):
            last_use[spec.framework_key] = position

        outcomes: List[Outcome] = []
        frameworks: Dict[tuple, object] = {}
        try:
            for position, spec in enumerate(jobs):
                if self._interrupt is not None:
                    # The signal arrived between jobs (or between a job's
                    # store write and here): nothing is in flight, so stop
                    # before starting the next search.
                    raise SweepInterrupted(self._interrupt)
                prefix = f"[{position + 1}/{len(jobs)}]"
                known = completed.get(spec.job_id)
                if known is not None:
                    outcomes.append((spec, known))
                    self._say(f"{prefix} skip (stored): {spec.job_id}")
                elif spec.job_id in quarantined:
                    self._say(f"{prefix} skip (quarantined): {spec.job_id}")
                else:
                    search = self._run_job(spec, position, prefix, frameworks)
                    if search is not None:
                        completed[spec.job_id] = search
                        outcomes.append((spec, search))
                    else:
                        quarantined.add(spec.job_id)
                if last_use[spec.framework_key] == position:
                    framework = frameworks.pop(spec.framework_key, None)
                    if framework is not None:
                        framework.close()
        finally:
            # Close every shared pool even when a framework's own close
            # raises (e.g. a pool broken by a killed worker) — the
            # exception path must not leak the other frameworks' pools.
            for framework in frameworks.values():
                try:
                    framework.close()
                except Exception:
                    pass
        return outcomes

    # -- the per-job error boundary ----------------------------------------

    def _run_job(
        self,
        spec: JobSpec,
        position: int,
        prefix: str,
        frameworks: Dict[tuple, object],
    ) -> Optional[AnyResult]:
        """Run one job with retries; None means the job was quarantined.

        Each attempt runs inside a try boundary: the failure is recorded to
        the store (with error, traceback, attempt number and elapsed time),
        the job's framework is discarded (a timed-out search may still be
        running on its watchdog thread; a crashed one may hold a broken
        pool), and the next attempt starts from a fresh framework after an
        exponentially backed-off, deterministically jittered pause.
        :class:`SweepAborted` (the fault harness's simulated hard crash)
        is never caught — it stops the sweep like a real crash would.
        """
        attempts = self.settings.retries + 1
        for attempt in range(1, attempts + 1):
            start = time.perf_counter()
            try:
                framework = self._framework_for(spec, frameworks)
                search, extra, cache_line = self._supervised_search(
                    spec, framework, position, attempt
                )
            except SweepAborted:
                raise
            except SearchInterrupted as stop:
                # Graceful shutdown: the search already checkpointed and
                # unwound at a generation boundary.  Record the job as
                # interrupted (resumable) and stop the sweep.
                elapsed = time.perf_counter() - start
                failure = {
                    "job_id": spec.job_id,
                    "error": f"{type(stop).__name__}: {stop}",
                    "attempt": attempt,
                    "elapsed": round(elapsed, 6),
                }
                if self.store is not None:
                    self.store.append_failure(
                        spec, failure, status="interrupted"
                    )
                self._say(
                    f"{prefix} INTERRUPTED: {spec.job_id} ({stop}); "
                    "re-run with --resume to continue"
                )
                signum = (
                    self._interrupt
                    if self._interrupt is not None
                    else signal.SIGINT
                )
                raise SweepInterrupted(signum, spec.job_id) from stop
            except Exception as error:
                elapsed = time.perf_counter() - start
                terminal = attempt == attempts
                failure = {
                    "job_id": spec.job_id,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                    "attempt": attempt,
                    "elapsed": round(elapsed, 6),
                }
                if self.store is not None:
                    self.store.append_failure(
                        spec, failure, quarantined=terminal
                    )
                self._discard_framework(spec, frameworks)
                if terminal:
                    self._say(
                        f"{prefix} QUARANTINED after {attempt} attempt(s): "
                        f"{spec.job_id} ({failure['error']})"
                    )
                    return None
                self._say(
                    f"{prefix} attempt {attempt}/{attempts} failed: "
                    f"{spec.job_id} ({failure['error']}); retrying"
                )
                self._backoff(spec, attempt)
                continue
            if self.store is not None:
                self.store.append(spec, search, extra=extra)
                plan = self.settings.fault_plan
                if plan is not None:
                    plan.after_append(
                        self.store.path, spec.job_id, position, attempt
                    )
            self._say(f"{prefix} {spec.job_id}: {search.summary()} {cache_line}")
            return search
        return None  # pragma: no cover — the loop always returns

    def _supervised_search(
        self,
        spec: JobSpec,
        framework,
        position: int,
        attempt: int,
    ) -> Tuple[AnyResult, dict, str]:
        """Run one attempt's search under the watchdog, with fault hooks.

        Returns the search result, the ``extra`` dict destined for the
        store record, and a pre-rendered cache-statistics tail for the
        progress line (which must never leak into the record).
        """
        evaluator = framework.evaluator
        design_before = evaluator.design_cache_stats
        layer_before = evaluator.layer_cache_stats
        counters_before = evaluator.cost_model.vector_stats
        plan = self.settings.fault_plan

        def execute() -> AnyResult:
            if plan is not None:
                plan.on_job_start(spec.job_id, position, attempt)
            run_search = (
                framework.pareto_search
                if spec.is_multi_objective
                else framework.search
            )
            kwargs: dict = {
                "sampling_budget": spec.sampling_budget,
                "seed": spec.seed,
                "run_label": spec.job_id,
                "interrupt_check": self._interrupt_requested,
            }
            if self.settings.checkpoint_dir is not None:
                # Keyed by job_id: everything that affects the search is in
                # the id, so a retry/resumed run (and nothing else) finds
                # this search's checkpoint.
                kwargs.update(
                    checkpoint_dir=self.settings.checkpoint_dir,
                    checkpoint_every=self.settings.checkpoint_every,
                    checkpoint_key=spec.job_id,
                )
            return run_search(build_optimizer(spec), **kwargs)

        search = self._with_timeout(execute, spec)
        design_stats = evaluator.design_cache_stats.since(design_before)
        layer_stats = evaluator.layer_cache_stats.since(layer_before)
        counters = {
            key: value - counters_before.get(key, 0)
            for key, value in evaluator.cost_model.vector_stats.items()
        }
        extra = {"cache": _cache_record(design_stats, layer_stats, counters)}
        cache_line = (
            f"[design cache {design_stats.hit_rate:.0%} of "
            f"{design_stats.requests}, layer cache "
            f"{layer_stats.hit_rate:.0%} of {layer_stats.requests}]"
        )
        return search, extra, cache_line

    def _with_timeout(self, execute: Callable[[], AnyResult], spec: JobSpec):
        """Enforce ``settings.job_timeout`` with a watchdog thread.

        The attempt runs on a daemon thread; if it outlives the deadline
        the main thread raises :class:`JobTimeout` and abandons it (the
        caller discards the job's framework, so the zombie thread keeps no
        shared state alive).  Without a timeout the attempt runs inline.
        """
        timeout = self.settings.job_timeout
        if timeout is None:
            return execute()
        box: dict = {}

        def target() -> None:
            try:
                box["result"] = execute()
            except BaseException as error:  # noqa: BLE001 — relayed below
                box["error"] = error

        thread = threading.Thread(
            target=target, daemon=True, name=f"job:{spec.job_id}"
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            raise JobTimeout(
                f"job exceeded --job-timeout={timeout}s wall clock"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _framework_for(self, spec: JobSpec, frameworks: Dict[tuple, object]):
        """Fetch (or build) the shared framework for a spec."""
        framework = frameworks.get(spec.framework_key)
        if framework is None:
            framework = build_framework(spec, self.settings)
            frameworks[spec.framework_key] = framework
            if self.settings.fault_plan is not None:
                framework.evaluator.fault_plan = self.settings.fault_plan
        return framework

    def _discard_framework(
        self, spec: JobSpec, frameworks: Dict[tuple, object]
    ) -> None:
        """Drop a failed job's framework so the retry starts fresh.

        A timed-out attempt may still be executing on its watchdog thread
        and a crashed one may hold a broken worker pool, so the framework
        is shut down without waiting and never reused.  Its checkpoint
        sessions are closed first: the abandoned thread must not overwrite
        the checkpoint the retry is about to resume from, nor clear it
        when it completes.  ``close()`` waits for the session's in-flight
        background write, so once it returns no write of the abandoned
        attempt can land.
        """
        framework = frameworks.pop(spec.framework_key, None)
        if framework is None:
            return
        for session in list(getattr(framework, "checkpoint_sessions", ())):
            try:
                session.close()
            except Exception:
                pass
        try:
            framework.evaluator.shutdown(wait=False)
        except Exception:
            pass

    def _backoff(self, spec: JobSpec, attempt: int) -> None:
        """Sleep before the next attempt: exponential base, jittered.

        The jitter factor (1.0–2.0x) is deterministic per (job, attempt) so
        chaos tests reproduce exactly, while concurrent shards retrying the
        same store still spread out.
        """
        base = self.settings.retry_backoff * (2 ** (attempt - 1))
        if base <= 0:
            return
        seed = zlib.crc32(spec.job_id.encode()) + attempt
        time.sleep(base * (1.0 + Random(seed).random()))

    # -- graceful shutdown ---------------------------------------------------

    def _interrupt_requested(self) -> bool:
        """Interrupt poll handed to every search (generation boundaries)."""
        return self._interrupt is not None

    def _handle_signal(self, signum: int, frame) -> None:
        """SIGINT/SIGTERM handler: request a graceful stop, escalate on repeat.

        Only sets the flag — the actual shutdown (checkpoint save, store
        record) runs at the next generation/job boundary in normal code,
        never inside the handler.  A second signal means the operator is
        done waiting: escalate to KeyboardInterrupt immediately.
        """
        if self._interrupt is not None:
            raise KeyboardInterrupt
        self._interrupt = signum
        self._say(
            "interrupt requested; finishing at the next generation "
            "boundary (signal again to abort immediately)"
        )

    def _install_signal_handlers(self) -> None:
        """Install graceful handlers; a no-op off the main thread.

        ``signal.signal`` only works in the main thread (and can fail in
        exotic embeddings), so runners driven from worker threads simply
        keep the process's existing behavior.
        """
        self._previous_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous = signal.signal(signum, self._handle_signal)
            except (ValueError, OSError):
                continue
            self._previous_handlers[signum] = previous

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._previous_handlers = {}

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def _cache_record(
    design: "CacheStats", layer: "CacheStats", counters: dict
) -> dict:
    """JSON-ready per-search cache statistics for the result store.

    ``counters`` is the search's difference of the cost model's
    ``vector_stats``.  The ``l2`` and ``vector`` sections only appear for
    searches that actually used the persistent tier / the vector engine;
    jobs on the scalar engines keep their records free of all-zero
    noise.  ``vector`` splits the scalar fallbacks by reason, so a sweep
    record shows at a glance *why* rows left the vector path
    (``fallback_depth`` in particular is a regression detector: the
    depth-generalized engine prices every hierarchy depth, so it must
    stay 0).
    """
    record = {
        "design": {
            "hits": design.hits,
            "misses": design.misses,
            "hit_rate": round(design.hit_rate, 4),
        },
        "layer": {
            "hits": layer.hits,
            "misses": layer.misses,
            "hit_rate": round(layer.hit_rate, 4),
        },
    }
    l2_hits = counters.get("l2_hits", 0)
    l2_misses = counters.get("l2_misses", 0)
    l2_writes = counters.get("l2_writes", 0)
    if l2_hits or l2_misses or l2_writes:
        l2_requests = l2_hits + l2_misses
        record["l2"] = {
            "hits": l2_hits,
            "misses": l2_misses,
            "writes": l2_writes,
            "hit_rate": round(l2_hits / l2_requests, 4) if l2_requests else 0.0,
        }
    rows_vectorized = counters.get("rows_vectorized", 0)
    rows_fallback = counters.get("rows_fallback", 0)
    if rows_vectorized or rows_fallback:
        record["vector"] = {
            "rows_vectorized": rows_vectorized,
            "rows_fallback": rows_fallback,
            "fallback_depth": counters.get("fallback_depth", 0),
            "fallback_statics_overflow": counters.get(
                "fallback_statics_overflow", 0
            ),
            "fallback_intermediate_overflow": counters.get(
                "fallback_intermediate_overflow", 0
            ),
            "fallback_small_batch": counters.get("fallback_small_batch", 0),
            "fallback_gene_overflow": counters.get("fallback_gene_overflow", 0),
        }
    return record


def full_outcomes(
    jobs: Sequence[JobSpec],
    outcomes: Sequence[Outcome],
    store: Optional[ResultStore] = None,
    stored_results: Optional[Dict[str, AnyResult]] = None,
) -> Optional[List[Outcome]]:
    """Outcomes for the *whole* sweep, merging this run with the store.

    Returns ``None`` while some jobs have no result yet (e.g. other shards
    still running, or jobs failed/quarantined) — callers should then skip
    table rendering.  Pass ``stored_results`` (a preloaded
    ``store.load_results()`` dict) when rendering several suites from one
    store, to avoid re-reading and re-deserializing the whole file per
    suite.
    """
    have: Dict[str, AnyResult] = {}
    if stored_results is not None:
        have.update(stored_results)
    elif store is not None:
        have.update(store.load_results())
    have.update({spec.job_id: result for spec, result in outcomes})
    if any(spec.job_id not in have for spec in jobs):
        return None
    return [(spec, have[spec.job_id]) for spec in jobs]


# -- shared CLI plumbing -------------------------------------------------------


def positive_int(text: str) -> int:
    """Argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Args shared by the figure harness CLIs and ``repro experiments``."""
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SAMPLING_BUDGET,
        help="sampling budget per search (paper uses 40000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--store",
        default=None,
        help="JSONL result store; completed searches stream into it",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already stored as success or quarantined; re-run "
        "jobs whose latest record is a retryable failure",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for batched population evaluation",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="vector",
        help="evaluation engine: 'vector' (NumPy population batching, "
        "default), 'fast' (scalar tuple engine) or 'reference' (seed "
        "implementation); all three are bit-identical",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="analytic",
        help="cost backend: 'analytic' (the paper's MAESTRO-style "
        "order-aware model, default) or 'zigzag' (independently coded "
        "memory-centric model); unlike --engine, backends compute "
        "different costs and join every job id",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cross-run layer-cache directory shared by every "
        "job and worker; rows are bit-identical to engine pricing, so "
        "warm reruns only get faster (see repro.cost.persist)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failed job before it is quarantined "
        "(default: 0, no retry)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="base pause between attempts; attempt k waits "
        "backoff * 2**(k-1), jittered (default: 0.1)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout enforced by a watchdog; a "
        "timed-out job counts as a failed attempt (default: none)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="mid-search checkpoint directory: searches save their full "
        "loop state at generation boundaries and a killed/timed-out/"
        "interrupted job resumes bit-identically from its last checkpoint "
        "instead of restarting (see repro.framework.checkpoint)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=positive_int,
        default=1,
        metavar="N",
        help="checkpoint cadence in generation boundaries (default: 1; "
        "interruptions always checkpoint regardless)",
    )
    parser.add_argument(
        "--durability",
        choices=DURABILITY_MODES,
        default="flush",
        help="result-store append durability: 'flush' = one flushed write "
        "syscall per record (default), 'fsync' = force each record to "
        "stable storage",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help="chaos testing: JSON list of fault specs to inject, e.g. "
        '\'[{"kind": "raise", "job": 1}, {"kind": "kill-worker"}]\' '
        "(see repro.experiments.faults)",
    )


def validate_sweep_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject argument combinations that would silently do the wrong thing."""
    if args.resume and not args.store:
        parser.error("--resume requires --store (there is nothing to resume from)")


def settings_from_args(
    args: argparse.Namespace, models: Optional[Sequence[str]] = None
) -> ExperimentSettings:
    """Build :class:`ExperimentSettings` from parsed sweep arguments."""
    from repro.experiments.faults import parse_fault_plan

    return ExperimentSettings(
        models=tuple(models) if models is not None else DEFAULT_MODELS,
        sampling_budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        engine=getattr(args, "engine", "vector"),
        backend=getattr(args, "backend", "analytic"),
        cache_dir=getattr(args, "cache_dir", None),
        retries=getattr(args, "retries", 0),
        retry_backoff=getattr(args, "retry_backoff", 0.1),
        job_timeout=getattr(args, "job_timeout", None),
        durability=getattr(args, "durability", "flush"),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        fault_plan=parse_fault_plan(getattr(args, "fault_plan", None)),
    )


# -- the ``repro experiments`` CLI ---------------------------------------------


def _compile_suites(args: argparse.Namespace) -> List[Tuple[str, List[JobSpec], Callable[[List[Outcome]], str]]]:
    """Compile the requested suites into (label, jobs, renderer) entries."""
    from repro.experiments import ablations as ablations_module
    from repro.experiments import fig5 as fig5_module
    from repro.experiments import fig6 as fig6_module
    from repro.experiments import fig7 as fig7_module
    from repro.experiments import pareto as pareto_module

    settings = settings_from_args(args, models=args.models)
    platforms = ("edge", "cloud") if args.platform == "both" else (args.platform,)
    suites = (
        ("fig5", "fig6", "fig7", "ablations", "pareto")
        if args.suite == "all"
        else (args.suite,)
    )
    optimizers = tuple(args.optimizers)

    entries: List[Tuple[str, List[JobSpec], Callable[[List[Outcome]], str]]] = []
    for platform in platforms:
        if "fig5" in suites:
            jobs = fig5_module.compile_fig5_jobs(platform, settings, optimizers)
            entries.append(
                (
                    f"fig5/{platform}",
                    jobs,
                    lambda outcomes, platform=platform, optimizers=optimizers: (
                        fig5_module.fig5_result_from_outcomes(
                            platform, optimizers, outcomes
                        ).report()
                    ),
                )
            )
        if "fig6" in suites:
            jobs = fig6_module.compile_fig6_jobs(platform, settings)
            entries.append(
                (
                    f"fig6/{platform}",
                    jobs,
                    lambda outcomes, platform=platform: (
                        fig6_module.fig6_result_from_outcomes(platform, outcomes).report()
                    ),
                )
            )
        if "fig7" in suites:
            jobs = fig7_module.compile_fig7_jobs(args.model, platform, settings)
            entries.append(
                (
                    f"fig7/{platform}",
                    jobs,
                    lambda outcomes, platform=platform: (
                        fig7_module.fig7_result_from_outcomes(
                            args.model, platform, outcomes
                        ).report()
                    ),
                )
            )
        if "pareto" in suites:
            pareto_jobs = pareto_module.compile_pareto_jobs(
                platform, settings, models=args.models
            )
            entries.append(
                (
                    f"pareto/{platform}",
                    pareto_jobs,
                    lambda outcomes, platform=platform: (
                        pareto_module.pareto_result_from_outcomes(
                            platform, outcomes
                        ).report()
                    ),
                )
            )
        if "ablations" in suites:
            operator_jobs = ablations_module.compile_operator_ablation_jobs(
                platform, settings, models=args.models or ablations_module.ABLATION_MODELS
            )
            entries.append(
                (
                    f"ablations-operators/{platform}",
                    operator_jobs,
                    lambda outcomes, platform=platform: (
                        ablations_module.ablation_result_from_outcomes(
                            platform, outcomes
                        ).report("Ablation A1 - DiGamma operators (latency, cycles)")
                    ),
                )
            )
            buffer_jobs = ablations_module.compile_buffer_allocation_jobs(
                platform, settings, models=args.models or ("resnet18",)
            )
            entries.append(
                (
                    f"ablations-buffers/{platform}",
                    buffer_jobs,
                    lambda outcomes, platform=platform: (
                        ablations_module.ablation_result_from_outcomes(
                            platform, outcomes, metric="latency_area_product"
                        ).report(
                            "Ablation A2 - buffer allocation strategy "
                            "(latency-area product)"
                        )
                    ),
                )
            )
    return entries


def build_parser() -> argparse.ArgumentParser:
    """The ``repro experiments`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Unified experiment runner: compile figure suites (or a "
        "custom grid) into jobs, execute them through one shared engine, "
        "stream results to a JSONL store, resume and shard at will.",
    )
    parser.add_argument(
        "--suite",
        choices=("fig5", "fig6", "fig7", "ablations", "pareto", "all"),
        default="fig5",
        help="which experiment suite to compile (default: fig5)",
    )
    parser.add_argument(
        "--platform",
        choices=("edge", "cloud", "both"),
        default="edge",
        help="platform resources to evaluate (default: edge)",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="models to evaluate (default: the suite's own model set)",
    )
    parser.add_argument(
        "--optimizers",
        nargs="+",
        default=list(FIG5_OPTIMIZERS),
        help="optimizers for the fig5 grid (default: the paper's nine)",
    )
    parser.add_argument(
        "--model",
        default="mnasnet",
        help="model inspected by the fig7 suite (default: mnasnet)",
    )
    add_sweep_arguments(parser)
    parser.add_argument(
        "--shard",
        default=None,
        help="run only shard i/N of the job list (requires --store to merge)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sweep (ncf; random, cma, digamma; budget 40) for CI smoke tests",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    parser.add_argument(
        "--verify-store",
        default=None,
        metavar="PATH",
        help="integrity-check a JSONL result store (decodable lines, "
        "per-status job counts) instead of running a sweep; exits 1 on "
        "corruption",
    )
    parser.add_argument(
        "--repair-store",
        default=None,
        metavar="PATH",
        help="quarantine a store's undecodable lines into <store>.corrupt "
        "and atomically rewrite it clean, instead of running a sweep",
    )
    parser.add_argument(
        "--status",
        default=None,
        metavar="PATH",
        help="report a store's fleet health (per-status job counts and "
        "resumable job ids) instead of running a sweep",
    )
    return parser


def _print_store_report(report: dict) -> None:
    """Render one verify()/repair() report for the CLI."""
    jobs = report.get("jobs")
    if jobs is not None:
        print(
            f"{report['path']}: {report['records']} record(s), "
            f"{jobs['ok']} job(s) ok, {jobs['failed']} failed, "
            f"{jobs['quarantined']} quarantined, "
            f"{jobs.get('interrupted', 0)} interrupted, "
            f"{report['corrupt_lines']} corrupt line(s)"
            + (
                f" at line {', '.join(str(n) for n in report['corrupt_line_numbers'])}"
                if report["corrupt_lines"]
                else ""
            )
        )
    else:
        print(
            f"{report['path']}: {report['records']} record(s) kept, "
            f"{report['removed_lines']} corrupt line(s) removed"
            + (
                f" (quarantined to {report['quarantine']})"
                if report["quarantine"]
                else ""
            )
        )


def _print_status_report(store: ResultStore) -> None:
    """Render a store's fleet health: per-status counts + resumable ids."""
    statuses = store.statuses()
    counts = {status: 0 for status in JOB_STATUSES}
    for status in statuses.values():
        counts[status] = counts.get(status, 0) + 1
    print(
        f"{store.path}: {len(statuses)} job(s): "
        + ", ".join(f"{counts[status]} {status}" for status in JOB_STATUSES)
    )
    resumable = sorted(
        job_id
        for job_id, status in statuses.items()
        if status in RESUMABLE_STATUSES
    )
    if resumable:
        print(f"{len(resumable)} resumable job(s) (re-run with --resume):")
        for job_id in resumable:
            print(f"  {job_id}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro experiments``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verify_store or args.repair_store or args.status:
        status = 0
        if args.repair_store:
            _print_store_report(ResultStore(args.repair_store).repair())
        if args.verify_store:
            report = ResultStore(args.verify_store).verify()
            _print_store_report(report)
            status = 0 if report["ok"] else 1
        if args.status:
            _print_status_report(ResultStore(args.status))
        return status
    if args.smoke:
        args.models = list(SMOKE_MODELS)
        args.optimizers = list(SMOKE_OPTIMIZERS)
        args.budget = min(args.budget, SMOKE_BUDGET)

    entries = _compile_suites(args)
    # Dedupe by job_id across suites BEFORE sharding: an id encodes the
    # search outcome, so overlapping suites (e.g. DiGamma in fig5, fig6 and
    # the ablations) contribute one job, and positional sharding never hands
    # the same search to two shards.  full_outcomes re-fans results out to
    # every suite's specs by id when rendering.
    jobs: List[JobSpec] = []
    seen_ids: set = set()
    for _, suite_jobs, _ in entries:
        for spec in suite_jobs:
            if spec.job_id not in seen_ids:
                seen_ids.add(spec.job_id)
                jobs.append(spec)
    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            parser.error(str(error))
    validate_sweep_args(parser, args)
    settings = settings_from_args(args, models=args.models)
    if settings.backend != "analytic":
        # Rendering matches outcomes to suite specs by job_id, and the
        # runner pins the sweep backend into ids — pin the suite copies
        # identically or every lookup misses.
        entries = [
            (label, pin_settings_backend(suite_jobs, settings), render)
            for label, suite_jobs, render in entries
        ]
        jobs = pin_settings_backend(jobs, settings)
    store = (
        ResultStore(args.store, durability=settings.durability)
        if args.store
        else None
    )
    if shard is not None and store is None:
        parser.error("--shard requires --store (shards merge through the store)")

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    runner = SweepRunner(
        jobs,
        settings=settings,
        store=store,
        resume=args.resume,
        shard=shard,
        progress=progress,
    )
    try:
        outcomes = runner.run()
    except SweepAborted as crash:
        print(f"sweep aborted: {crash}", file=sys.stderr)
        return 1
    except SweepInterrupted as stop:
        hint = "re-run with --resume to continue"
        if settings.checkpoint_dir is not None:
            hint += " from the last mid-search checkpoint"
        print(f"sweep interrupted: {stop}; {hint}", file=sys.stderr)
        return stop.exit_code

    rendered_any = False
    # Other processes' results only matter when sharded; a whole-sweep run
    # already holds every outcome it compiled, so skip re-reading the store.
    stored_results = (
        store.load_results() if (store is not None and shard is not None) else {}
    )
    for label, suite_jobs, render in entries:
        merged = full_outcomes(suite_jobs, outcomes, stored_results=stored_results)
        if merged is None:
            done = sum(
                1
                for spec in suite_jobs
                if any(spec.job_id == ran.job_id for ran, _ in outcomes)
            )
            print(f"{label}: {done}/{len(suite_jobs)} jobs done in this shard; "
                  "tables pending remaining shards or failed jobs")
            continue
        print(render(merged))
        print()
        rendered_any = True
    if not rendered_any and shard is not None:
        print(f"shard {args.shard}: {len(outcomes)} job(s) completed into {store.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

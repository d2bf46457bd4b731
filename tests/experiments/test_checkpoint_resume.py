"""Preemption chaos tests: checkpointed sweeps, graceful interruption, resume.

The headline guarantees under test: a SIGTERM'd sweep checkpoints, records
the in-flight job as ``interrupted`` and exits non-zero; a hard-killed or
timed-out search resumes from its last generation-boundary checkpoint; and
every resumed trajectory is bit-identical to the fault-free run's.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.fig5 import compile_fig5_jobs
from repro.experiments.runner import (
    ResultStore,
    SweepInterrupted,
    SweepRunner,
)
from repro.experiments.settings import ExperimentSettings
from repro.framework.checkpoint import CheckpointStore

#: Five DiGamma generation boundaries (population 20 at this budget).
BUDGET = 120

REPO_ROOT = Path(__file__).resolve().parents[2]


def settings(**overrides):
    base = dict(
        models=("ncf",), sampling_budget=BUDGET, seed=0, retry_backoff=0.0
    )
    base.update(overrides)
    return ExperimentSettings(**base)


def digamma_jobs():
    return compile_fig5_jobs("edge", settings(), ("digamma",))


def canonical(path):
    """Latest successful record per job, stripped of timing/cache noise."""
    latest = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            latest[record["job_id"]] = record
    successes = []
    for record in sorted(latest.values(), key=lambda entry: entry["job_id"]):
        if "result" not in record:
            continue
        record.pop("cache", None)
        record["result"].pop("wall_time_seconds", None)
        successes.append(record)
    return successes


class TestGracefulSigterm:
    def test_sigterm_checkpoints_records_interrupted_and_resumes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan(
            [FaultSpec(kind="sigterm", job="digamma", generation=3)],
            state_dir=tmp_path / "faults",
        )
        jobs = digamma_jobs()
        store = ResultStore(tmp_path / "sweep.jsonl")
        with pytest.raises(SweepInterrupted) as info:
            SweepRunner(
                jobs,
                settings=settings(checkpoint_dir=str(ckpt), fault_plan=plan),
                store=store,
            ).run()
        assert info.value.exit_code == 128 + signal.SIGTERM
        assert jobs[0].job_id in str(info.value)
        # Exactly one interrupted record, and the job reads as resumable.
        interrupted = [
            record for record in store.records()
            if record.get("status") == "interrupted"
        ]
        assert len(interrupted) == 1
        assert "SearchInterrupted" in interrupted[0]["failure"]["error"]
        assert store.statuses()[jobs[0].job_id] == "interrupted"
        # The graceful path checkpointed before unwinding.
        assert list(ckpt.glob("*.ckpt.json"))
        # The handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

        # Resume (no fault plan: its one-shot firing is spent anyway) and
        # compare against a fault-free control, bit for bit.
        outcomes = SweepRunner(
            jobs,
            settings=settings(checkpoint_dir=str(ckpt)),
            store=store,
            resume=True,
        ).run()
        assert len(outcomes) == 1
        assert store.statuses()[jobs[0].job_id] == "ok"
        assert list(ckpt.glob("*.ckpt.json")) == []

        control = ResultStore(tmp_path / "control.jsonl")
        SweepRunner(jobs, settings=settings(), store=control).run()
        assert canonical(store.path) == canonical(control.path)

    def test_pending_interrupt_stops_between_jobs(self, tmp_path):
        config = settings(sampling_budget=40)
        jobs = compile_fig5_jobs("edge", config, ("random", "cma"))
        runner = SweepRunner(
            jobs, settings=config, store=ResultStore(tmp_path / "sweep.jsonl")
        )
        runner._interrupt = signal.SIGINT
        with pytest.raises(SweepInterrupted) as info:
            runner.run()
        assert info.value.exit_code == 130
        assert "between jobs" in str(info.value)


class TestTimeoutRetryResume:
    def test_timed_out_attempt_resumes_from_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        # The hang fires at boundary 3 — *after* two checkpoints exist —
        # and outlasts the watchdog; its one-shot token is then spent, so
        # the retry resumes from the boundary-2 checkpoint and completes.
        plan = FaultPlan(
            [
                FaultSpec(
                    kind="hang", job="digamma", attempt=None,
                    generation=3, duration=5.0,
                )
            ],
            state_dir=tmp_path / "faults",
        )
        jobs = digamma_jobs()
        store = ResultStore(tmp_path / "sweep.jsonl")
        outcomes = SweepRunner(
            jobs,
            settings=settings(
                checkpoint_dir=str(ckpt),
                fault_plan=plan,
                retries=1,
                job_timeout=1.0,
            ),
            store=store,
        ).run()
        assert len(outcomes) == 1
        timeouts = [
            record for record in store.records()
            if "failure" in record and "JobTimeout" in record["failure"]["error"]
        ]
        assert len(timeouts) == 1
        assert list(ckpt.glob("*.ckpt.json")) == []

        control = ResultStore(tmp_path / "control.jsonl")
        SweepRunner(jobs, settings=settings(), store=control).run()
        assert canonical(store.path) == canonical(control.path)


class TestPreemptionCLI:
    def test_cli_sigterm_exits_143_then_resumes_clean(self, tmp_path, capsys):
        store = tmp_path / "sweep.jsonl"
        ckpt = tmp_path / "ckpt"
        base = [
            "experiments", "--suite", "fig5", "--models", "ncf",
            "--optimizers", "digamma", "--budget", str(BUDGET), "--quiet",
            "--retry-backoff", "0",
            "--store", str(store), "--checkpoint-dir", str(ckpt),
        ]
        code = repro_main(base + [
            "--fault-plan",
            '[{"kind": "sigterm", "job": "digamma", "generation": 3}]',
        ])
        assert code == 128 + signal.SIGTERM
        err = capsys.readouterr().err
        assert "sweep interrupted" in err and "--resume" in err
        statuses = ResultStore(store).statuses()
        assert list(statuses.values()) == ["interrupted"]

        assert repro_main(base + ["--resume"]) == 0
        assert list(ResultStore(store).statuses().values()) == ["ok"]
        assert list(ckpt.glob("*.ckpt.json")) == []

    def test_kill_mid_search_then_resume_is_bit_identical(self, tmp_path):
        """The full preemption story, across real process boundaries."""
        store = tmp_path / "sweep.jsonl"
        ckpt = tmp_path / "ckpt"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        base = [
            sys.executable, "-m", "repro", "experiments",
            "--suite", "fig5", "--models", "ncf", "--optimizers", "digamma",
            "--budget", str(BUDGET), "--quiet", "--retry-backoff", "0",
            "--store", str(store), "--checkpoint-dir", str(ckpt),
        ]
        killed = subprocess.run(
            base + [
                "--fault-plan",
                '[{"kind": "kill-generation", "job": "digamma",'
                ' "generation": 3}]',
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        # os._exit(1) mid-search: a hard preemption, no cleanup, no record.
        # Boundary 2's background write was awaited before boundary 3's
        # fault fired, so it is on disk whole.
        assert killed.returncode == 1
        (job,) = digamma_jobs()
        assert CheckpointStore(ckpt, job.job_id).load().generation == 2
        assert list(ckpt.glob("*.tmp")) == []

        resumed = subprocess.run(
            base + ["--resume"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert list(ckpt.glob("*.ckpt.json")) == []
        assert list(ckpt.glob("*.tmp")) == []

        control_store = tmp_path / "control.jsonl"
        control = subprocess.run(
            [
                sys.executable, "-m", "repro", "experiments",
                "--suite", "fig5", "--models", "ncf",
                "--optimizers", "digamma", "--budget", str(BUDGET),
                "--quiet", "--store", str(control_store),
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert control.returncode == 0, control.stderr
        assert canonical(store) == canonical(control_store)


class TestStatusReport:
    def test_status_reports_counts_and_resumable_ids(self, tmp_path, capsys):
        config = settings(sampling_budget=40)
        jobs = compile_fig5_jobs("edge", config, ("random", "cma", "digamma"))
        store = ResultStore(tmp_path / "sweep.jsonl")
        SweepRunner(jobs[:1], settings=config, store=store).run()
        store.append_failure(
            jobs[1],
            {"job_id": jobs[1].job_id, "error": "RuntimeError: boom",
             "traceback": "...", "attempt": 1, "elapsed": 0.1},
            quarantined=False,
        )
        store.append_failure(
            jobs[2],
            {"job_id": jobs[2].job_id,
             "error": "SearchInterrupted: at boundary 3",
             "attempt": 1, "elapsed": 0.1},
            status="interrupted",
        )
        capsys.readouterr()
        assert repro_main(["experiments", "--status", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert "3 job(s)" in out
        assert "1 ok" in out and "1 failed" in out
        assert "0 quarantined" in out and "1 interrupted" in out
        assert "--resume" in out
        assert jobs[1].job_id in out and jobs[2].job_id in out
        assert jobs[0].job_id not in out.split("resumable", 1)[1]

    def test_append_failure_rejects_unknown_status(self, tmp_path):
        jobs = compile_fig5_jobs(
            "edge", settings(sampling_budget=40), ("random",)
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        failure = {"job_id": jobs[0].job_id, "error": "x", "attempt": 1,
                   "elapsed": 0.0}
        with pytest.raises(ValueError, match="status"):
            store.append_failure(jobs[0], failure, status="ok")
        with pytest.raises(ValueError, match="status"):
            store.append_failure(jobs[0], failure, status="paused")


def test_settings_validate_checkpoint_every():
    with pytest.raises(ValueError, match="checkpoint_every"):
        settings(checkpoint_every=0)

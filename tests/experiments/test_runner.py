"""Tests of the unified experiment runner (jobs, store, resume, shard)."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.fig5 import compile_fig5_jobs, run_fig5
from repro.experiments.fig6 import compile_fig6_jobs
from repro.experiments.jobs import (
    JobSpec,
    build_optimizer,
    compile_grid,
    job_from_dict,
    job_to_dict,
)
from repro.experiments.runner import (
    ResultStore,
    ResultStoreCorruption,
    SweepRunner,
    full_outcomes,
    main as runner_main,
    parse_shard,
    select_shard,
)
from repro.experiments.settings import ExperimentSettings

TINY = ExperimentSettings(models=("ncf",), sampling_budget=40, seed=0)
TINY_OPTIMIZERS = ("random", "digamma")


class TestJobSpec:
    def test_job_ids_unique_across_grid(self):
        jobs = compile_grid(
            models=("ncf", "dlrm"),
            platforms=("edge", "cloud"),
            optimizers=("random", "digamma"),
            sampling_budget=40,
            seeds=(0, 1),
        )
        ids = [spec.job_id for spec in jobs]
        assert len(jobs) == 2 * 2 * 2 * 2
        assert len(set(ids)) == len(ids)

    def test_job_id_stable_under_option_ordering(self):
        first = JobSpec(
            model="ncf", platform="edge", optimizer="digamma", sampling_budget=10,
            optimizer_options={"use_hw_operators": False, "seeded_fraction": 0.25},
        )
        second = JobSpec(
            model="ncf", platform="edge", optimizer="digamma", sampling_budget=10,
            optimizer_options={"seeded_fraction": 0.25, "use_hw_operators": False},
        )
        assert first == second
        assert first.job_id == second.job_id

    def test_job_round_trip(self):
        spec = JobSpec(
            model="resnet18", platform="cloud", optimizer="gamma",
            sampling_budget=25, seed=3, objective="edp",
            fixed_hw_style="Compute-focused", scheme="Compute-focused+Gamma",
        )
        rebuilt = job_from_dict(job_to_dict(spec))
        assert rebuilt == spec
        assert rebuilt.job_id == spec.job_id

    def test_build_optimizer_grid_and_options(self):
        grid_spec = JobSpec(
            model="ncf", platform="edge", optimizer="grid",
            optimizer_options={"dataflow": "shi"}, sampling_budget=10,
        )
        assert build_optimizer(grid_spec).name == "Grid-S+shi-like"
        digamma_spec = JobSpec(
            model="ncf", platform="edge", optimizer="digamma",
            optimizer_options={"use_hw_operators": False}, sampling_budget=10,
        )
        assert build_optimizer(digamma_spec).use_hw_operators is False

    def test_scheme_label_defaults_to_optimizer_name(self):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="cma", sampling_budget=10
        )
        assert spec.scheme_label == "CMA"


class TestResultStore:
    def test_append_and_load(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        assert store.completed_ids() == {jobs[0].job_id}
        loaded = store.load_results()[jobs[0].job_id]
        assert loaded.evaluations == TINY.sampling_budget
        assert store.load_jobs()[jobs[0].job_id] == jobs[0]

    def test_malformed_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = ResultStore(path)
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        with path.open("a") as handle:
            handle.write('{"job_id": "killed-mid-wr')  # no newline, no close
        with pytest.warns(ResultStoreCorruption):
            assert len(store.records()) == 1
        with pytest.warns(ResultStoreCorruption):
            assert store.completed_ids() == {jobs[0].job_id}

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.records() == []
        assert store.completed_ids() == set()

    def test_corrupt_lines_are_counted_and_quarantined(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            '{"job_id": "a", "spec": {}, "result": 1}\n'
            "не-json мусор\n"
            '{"job_id": "b", "spec": {}, "result": 2}\n'
            '{"job_id": "truncated", "sp'
        )
        store = ResultStore(path)
        with pytest.warns(ResultStoreCorruption, match="2 undecodable"):
            records = store.records()
        assert [record["job_id"] for record in records] == ["a", "b"]
        assert store.skipped_lines == 2
        quarantined = store.corrupt_path.read_text().splitlines()
        assert quarantined == ["не-json мусор", '{"job_id": "truncated", "sp']
        # Re-reading the same damaged store does not duplicate quarantines.
        with pytest.warns(ResultStoreCorruption):
            store.records()
        assert store.corrupt_path.read_text().splitlines() == quarantined

    def test_append_heals_a_partial_trailing_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = ResultStore(path)
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        with path.open("a") as handle:
            handle.write('{"half": ')  # a writer died mid-record
        # The next append must not glue onto the partial line — one crash
        # may never corrupt a second record.
        SweepRunner(jobs, settings=ExperimentSettings(
            models=("ncf",), sampling_budget=40, seed=1
        ), store=store).run()
        with pytest.warns(ResultStoreCorruption):
            assert len(store.records()) == 2
        assert store.skipped_lines == 1

    def test_verify_and_repair(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = ResultStore(path)
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        good_line = path.read_text()
        path.write_text(good_line + '{"cut-off-mid-wri')
        report = store.verify()
        assert not report["ok"]
        assert report["records"] == 1
        assert report["corrupt_lines"] == 1
        assert report["corrupt_line_numbers"] == [2]
        assert report["jobs"] == {
            "ok": 1, "failed": 0, "quarantined": 0, "interrupted": 0,
        }

        repair_report = store.repair()
        assert repair_report["removed_lines"] == 1
        # Good lines survive byte-for-byte; the bad one is quarantined.
        assert path.read_text() == good_line
        assert '{"cut-off-mid-wri' in store.corrupt_path.read_text()
        clean = store.verify()
        assert clean["ok"] and clean["corrupt_lines"] == 0
        # Repairing a clean store is a no-op.
        assert store.repair()["removed_lines"] == 0
        assert path.read_text() == good_line

    def test_non_utf8_line_is_corrupt_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        first = b'{"job_id": "a", "result": 1, "spec": {}}\n'
        second = '{"job_id": "b", "result": "é", "spec": {}}\n'.encode()
        damaged = b"\xff\xfe garbage"
        path.write_bytes(first + damaged + b"\n" + second)
        store = ResultStore(path)

        report = store.verify()
        assert report["records"] == 2
        assert report["corrupt_line_numbers"] == [2]
        assert repro_main(["experiments", "--verify-store", str(path)]) == 1
        assert "1 corrupt line(s) at line 2" in capsys.readouterr().out
        with pytest.warns(ResultStoreCorruption, match="1 undecodable"):
            records = store.records()
        assert [record["job_id"] for record in records] == ["a", "b"]

        assert store.repair()["removed_lines"] == 1
        # Good lines survive byte for byte; the damaged one is quarantined
        # as the bytes it was, once.
        assert path.read_bytes() == first + second
        assert store.corrupt_path.read_bytes() == damaged + b"\n"
        assert store.verify()["ok"]

    def test_failure_records_change_status_not_completed_ids(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        spec = jobs[0]
        failure = {"job_id": spec.job_id, "error": "RuntimeError: x",
                   "traceback": "...", "attempt": 1, "elapsed": 0.5}
        store.append_failure(spec, failure, quarantined=False)
        assert store.statuses() == {spec.job_id: "failed"}
        assert store.completed_ids() == set()
        assert store.load_results() == {}
        store.append_failure(spec, {**failure, "attempt": 2}, quarantined=True)
        assert store.statuses() == {spec.job_id: "quarantined"}
        # A later success wins (the job was re-run after manual triage).
        SweepRunner(jobs, settings=TINY, store=store).run()
        assert store.statuses() == {spec.job_id: "ok"}
        assert store.completed_ids() == {spec.job_id}
        report = store.verify()
        assert report["failure_records"] == 2
        assert report["jobs"] == {
            "ok": 1, "failed": 0, "quarantined": 0, "interrupted": 0,
        }

    def test_fsync_durability_mode(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl", durability="fsync")
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        assert store.completed_ids() == {jobs[0].job_id}
        with pytest.raises(ValueError, match="durability"):
            ResultStore(tmp_path / "x.jsonl", durability="paranoid")


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)
        for bad in ("0/4", "5/4", "4", "a/b", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_parse_shard_errors_name_the_offence(self):
        with pytest.raises(ValueError, match=r"no '/'"):
            parse_shard("4")
        with pytest.raises(ValueError, match=r"integer i and N.*'a/b'"):
            parse_shard("a/b")
        with pytest.raises(ValueError, match=r"N must be >= 1.*'1/0'"):
            parse_shard("1/0")
        with pytest.raises(ValueError, match=r"1-based.*i=0.*N=4"):
            parse_shard("0/4")
        with pytest.raises(ValueError, match=r"i=5.*N=4"):
            parse_shard("5/4")

    def test_shards_partition_the_job_list(self):
        jobs = compile_grid(
            models=("ncf", "dlrm", "resnet18"),
            platforms=("edge",),
            optimizers=("random", "digamma", "cma"),
            sampling_budget=10,
        )
        shards = [select_shard(jobs, index, 4) for index in (1, 2, 3, 4)]
        collected = [spec for shard in shards for spec in shard]
        assert sorted(s.job_id for s in collected) == sorted(s.job_id for s in jobs)
        assert sum(len(shard) for shard in shards) == len(jobs)

    def test_sharded_runners_complete_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, TINY_OPTIMIZERS)
        for index in (1, 2):
            SweepRunner(
                jobs, settings=TINY, store=store, shard=(index, 2)
            ).run()
        assert store.completed_ids() == {spec.job_id for spec in jobs}
        merged = full_outcomes(jobs, [], store)
        assert merged is not None
        assert [spec.job_id for spec, _ in merged] == [spec.job_id for spec in jobs]


class TestResume:
    def test_resume_runs_only_missing_jobs(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, TINY_OPTIMIZERS)
        # Simulate a sweep killed after the first job.
        SweepRunner(jobs[:1], settings=TINY, store=store).run()
        assert len(store.records()) == 1

        progress = []
        SweepRunner(
            jobs, settings=TINY, store=store, resume=True,
            progress=progress.append,
        ).run()
        # Only the missing job was appended; the first was skipped.
        assert len(store.records()) == len(jobs)
        assert any("skip (stored)" in line for line in progress)

    def test_resumed_tables_are_byte_identical(self, tmp_path):
        baseline = run_fig5("edge", TINY, TINY_OPTIMIZERS).report()

        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, TINY_OPTIMIZERS)
        SweepRunner(jobs[:1], settings=TINY, store=store).run()  # "killed" sweep
        resumed = run_fig5(
            "edge", TINY, TINY_OPTIMIZERS, store=store, resume=True
        ).report()
        assert resumed == baseline
        # A second resume serves everything from the store, still identical.
        reloaded = run_fig5(
            "edge", TINY, TINY_OPTIMIZERS, store=store, resume=True
        ).report()
        assert reloaded == baseline
        assert len(store.records()) == len(jobs)

    def test_duplicate_job_ids_run_once_and_share_the_result(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        relabeled = [
            JobSpec(**{**job_to_dict(spec), "scheme": "Random (again)"})
            for spec in jobs
        ]
        outcomes = SweepRunner(jobs + relabeled, settings=TINY, store=store).run()
        # Same job_id (the scheme label is presentation-only): one execution,
        # one store record, the result returned under both labels.
        assert len(outcomes) == 2
        assert len(store.records()) == 1
        assert outcomes[0][1] is outcomes[1][1]
        assert outcomes[1][0].scheme_label == "Random (again)"


class TestFig6Jobs:
    def test_compile_covers_all_schemes(self):
        jobs = compile_fig6_jobs("edge", TINY)
        labels = {spec.scheme_label for spec in jobs}
        assert len(jobs) == 7
        assert sum("Grid-S" in label for label in labels) == 3
        assert sum("+Gamma" in label for label in labels) == 3
        assert "DiGamma" in labels
        gamma_jobs = [spec for spec in jobs if spec.optimizer == "gamma"]
        assert all(spec.fixed_hw_style is not None for spec in gamma_jobs)


class TestExperimentsCLI:
    def test_smoke_sweep(self, tmp_path, capsys):
        store_path = tmp_path / "smoke.jsonl"
        exit_code = repro_main(
            ["experiments", "--smoke", "--quiet", "--store", str(store_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert store_path.exists()
        records = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 3  # ncf x (random, cma, digamma)
        assert all(record["result"]["evaluations"] == 40 for record in records)

    def test_shard_requires_store(self):
        with pytest.raises(SystemExit):
            repro_main(["experiments", "--smoke", "--shard", "1/2"])

    def test_verify_store_flags_corruption(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.jsonl"
        store = ResultStore(store_path)
        jobs = compile_fig5_jobs("edge", TINY, ("random",))
        SweepRunner(jobs, settings=TINY, store=store).run()
        assert repro_main(
            ["experiments", "--verify-store", str(store_path)]
        ) == 0
        assert "0 corrupt line(s)" in capsys.readouterr().out

        with store_path.open("a") as handle:
            handle.write('{"half-written')
        assert repro_main(
            ["experiments", "--verify-store", str(store_path)]
        ) == 1
        assert "1 corrupt line(s) at line 2" in capsys.readouterr().out

        # --repair-store cleans it; combined with --verify-store the exit
        # code reflects the post-repair state.
        assert repro_main([
            "experiments",
            "--repair-store", str(store_path),
            "--verify-store", str(store_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt line(s) removed" in out
        assert store.corrupt_path.exists()

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            repro_main(["experiments", "--smoke", "--resume"])

    def test_overlapping_suites_share_one_search(self, tmp_path, capsys):
        # The operator ablation's plain DiGamma and the buffer ablation's
        # "exact" variant are the same search; the sweep runs it once.
        store_path = tmp_path / "ablations.jsonl"
        exit_code = repro_main([
            "experiments", "--suite", "ablations", "--models", "ncf",
            "--budget", "25", "--quiet", "--store", str(store_path),
        ])
        assert exit_code == 0
        ids = [
            json.loads(line)["job_id"]
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(ids) == len(set(ids)) == 5  # 4 operator variants + "fill"
        out = capsys.readouterr().out
        assert "Ablation A1" in out
        assert "Ablation A2" in out


class TestEngineSelection:
    def test_engine_round_trips_through_job_id_and_serialization(self):
        for engine in ("vector", "fast", "reference"):
            spec = JobSpec(
                model="ncf", platform="edge", optimizer="random",
                sampling_budget=30, engine=engine,
            )
            assert f"engine={engine}" in spec.job_id
            assert job_from_dict(job_to_dict(spec)) == spec
        default = JobSpec(
            model="ncf", platform="edge", optimizer="random", sampling_budget=30
        )
        assert "engine" not in default.job_id
        assert job_from_dict(job_to_dict(default)) == default
        assert default.engine is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(
                model="ncf", platform="edge", optimizer="random",
                sampling_budget=30, engine="warp",
            )

    def test_specs_with_different_engines_never_share_a_framework(self):
        fast = JobSpec(
            model="ncf", platform="edge", optimizer="random",
            sampling_budget=30, engine="fast",
        )
        vector = JobSpec(
            model="ncf", platform="edge", optimizer="random",
            sampling_budget=30, engine="vector",
        )
        assert fast.framework_key != vector.framework_key

    @pytest.mark.parametrize("engine", ["vector", "fast", "reference"])
    def test_each_engine_runs_a_smoke_search_end_to_end(self, engine):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="digamma",
            sampling_budget=40, engine=engine,
        )
        outcomes = SweepRunner([spec], settings=TINY).run()
        assert len(outcomes) == 1
        result = outcomes[0][1]
        assert result.evaluations == 40
        assert result.best is not None

    def test_engines_agree_on_the_search_outcome(self):
        fitnesses = set()
        for engine in ("vector", "fast", "reference"):
            spec = JobSpec(
                model="ncf", platform="edge", optimizer="digamma",
                sampling_budget=40, engine=engine,
            )
            result = SweepRunner([spec], settings=TINY).run()[0][1]
            fitnesses.add(result.best.fitness)
        assert len(fitnesses) == 1

    def test_settings_engine_flows_into_unpinned_jobs(self, capsys):
        # --engine reference must actually run the reference engine; the
        # smoke budget keeps it cheap.  An identical outcome to the default
        # engine is the bit-identity contract.
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="random", sampling_budget=30
        )
        reference = SweepRunner(
            [spec],
            settings=ExperimentSettings(sampling_budget=30, engine="reference"),
        ).run()[0][1]
        vector = SweepRunner([spec], settings=TINY).run()[0][1]
        assert reference.best.fitness == vector.best.fitness


class TestBackendSelection:
    """The cost-backend seam through specs, settings and the runner."""

    def test_backend_round_trips_through_job_id_and_serialization(self):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="random",
            sampling_budget=30, backend="zigzag",
        )
        assert "backend=zigzag" in spec.job_id
        assert job_from_dict(job_to_dict(spec)) == spec
        default = JobSpec(
            model="ncf", platform="edge", optimizer="random", sampling_budget=30
        )
        assert "backend" not in default.job_id
        assert default.backend is None
        assert job_from_dict(job_to_dict(default)) == default

    def test_unknown_backend_rejected_naming_choices(self):
        with pytest.raises(ValueError, match="analytic"):
            JobSpec(
                model="ncf", platform="edge", optimizer="random",
                sampling_budget=30, backend="timeloop",
            )
        with pytest.raises(ValueError, match="zigzag"):
            ExperimentSettings(backend="timeloop")

    def test_specs_with_different_backends_never_share_anything(self):
        analytic = JobSpec(
            model="ncf", platform="edge", optimizer="random",
            sampling_budget=30, backend="analytic",
        )
        zigzag = JobSpec(
            model="ncf", platform="edge", optimizer="random",
            sampling_budget=30, backend="zigzag",
        )
        assert analytic.job_id != zigzag.job_id
        assert analytic.framework_key != zigzag.framework_key

    def test_runner_pins_non_default_settings_backend_into_job_ids(self):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="random", sampling_budget=30
        )
        runner = SweepRunner(
            [spec],
            settings=ExperimentSettings(
                models=("ncf",), sampling_budget=30, backend="zigzag"
            ),
        )
        assert runner.jobs[0].backend == "zigzag"
        assert "backend=zigzag" in runner.jobs[0].job_id
        # The default backend stays implicit, so existing store ids keep
        # resolving.
        assert SweepRunner([spec], settings=TINY).jobs[0].backend is None

    def test_zigzag_smoke_search_end_to_end(self):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="digamma",
            sampling_budget=40, backend="zigzag",
        )
        outcomes = SweepRunner([spec], settings=TINY).run()
        assert len(outcomes) == 1
        result = outcomes[0][1]
        assert result.evaluations == 40
        assert result.best is not None

    def test_backends_disagree_on_cost_but_both_search(self):
        # Unlike engines, backends compute different costs: the searches
        # complete on both, and (on this seeded sample) find different
        # fitness values — proof the selector actually switches models.
        fitnesses = {}
        for backend in ("analytic", "zigzag"):
            spec = JobSpec(
                model="ncf", platform="edge", optimizer="random",
                sampling_budget=40, backend=backend,
            )
            fitnesses[backend] = (
                SweepRunner([spec], settings=TINY).run()[0][1].best.fitness
            )
        assert fitnesses["analytic"] != fitnesses["zigzag"]

    def test_search_cli_runs_the_zigzag_backend(self, capsys):
        code = repro_main(
            [
                "search", "--model", "ncf", "--optimizer", "random",
                "--budget", "30", "--backend", "zigzag",
            ]
        )
        assert code == 0
        assert "Hardware" in capsys.readouterr().out

    def test_sweep_cli_renders_tables_under_a_pinned_backend(
        self, tmp_path, capsys
    ):
        # Table rendering matches outcomes to independently compiled suite
        # specs by job_id; the sweep backend must be pinned into both
        # sides' ids or every lookup misses and no table renders.
        code = runner_main(
            [
                "--smoke", "--quiet", "--backend", "zigzag",
                "--store", str(tmp_path / "zz.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "jobs done in this shard" not in out
        assert "Fig. 5" in out


class TestCacheReuseAcrossJobs:
    def test_cache_statistics_are_recorded_per_search(self, tmp_path):
        # The LRUs serve per-design pricing, so (1+1)-ES carries the
        # design/layer counters; DiGamma's gene-matrix search carries the
        # vector-engine section.
        specs = [
            JobSpec(model="ncf", platform="edge", optimizer=optimizer,
                    sampling_budget=40)
            for optimizer in ("(1+1)-es", "digamma")
        ]
        store = ResultStore(tmp_path / "stats.jsonl")
        SweepRunner(specs, settings=TINY, store=store).run()
        per_design, matrix = store.records()
        for cache_name in ("design", "layer"):
            stats = per_design["cache"][cache_name]
            assert set(stats) == {"hits", "misses", "hit_rate"}
            assert stats["hits"] >= 0 and stats["misses"] > 0
        assert {"design", "layer", "vector"} <= set(matrix["cache"])
        for record in (per_design, matrix):
            assert "delta" not in record["cache"]
        # Cache-annotated stores stay resumable.
        resumed = SweepRunner(
            specs, settings=TINY, store=store, resume=True
        ).run()
        assert [outcome[1].evaluations for outcome in resumed] == [40, 40]

    def test_progress_lines_surface_cache_hit_rates(self):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="random", sampling_budget=30
        )
        lines = []
        SweepRunner([spec], settings=TINY, progress=lines.append).run()
        assert "design cache" in lines[0]
        assert "layer cache" in lines[0]

    def test_persistent_tier_spans_runs_and_is_recorded(self, tmp_path):
        spec = JobSpec(
            model="ncf", platform="edge", optimizer="(1+1)-es", sampling_budget=40
        )
        settings = ExperimentSettings(
            models=("ncf",),
            sampling_budget=40,
            seed=0,
            cache_dir=str(tmp_path / "l2"),
        )

        cold_store = ResultStore(tmp_path / "cold.jsonl")
        SweepRunner([spec], settings=settings, store=cold_store).run()
        cold = cold_store.records()[0]["cache"]["l2"]
        assert cold["writes"] > 0 and cold["hits"] == 0

        # A brand-new runner (fresh process semantics) over the same
        # directory must answer every layer pricing from disk and land on
        # identical results — the store records prove it counter-wise.
        warm_store = ResultStore(tmp_path / "warm.jsonl")
        SweepRunner([spec], settings=settings, store=warm_store).run()
        warm = warm_store.records()[0]["cache"]["l2"]
        assert warm["hit_rate"] >= 0.9 and warm["writes"] == 0
        cold_result = cold_store.records()[0]["result"]
        warm_result = warm_store.records()[0]["result"]
        cold_result.pop("wall_time_seconds")
        warm_result.pop("wall_time_seconds")
        assert warm_result == cold_result

    def test_cache_dir_threads_from_cli_args(self, tmp_path):
        import argparse

        from repro.experiments.runner import (
            add_sweep_arguments,
            settings_from_args,
        )

        parser = argparse.ArgumentParser()
        add_sweep_arguments(parser)
        args = parser.parse_args(["--cache-dir", str(tmp_path / "l2")])
        settings = settings_from_args(args, models=("ncf",))
        assert settings.cache_dir == str(tmp_path / "l2")
        assert settings.framework_options()["cache_dir"] == str(tmp_path / "l2")
        # And stays out of job identities: the spec grid is cache-blind.
        assert parser.parse_args([]).cache_dir is None

    def test_reference_jobs_do_not_join_cache_sharing(self):
        jobs = [
            JobSpec(model="ncf", platform="edge", optimizer="random",
                    sampling_budget=30, engine="reference", objective="latency"),
            JobSpec(model="ncf", platform="edge", optimizer="random",
                    sampling_budget=30, engine="reference", objective="energy"),
        ]
        outcomes = SweepRunner(jobs, settings=TINY).run()
        assert len(outcomes) == 2  # runs cleanly, nothing shared

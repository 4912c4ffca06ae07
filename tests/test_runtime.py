"""Batch runtime: plans, parallel execution, run stores, batch sessions."""

import json

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    config_hash,
    get_substrate,
    result_stem,
    run_experiment,
)
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.runtime import JobSpec, ParallelExecutor, Plan, RunStore

FAST_E9 = {"n_inputs": 32, "n_outputs": 16, "n_iterations": 8, "n_trials": 1}
# keep_probability=1.5 type-checks (float) but fails inside the job, so it
# exercises the runtime's failure capture rather than plan validation.
BROKEN_E9 = {**FAST_E9, "keep_probability": 1.5}


def make_model(seed: int = 3) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(6, 8, rng),
            ReLU(),
            Dropout(0.5, rng=np.random.default_rng(11)),
            Dense(8, 2, rng),
        ]
    )


class TestPlan:
    def test_grid_compiles_in_order(self):
        plan = Plan.compile(
            "E3", substrates=["digital", "cim"], seeds=[0, 1]
        )
        assert len(plan) == 4
        cells = [(job.substrate, job.seed) for job in plan]
        assert cells == [("digital", 0), ("digital", 1), ("cim", 0), ("cim", 1)]
        assert [job.index for job in plan] == [0, 1, 2, 3]

    def test_default_seed_resolved_from_config(self):
        # E3's config default seed is 7; the plan makes it explicit.
        plan = Plan.compile("E3")
        assert plan[0].seed == 7
        assert plan[0].job_id == "E3-seed7"

    def test_job_id_carries_config_hash(self):
        plain = Plan.compile("E9", seeds=[1])[0]
        tweaked = Plan.compile("E9", seeds=[1], overrides=FAST_E9)[0]
        assert plain.job_id == "E9-seed1"
        assert tweaked.job_id == f"E9-seed1-cfg{config_hash(FAST_E9)}"
        assert plain.job_id != tweaked.job_id

    def test_unknown_experiment_rejected_at_compile(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            Plan.compile("E99")

    def test_unsupported_substrate_rejected_at_compile(self):
        with pytest.raises(ValueError, match="does not support"):
            Plan.compile("E9", substrates=["cim"])

    def test_bad_override_field_rejected_at_compile(self):
        with pytest.raises(ValueError, match="unknown config field"):
            Plan.compile("E9", overrides={"nonsense": 1})

    def test_jsonable_round_trip(self):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        back = Plan.from_jsonable(json.loads(json.dumps(plan.to_jsonable())))
        assert [job.job_id for job in back] == [job.job_id for job in plan]
        assert back[1].overrides == plan[1].overrides

    def test_reloaded_job_keeps_its_id_when_overrides_no_longer_decode(
        self, tmp_path
    ):
        # A store written before a config field was renamed: the reloaded
        # plan and records keep the ids they were stored under instead of
        # decoding the stale override.
        plan = Plan.compile("E9", seeds=[0], overrides=FAST_E9)
        ParallelExecutor(workers=1).execute(plan, store=tmp_path / "run")
        for name in ("manifest.json", "results.jsonl"):
            path = tmp_path / "run" / name
            path.write_text(
                path.read_text().replace('"n_trials"', '"n_trials_renamed"')
            )
        loaded = RunStore.load(tmp_path / "run")
        assert [job.job_id for job in loaded.plan] == [plan[0].job_id]
        assert [record.job.job_id for record in loaded.records()] == [
            plan[0].job_id
        ]
        assert "n_trials_renamed" in loaded.plan[0].overrides
        with pytest.raises(ValueError, match="unknown config field"):
            JobSpec(0, "E9", overrides=dict(loaded.plan[0].overrides))


class TestExecutor:
    def test_parallel_matches_serial_bit_for_bit(self):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        serial = ParallelExecutor(workers=1).execute(plan)
        parallel = ParallelExecutor(workers=4).execute(plan)
        assert serial.n_ok == parallel.n_ok == 2
        for a, b in zip(serial.records, parallel.records):
            assert a.job.job_id == b.job.job_id
            assert a.result.to_dict()["metrics"] == b.result.to_dict()["metrics"]

    def test_failing_job_does_not_abort_grid(self):
        plan = Plan(
            jobs=(
                JobSpec(0, "E9", seed=0, overrides=dict(BROKEN_E9)),
                JobSpec(1, "E9", seed=0, overrides=dict(FAST_E9)),
                JobSpec(2, "E9", seed=1, overrides=dict(FAST_E9)),
            )
        )
        report = ParallelExecutor(workers=1).execute(plan)
        assert report.n_failed == 1 and report.n_ok == 2
        assert "keep_probability" in report.errors[0].error
        assert [record.job.index for record in report.records] == [0, 1, 2]

    def test_failing_job_captured_in_parallel_too(self):
        plan = Plan(
            jobs=(
                JobSpec(0, "E9", seed=0, overrides=dict(BROKEN_E9)),
                JobSpec(1, "E9", seed=1, overrides=dict(FAST_E9)),
            )
        )
        report = ParallelExecutor(workers=2).execute(plan)
        assert report.n_failed == 1 and report.n_ok == 1
        assert not report.records[0].ok
        assert report.records[1].ok

    def test_report_summary(self):
        plan = Plan.compile("E9", overrides=FAST_E9)
        report = ParallelExecutor(workers=1).execute(plan)
        summary = report.summary()
        assert summary["n_jobs"] == 1
        assert summary["n_failed"] == 0
        assert summary["wall_time_s"] > 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=0)


class TestRunStore:
    def test_execute_into_store_and_load(self, tmp_path):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        store = RunStore.create(tmp_path / "run", plan=plan, command="test")
        report = ParallelExecutor(workers=1).execute(plan, store=store)

        loaded = RunStore.load(tmp_path / "run")
        assert loaded.manifest["status"] == "complete"
        assert loaded.manifest["command"] == "test"
        assert loaded.manifest["n_jobs"] == 2
        assert len(loaded.results()) == 2
        for stored, live in zip(loaded.records(), report.records):
            assert stored.job.job_id == live.job.job_id
            assert stored.result.metrics == live.result.to_dict()["metrics"]
        restored_plan = loaded.plan
        assert [job.job_id for job in restored_plan] == [
            job.job_id for job in plan
        ]

    def test_store_keeps_error_rows_and_partial_status(self, tmp_path):
        plan = Plan(
            jobs=(
                JobSpec(0, "E9", seed=0, overrides=dict(BROKEN_E9)),
                JobSpec(1, "E9", seed=0, overrides=dict(FAST_E9)),
            )
        )
        ParallelExecutor(workers=1).execute(plan, store=tmp_path / "run")
        loaded = RunStore.load(tmp_path / "run")
        assert loaded.manifest["status"] == "partial"
        assert len(loaded.errors()) == 1
        assert "keep_probability" in loaded.errors()[0].error
        assert len(loaded.results()) == 1

    def test_records_come_back_in_plan_order(self, tmp_path):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        report = ParallelExecutor(workers=1).execute(plan)
        store = RunStore.create(tmp_path / "run", plan=plan)
        for record in reversed(report.records):
            store.append(record)
        loaded = RunStore.load(tmp_path / "run")
        assert [record.job.index for record in loaded] == [0, 1]
        assert [record.job.seed for record in loaded.records()] == [0, 1]

    def test_create_refuses_existing_store(self, tmp_path):
        RunStore.create(tmp_path / "run")
        with pytest.raises(FileExistsError, match="already exists"):
            RunStore.create(tmp_path / "run")

    def test_load_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            RunStore.load(tmp_path / "nope")

    def _store_with_truncated_tail(self, tmp_path):
        """A complete 2-record store whose writer died mid-third-line."""
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        ParallelExecutor(workers=1).execute(plan, store=tmp_path / "run")
        results = tmp_path / "run" / "results.jsonl"
        with results.open("a") as handle:
            handle.write('{"job": {"index": 2, "experiment_id": "E9", "se')
        return tmp_path / "run"

    def test_load_skips_truncated_trailing_line(self, tmp_path):
        path = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning, match="truncated trailing line"):
            loaded = RunStore.load(path)
        assert len(loaded.records()) == 2
        assert len(loaded.results()) == 2
        assert {record.job.experiment_id for record in loaded} == {"E9"}

    def test_load_strict_raises_on_truncated_tail(self, tmp_path):
        path = self._store_with_truncated_tail(tmp_path)
        with pytest.raises(json.JSONDecodeError):
            RunStore.load(path, strict=True)

    def test_load_raises_on_corrupt_middle_line(self, tmp_path):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        ParallelExecutor(workers=1).execute(plan, store=tmp_path / "run")
        results = tmp_path / "run" / "results.jsonl"
        lines = results.read_text().splitlines()
        lines[0] = lines[0][:40]  # corruption *before* the tail
        results.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            RunStore.load(results.parent)


class TestExecutorThroughRegistry:
    def test_executor_keeps_serial_contract(self):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=FAST_E9)
        results = ParallelExecutor(workers=1).execute(plan).results
        assert [result.seed for result in results] == [0, 1]
        direct = run_experiment("E9", seed=0, overrides=FAST_E9)
        assert results[0].metrics == direct.metrics

    def test_failing_grid_still_fills_store(self, tmp_path):
        plan = Plan.compile("E9", seeds=[0, 1], overrides=BROKEN_E9)
        store = tmp_path / "run"
        report = ParallelExecutor(workers=1).execute(plan, store=store)
        assert report.n_failed == 2
        loaded = RunStore.load(store)
        assert len(loaded.records()) == 2  # both cells ran and were recorded


class TestFilenameCollisions:
    """Satellite: different --set overrides must not overwrite each other."""

    def test_distinct_overrides_distinct_files(self, tmp_path):
        small = dict(FAST_E9)
        smaller = {**FAST_E9, "n_iterations": 4}
        run_experiment("E9", seed=1, overrides=small, out_dir=tmp_path)
        run_experiment("E9", seed=1, overrides=smaller, out_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("E9-seed1-cfg*.json"))
        assert len(files) == 2
        payloads = [json.loads((tmp_path / f).read_text()) for f in files]
        iterations = sorted(p["config"]["n_iterations"] for p in payloads)
        assert iterations == [4, 8]

    def test_no_overrides_keeps_historical_name(self, tmp_path):
        run_experiment("E9", seed=1, overrides=FAST_E9, out_dir=tmp_path)
        run_experiment("E1", seed=0, out_dir=tmp_path)
        assert (tmp_path / "E1-seed0.json").exists()

    def test_result_stem_shape(self):
        assert result_stem("E3", "cim", 1) == "E3-cim-seed1"
        hashed = result_stem("E3", "cim", 1, {"n_steps": 5})
        assert hashed.startswith("E3-cim-seed1-cfg")
        assert hashed != result_stem("E3", "cim", 1, {"n_steps": 6})

    def test_spellings_of_one_config_share_a_stem_and_job_id(self):
        # The digest covers the decoded values, not the --set text.
        half = result_stem("E9", None, 1, {"keep_probability": "0.5"})
        assert half == result_stem("E9", None, 1, {"keep_probability": ".5"})
        assert half == result_stem("E9", None, 1, {"keep_probability": 0.5})
        assert half != result_stem("E9", None, 1, {"keep_probability": "0.4"})
        jobs = [
            Plan.compile("E9", seeds=[1], overrides={"keep_probability": text})[0]
            for text in ("0.5", ".5", "5e-1")
        ]
        assert {job.job_id for job in jobs} == {half}


class TestBatchSessions:
    """run_batch must equal a run() loop bit-for-bit, per item."""

    @pytest.fixture(scope="class")
    def items(self):
        rng = np.random.default_rng(4)
        return [rng.normal(size=(3, 6)) for _ in range(4)]

    @pytest.mark.parametrize("name", ["cim", "cim-reuse", "cim-ordered", "digital"])
    def test_run_batch_matches_run_loop(self, items, name):
        batch_session = get_substrate(name).mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        batch = batch_session.run_batch(items, rng=np.random.default_rng(9))

        loop_session = get_substrate(name).mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        base = np.random.default_rng(9)
        masks = loop_session.draw_masks(base)
        item_rngs = base.spawn(len(items))
        for index, (item, item_rng) in enumerate(zip(items, item_rngs)):
            expected = loop_session.run(item, rng=item_rng, masks=masks)
            got = batch[index]
            assert np.array_equal(expected.mean, got.mean)
            assert np.array_equal(expected.variance, got.variance)
            assert np.array_equal(expected.samples, got.samples)
            assert expected.ops_executed == got.ops_executed
            assert expected.energy_j == got.energy_j

    def test_batch_items_share_masks(self, items):
        session = get_substrate("cim-ordered").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        batch = session.run_batch(items, rng=np.random.default_rng(9))
        orders = [result.extras["mask_order"] for result in batch]
        for order in orders[1:]:
            assert np.array_equal(orders[0], order)

    def test_batch_level_accounting(self, items):
        session = get_substrate("cim").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        batch = session.run_batch(items, rng=np.random.default_rng(9))
        assert len(batch) == 4
        assert batch.extras["n_items"] == 4
        assert batch.mask_generation_energy_j > 0  # hardware RNG cost, paid once
        assert batch.total_energy_j > sum(r.energy_j for r in batch)

    def test_digital_batch_has_no_mask_generation_energy(self, items):
        session = get_substrate("digital").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        batch = session.run_batch(items, rng=np.random.default_rng(9))
        assert batch.mask_generation_energy_j == 0.0

    def test_pinned_masks_reproduce_single_runs(self, items):
        # Any cell of a batch is reproducible standalone with the same plan.
        session = get_substrate("cim").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        masks = session.draw_masks(np.random.default_rng(3))
        first = session.run(items[0], rng=np.random.default_rng(1), masks=masks)
        again = session.run(items[0], rng=np.random.default_rng(1), masks=masks)
        assert np.array_equal(first.samples, again.samples)

    def test_batch_result_json_round_trip(self, items):
        session = get_substrate("cim").mc_dropout_session(
            make_model(), n_iterations=4, rng=np.random.default_rng(5)
        )
        batch = session.run_batch(items[:2], rng=np.random.default_rng(9))
        back = BatchResult.from_json(batch.to_json())
        assert back.substrate == "cim"
        assert len(back) == 2
        assert np.array_equal(back[0].mean, batch[0].mean)
        assert back.mask_generation_energy_j == batch.mask_generation_energy_j
        assert back.extras["n_items"] == 2


class TestMaskStreamPinning:
    """Engine-level contract behind the session batch path."""

    def test_wrong_stream_count_rejected(self):
        from repro.core.cim_mc_dropout import CIMMCDropoutEngine

        engine = CIMMCDropoutEngine(
            make_model(), n_iterations=4, rng=np.random.default_rng(5)
        )
        with pytest.raises(ValueError, match="mask streams"):
            engine.predict(np.zeros((1, 6)), mask_streams=[])

    def test_wrong_order_rejected(self):
        from repro.core.cim_mc_dropout import CIMMCDropoutEngine

        engine = CIMMCDropoutEngine(
            make_model(), n_iterations=4, rng=np.random.default_rng(5)
        )
        streams = engine.draw_mask_streams(np.random.default_rng(1))
        with pytest.raises(ValueError, match="permutation"):
            engine.predict(
                np.zeros((1, 6)), mask_streams=streams, mask_order=[0, 0, 1, 2]
            )

    def test_iteration_count_mismatch_rejected(self):
        from repro.core.cim_mc_dropout import CIMMCDropoutEngine

        engine = CIMMCDropoutEngine(
            make_model(), n_iterations=4, rng=np.random.default_rng(5)
        )
        other = CIMMCDropoutEngine(
            make_model(), n_iterations=6, rng=np.random.default_rng(5)
        )
        streams = other.draw_mask_streams(np.random.default_rng(1))
        with pytest.raises(ValueError, match="iterations"):
            engine.predict(np.zeros((1, 6)), mask_streams=streams)

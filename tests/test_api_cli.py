"""CLI (`python -m repro`) and world-cache behaviour."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api.cli import main

FAST_E9 = [
    "--set", "n_inputs=32",
    "--set", "n_outputs=16",
    "--set", "n_iterations=8",
    "--set", "n_trials=1",
]


@dataclass(frozen=True)
class SeedOnlyConfig:
    """The one-field config of the raising probe experiments."""

    seed: int = 0


class TestListCommand:
    def test_list_plain(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("E1", "E4", "E9", "E11"):
            assert eid in out
        assert "cim-reuse" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = [entry["id"] for entry in payload["experiments"]]
        assert ids[0] == "E1" and "E9" in ids
        by_id = {entry["id"]: entry for entry in payload["experiments"]}
        assert "cim-reuse" in by_id["E3"]["substrates"]
        assert by_id["E9"]["substrates"] == []
        assert "digital" in payload["substrates"]


class TestRunCommand:
    def test_run_json_is_machine_readable(self, capsys):
        assert main(["run", "E9", "--json", "--seed", "0", *FAST_E9]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E9"
        assert payload["seed"] == 0
        assert "executed_fraction" in payload["metrics"]

    @pytest.mark.parametrize("eid", ["E9", "e9"])
    def test_run_plain_prints_metrics(self, eid, capsys):
        assert main(["run", eid, "--seed", "0", *FAST_E9]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "executed_fraction" in out

    def test_run_multiple_ids_json_list(self, capsys):
        assert main(["run", "E9", "E9", "--json", *FAST_E9]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2

    def test_unknown_experiment_fails_friendly(self, capsys):
        assert main(["run", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "E99" in err

    def test_unknown_substrate_fails_friendly(self, capsys):
        assert main(["run", "E3", "--substrate", "tpu"]) == 2
        assert "unknown substrate" in capsys.readouterr().err

    def test_substrate_on_plain_experiment_fails_friendly(self, capsys):
        assert main(["run", "E9", "--substrate", "cim"]) == 2
        assert "does not support" in capsys.readouterr().err

    def test_bad_set_pair_fails_friendly(self, capsys):
        assert main(["run", "E9", "--set", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_bad_set_value_fails_friendly(self, capsys):
        assert main(["run", "E9", "--set", "n_iterations=abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_iterations" in err

    def test_out_dir_writes_result(self, tmp_path, capsys):
        # Overridden runs get a config-hashed stem (collision fix); the
        # default-config name stays E9-seed1.json.
        assert main(["run", "E9", "--seed", "1", "--out", str(tmp_path), *FAST_E9]) == 0
        capsys.readouterr()
        files = list(tmp_path.glob("E9-seed1-cfg*.json"))
        assert len(files) == 1
        written = json.loads(files[0].read_text())
        assert written["experiment_id"] == "E9"

    def test_out_dir_distinct_overrides_do_not_collide(self, tmp_path, capsys):
        base = ["run", "E9", "--seed", "1", "--out", str(tmp_path)]
        assert main([*base, *FAST_E9]) == 0
        assert main([*base, *FAST_E9[:-2], "--set", "n_trials=2"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("E9-seed1-cfg*.json"))) == 2

    def test_failing_experiment_does_not_abort_batch(self, capsys):
        # A raising experiment must print its traceback, let the rest of
        # the batch run, and turn into a non-zero exit at the end.
        from repro.api.registry import _REGISTRY, experiment

        @experiment("ETEST-BOOM", title="always raises", config=SeedOnlyConfig)
        def boom(cfg):
            raise RuntimeError("kaboom from ETEST-BOOM")

        try:
            code = main(["run", "ETEST-BOOM", "E1", "--seed", "0"])
        finally:
            _REGISTRY.pop("ETEST-BOOM", None)
        assert code == 1
        captured = capsys.readouterr()
        assert "kaboom from ETEST-BOOM" in captured.err  # the traceback
        assert "Traceback" in captured.err
        assert "1 of 2 experiment(s) failed" in captured.err
        assert "E1" in captured.out  # E1 still ran

    def test_failing_experiment_json_still_prints_successes(self, capsys):
        from repro.api.registry import _REGISTRY, experiment

        @experiment("ETEST-BOOM2", title="always raises", config=SeedOnlyConfig)
        def boom(cfg):
            raise RuntimeError("kaboom")

        try:
            code = main(["run", "ETEST-BOOM2", "E1", "--json", "--seed", "0"])
        finally:
            _REGISTRY.pop("ETEST-BOOM2", None)
        assert code == 1
        # Two experiments were *requested*, so the shape stays a list
        # even though only one produced a result.
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["experiment_id"] == "E1"


class TestSweepCommand:
    def test_seed_sweep_json(self, capsys):
        assert main(["sweep", "E9", "--seeds", "0,1", "--json", *FAST_E9]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["seed"] for entry in payload] == [0, 1]
        assert all(entry["status"] == "ok" for entry in payload)
        assert all(entry["result"]["experiment_id"] == "E9" for entry in payload)

    def test_sweep_unknown_id_friendly(self, capsys):
        assert main(["sweep", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_bad_seeds_friendly(self, capsys):
        assert main(["sweep", "E9", "--seeds", "0,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_parallel_sweep_matches_serial(self, capsys):
        assert main(["sweep", "E9", "--seeds", "0,1", "--json", *FAST_E9]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(
                ["sweep", "E9", "--seeds", "0,1", "--workers", "2", "--json", *FAST_E9]
            )
            == 0
        )
        parallel = json.loads(capsys.readouterr().out)
        assert [e["result"]["metrics"] for e in serial] == [
            e["result"]["metrics"] for e in parallel
        ]

    def test_sweep_store_and_report(self, tmp_path, capsys):
        store = tmp_path / "run"
        assert (
            main(
                [
                    "sweep", "E9", "--seeds", "0,1", "--workers", "2",
                    "--store", str(store), *FAST_E9,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 ok" in out and str(store) in out
        assert (store / "manifest.json").exists()
        assert len((store / "results.jsonl").read_text().splitlines()) == 2

        assert main(["report", str(store)]) == 0
        report = capsys.readouterr().out
        assert "status=complete" in report and "E9-seed1" in report

        assert main(["report", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["n_ok"] == 2
        assert len(payload["records"]) == 2

    def test_sweep_failing_cell_exit_code_and_store(self, tmp_path, capsys):
        store = tmp_path / "run"
        code = main(
            [
                "sweep", "E9", "--seeds", "0,1", "--store", str(store),
                *FAST_E9[:-2], "--set", "keep_probability=1.5",
            ]
        )
        assert code == 1  # grid completed, but cells failed
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "2 failed" in out

    def test_sweep_existing_store_friendly(self, tmp_path, capsys):
        store = tmp_path / "run"
        args = ["sweep", "E9", "--store", str(store), *FAST_E9]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "already exists" in capsys.readouterr().err


class TestReportCommand:
    def test_missing_store_friendly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "manifest" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_runtime_and_engine_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_runtime.json"
        engine_out = tmp_path / "BENCH_engine.json"
        code = main(
            [
                "bench", "--ids", "E1", "--repeats", "1",
                "--out", str(out), "--engine-out", str(engine_out),
            ]
        )
        assert code in (0, 1)  # 1 only if the fast path times slower
        # A failing suite never writes its file.
        assert engine_out.exists() == (code == 0)
        text = capsys.readouterr().out
        assert "run_batch" in text
        assert "engine-predict-no-reuse" in text
        payload = json.loads(out.read_text())
        assert payload["benchmarks"][0]["experiment_id"] == "E1"
        assert payload["benchmarks"][0]["mean_s"] > 0
        assert payload["batch_session"]["batch_s"] > 0
        if code == 1:
            return
        engine_payload = json.loads(engine_out.read_text())
        reference = engine_payload["reference"]
        assert reference["case"] == "engine-predict-no-reuse"
        assert reference["reuse"] is False
        assert reference["loop_s"] > 0 and reference["fast_s"] > 0
        assert reference["max_abs_diff"] == 0.0  # fast == loop, bit-for-bit
        assert reference["parity_exact"] is True
        assert engine_payload["reuse"]["case"] == "engine-predict-reuse-refresh"
        assert engine_payload["reuse"]["parity_exact"] is True
        assert {c["case"] for c in engine_payload["cases"]} == {
            "engine-predict-no-reuse",
            "engine-predict-reuse-refresh",
            "macro-matvec_many",
        }

    def test_bench_fails_when_reuse_fast_path_diverges(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import bench

        [case] = [
            case
            for suite in bench.SUITES
            for case in suite.cases
            if case.key == "reuse"
        ]
        measure = case.measure

        def diverging(args):
            entry = measure(args)
            entry["parity_exact"] = False
            return entry

        monkeypatch.setattr(case, "measure", diverging)
        engine_out = tmp_path / "e.json"
        engine_out.write_bytes(b'{"committed": true}\n')
        code = main(
            [
                "bench", "--ids", "E1", "--repeats", "1",
                "--out", str(tmp_path / "r.json"),
                "--engine-out", str(engine_out),
            ]
        )
        assert code == 1
        assert "engine-predict-reuse-refresh" in capsys.readouterr().err
        # The failing run leaves the engine file (a baseline) untouched.
        assert engine_out.read_bytes() == b'{"committed": true}\n'

    def test_bench_unknown_id_friendly(self, capsys):
        assert main(["bench", "--ids", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_suite_serve_writes_serve_json(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import bench

        # Keep only the serve case's parity gate: its two speed gates
        # depend on the host's timing and have their own tests in
        # tests/test_bench.py.
        [case] = [
            case
            for suite in bench.SUITES
            for case in suite.cases
            if case.key == "serve"
        ]
        assert "pinned-mask" in case.gates[0][1]
        monkeypatch.setattr(case, "gates", case.gates[:1])
        serve_out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "bench", "--suite", "serve", "--repeats", "1",
                "--serve-out", str(serve_out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "serve-coalescing" in text
        payload = json.loads(serve_out.read_text())
        entry = payload["serve"]
        assert entry["case"] == "serve-coalescing"
        assert entry["direct_rps"] > 0
        assert entry["service_batch1_rps"] > 0
        assert entry["service_coalesced_rps"] > 0
        # Coalescing must never change bits, whatever the timings did.
        assert entry["parity_max_abs_diff"] == 0.0
        assert entry["parity_metering_exact"] is True
        assert payload["tracking"]["parity_exact"] is True
        assert payload["scenario_mix"]["parity_exact"] is True
        # The historical outputs are untouched by the serve suite.
        assert not (tmp_path / "BENCH_runtime.json").exists()


class TestWorldCaches:
    """The REPRO_WORLD_CACHE_DIR disk tier under the in-process memo."""

    @pytest.fixture
    def common(self):
        import repro.experiments.common as common

        common._ROOM_CACHE.clear()
        common._VO_CACHE.clear()
        yield common
        common._ROOM_CACHE.clear()
        common._VO_CACHE.clear()

    @staticmethod
    def no_rebuild(*args, **kwargs):
        raise AssertionError("world rebuilt instead of read from disk")

    def test_disk_cache_round_trip(self, common, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE_DIR", str(tmp_path))
        first = common.build_room_world(
            seed=13, n_steps=2, n_cloud_points=200, image=(8, 6)
        )
        [path] = tmp_path.glob("*.pkl")
        assert path.stat().st_size > 0

        common._ROOM_CACHE.clear()  # drop memory tier; disk survives

        monkeypatch.setattr(common, "make_room_scene", self.no_rebuild)
        second = common.build_room_world(
            seed=13, n_steps=2, n_cloud_points=200, image=(8, 6)
        )
        assert second is not first
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.cloud, second.cloud)
        assert np.array_equal(first.depths[0], second.depths[0], equal_nan=True)

    def test_vo_world_disk_cache(self, common, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE_DIR", str(tmp_path))
        first = common.build_vo_world(
            seed=19, n_scenes=2, frames_per_scene=6, hidden=(8,), epochs=2
        )
        common._VO_CACHE.clear()

        monkeypatch.setattr(common, "VOTrainer", self.no_rebuild)
        second = common.build_vo_world(
            seed=19, n_scenes=2, frames_per_scene=6, hidden=(8,), epochs=2
        )
        assert np.array_equal(first.train.features, second.train.features)
        # the restored model predicts identically
        x = first.val.features
        first.model.eval()
        second.model.eval()
        assert np.array_equal(first.model.forward(x), second.model.forward(x))

    def test_disk_cache_keys_by_configuration(
        self, common, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORLD_CACHE_DIR", str(tmp_path))
        kwargs = dict(n_steps=2, n_cloud_points=200, image=(8, 6))
        first = common.build_room_world(seed=13, **kwargs)
        other = common.build_room_world(seed=14, **kwargs)
        assert len(list(tmp_path.glob("room-*.pkl"))) == 2
        common._ROOM_CACHE.clear()

        monkeypatch.setattr(common, "make_room_scene", self.no_rebuild)
        assert np.array_equal(
            common.build_room_world(seed=14, **kwargs).states, other.states
        )
        assert np.array_equal(
            common.build_room_world(seed=13, **kwargs).states, first.states
        )

    def test_unreadable_cache_file_is_rebuilt(
        self, common, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORLD_CACHE_DIR", str(tmp_path))
        kwargs = dict(seed=13, n_steps=2, n_cloud_points=200, image=(8, 6))
        first = common.build_room_world(**kwargs)
        [path] = tmp_path.glob("*.pkl")
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])  # a torn write
        common._ROOM_CACHE.clear()

        rebuilt = common.build_room_world(**kwargs)

        assert np.array_equal(rebuilt.states, first.states)
        assert np.array_equal(rebuilt.cloud, first.cloud)
        assert path.read_bytes() == intact  # the rebuild rewrote the file

    def test_disabled_disk_cache_writes_nothing(
        self, common, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_WORLD_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        common.build_room_world(
            seed=17, n_steps=2, n_cloud_points=200, image=(8, 6)
        )
        assert list(tmp_path.rglob("*.pkl")) == []


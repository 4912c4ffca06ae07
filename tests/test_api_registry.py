"""Experiment registry: resolution, typed configs, results."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    ExperimentResult,
    experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)

FAST_E9 = {"n_inputs": 32, "n_outputs": 16, "n_iterations": 8, "n_trials": 1}

_PF = ("digital", "digital-float", "cim", "cim-reuse", "cim-ordered")
_VO = ("digital", "cim", "cim-reuse", "cim-ordered")
_VO_WORLD = (
    ("n_iterations", 30),
    ("epochs", 200),
    ("n_scenes", 6),
    ("frames_per_scene", 40),
    ("hidden", (128, 64)),
)

# Every registered experiment as `repro list` shows it, with its config
# fields and defaults in declaration order.  A driver module the
# registry does not import drops a row; an edited default, field or
# docstring line changes one.  Config fields and defaults feed
# ExperimentResult.config, config hashes, result stems and job ids.
REGISTRY_PINS = [
    (
        "E1",
        "Fig 2b-d: inverter transfer functions",
        "Switching-current bells, peak-shift error and tail rectilinearity.",
        (),
        (("seed", 0), ("n_grid", 201)),
    ),
    (
        "E3",
        "Fig 2e-h: localization comparison",
        "Same flight through each likelihood substrate; accuracy rows.",
        _PF,
        (
            ("seed", 7),
            ("n_steps", 25),
            ("n_particles", 400),
            ("n_components", 64),
            ("n_cloud_points", 3000),
            ("image", (40, 30)),
            ("substrates", ("digital-float", "digital", "cim")),
            ("prior_offset", (0.4, -0.3, 0.15, 0.2)),
            ("prior_sigma", (0.5, 0.5, 0.3, 0.3)),
        ),
    ),
    (
        "E4",
        "Fig 2i: likelihood energy",
        "Per-query likelihood energy: CIM inverter array vs 8-bit digital.",
        (),
        (
            ("seed", 7),
            ("n_components", 100),
            ("total_columns", 500),
            ("n_queries", 2000),
            ("adc_bits", 4),
            ("digital_bits", 8),
        ),
    ),
    (
        "E5",
        "Fig 3b: SRAM RNG statistics",
        "Bias / noise statistics of the SRAM-immersed RNG.",
        (),
        (
            ("seed", 0),
            ("column_sweep", (2, 4, 8, 16, 32)),
            ("n_instances", 12),
            ("bits_per_instance", 4096),
        ),
    ),
    (
        "E6",
        "Fig 3c-e: VO trajectories",
        "ATE of MC-Dropout VO across inference conditions or one substrate.",
        _VO,
        (
            ("seed", 1),
            *_VO_WORLD,
            (
                "modes",
                (
                    "deterministic-float",
                    "deterministic-4bit",
                    "mc-cim-4bit",
                    "mc-cim-6bit",
                ),
            ),
        ),
    ),
    (
        "E7",
        "Fig 3f: error-uncertainty correlation",
        "Correlation between pose error and MC-Dropout variance.",
        _VO,
        (
            ("seed", 1),
            *_VO_WORLD,
            ("engine", "software"),
            ("occlusion_levels", (0.0, 0.15, 0.3, 0.5)),
        ),
    ),
    (
        "E8",
        "Sec III-D: TOPS/W table",
        "Macro efficiency across precision x (reuse, ordering).",
        (),
        (
            ("seed", 1),
            ("weight_bits", (4, 6)),
            ("n_iterations", 30),
            ("batch", 8),
            ("epochs", 200),
        ),
    ),
    (
        "E9",
        "Sec III-C: reuse ablation",
        "Executed-MAC fraction under reuse / ordering engine variants.",
        (),
        (
            ("seed", 0),
            ("n_inputs", 256),
            ("n_outputs", 128),
            ("n_iterations", 30),
            ("keep_probability", 0.5),
            ("n_trials", 5),
        ),
    ),
    (
        "E10",
        "Sec II-C: map fidelity",
        "Held-out log-likelihood of GMM vs hardware-native HMGM maps.",
        (),
        (("seed", 7), ("n_components", 64), ("tiles", (2, 2, 2))),
    ),
    (
        "E11",
        "Sec IV: conformal extension",
        "Split/adaptive conformal vs MC-Dropout coverage and cost.",
        (),
        (
            ("seed", 1),
            ("alpha", 0.1),
            ("n_mc_iterations", 30),
            ("epochs", 200),
        ),
    ),
    (
        "SCN",
        "Scenario library run",
        "Run one library (or inline-JSON) scenario on one substrate.",
        _PF,
        (("seed", 0), ("scenario", "room-baseline"), ("spec", "")),
    ),
]


@dataclasses.dataclass(frozen=True)
class ProbeConfig:
    """The one-field config of the probe experiments below."""

    seed: int = 5


def test_registry_pins():
    specs = list_experiments()
    assert [spec.id for spec in specs] == [pin[0] for pin in REGISTRY_PINS]
    for spec, pin in zip(specs, REGISTRY_PINS):
        fields = tuple(
            (field.name, field.default)
            for field in dataclasses.fields(spec.config_cls)
        )
        assert (
            spec.id, spec.title, spec.description, spec.substrates, fields
        ) == pin


class TestResolution:
    def test_all_seed_experiments_registered(self):
        ids = [spec.id for spec in list_experiments()]
        # Paper experiments first in numeric order, then letter-only ids
        # (the scenario library's SCN runner).
        assert ids == [
            "E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
            "SCN",
        ]

    def test_numeric_ordering(self):
        ids = [spec.id for spec in list_experiments()]
        assert ids.index("E9") < ids.index("E10")

    def test_case_insensitive(self):
        assert get_experiment("e9").id == "E9"

    def test_unknown_id_raises_keyerror_with_options(self):
        with pytest.raises(KeyError, match="options"):
            get_experiment("E99")

    def test_substrate_declarations(self):
        for eid in ("E3", "E6"):
            spec = get_experiment(eid)
            for name in ("digital", "cim", "cim-reuse"):
                assert name in spec.substrates
        assert get_experiment("E9").substrates == ()

    def test_every_spec_has_config_and_title(self):
        for spec in list_experiments():
            assert spec.title
            assert spec.config_cls is not None
            assert dataclasses.is_dataclass(spec.config_cls)
            assert callable(spec.fn)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @experiment("E9", title="duplicate", config=ProbeConfig)
            def duplicate(cfg):
                return {}


class TestRunExperiment:
    def test_returns_structured_result(self):
        result = run_experiment("E9", seed=3, overrides=FAST_E9)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E9"
        assert result.seed == 3
        assert result.substrate is None
        assert result.config["n_inputs"] == 32
        assert result.config["seed"] == 3
        assert "executed_fraction" in result.metrics
        assert result.runtime_s > 0

    def test_seed_overrides_config_default(self):
        result = run_experiment("E9", seed=5, overrides=FAST_E9)
        assert result.config["seed"] == 5

    def test_string_overrides_coerced(self):
        result = run_experiment(
            "E9",
            overrides={
                "n_inputs": "32",
                "n_outputs": "16",
                "n_iterations": "8",
                "n_trials": "1",
                "keep_probability": "0.25",
            },
        )
        assert result.config["keep_probability"] == 0.25
        assert result.config["n_inputs"] == 32

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            run_experiment("E9", overrides={"bogus": "1"})

    def test_type_mismatched_override_rejected(self):
        # Regression: a non-numeric string used to flow into the
        # experiment and explode as a raw TypeError mid-run.
        with pytest.raises(ValueError, match="expects int"):
            run_experiment("E9", overrides={"n_trials": "zzz"})
        with pytest.raises(ValueError, match="expects float"):
            run_experiment("E9", overrides={"keep_probability": "high"})

    def test_substrate_rejected_for_plain_experiment(self):
        with pytest.raises(ValueError, match="does not support substrate"):
            run_experiment("E9", substrate="cim")

    def test_unsupported_substrate_rejected(self):
        with pytest.raises(ValueError, match="supports substrates"):
            run_experiment("E6", substrate="digital-float")

    def test_deterministic_given_seed(self):
        a = run_experiment("E9", seed=1, overrides=FAST_E9)
        b = run_experiment("E9", seed=1, overrides=FAST_E9)
        assert a.metrics == b.metrics

    def test_out_dir_writes_json(self, tmp_path):
        # Overridden runs get a config-hashed stem so different --set
        # values never overwrite each other.
        run_experiment("E9", seed=2, overrides=FAST_E9, out_dir=tmp_path)
        paths = list(tmp_path.glob("E9-seed2-cfg*.json"))
        assert len(paths) == 1
        back = ExperimentResult.from_json(paths[0].read_text())
        assert back.experiment_id == "E9"
        assert back.seed == 2

    def test_result_json_round_trip(self):
        result = run_experiment("E9", seed=0, overrides=FAST_E9)
        back = ExperimentResult.from_json(result.to_json())
        assert back.metrics == result.metrics
        assert back.config == result.config
        assert back.seed == result.seed


class TestSubstrateOverride:
    """E6 on explicit substrates through a tiny VO world."""

    TINY_VO = {
        "epochs": 3,
        "n_iterations": 4,
        "n_scenes": 2,
        "frames_per_scene": 8,
        "hidden": (16,),
    }

    @pytest.fixture(scope="class", autouse=True)
    def tiny_world(self):
        # Pre-build the small world once so all runs share the cache.
        from repro.experiments.common import build_vo_world

        build_vo_world(seed=0, n_scenes=2, frames_per_scene=8, hidden=(16,), epochs=3)

    @pytest.mark.parametrize("substrate", ["digital", "cim-reuse"])
    def test_e6_runs_on_substrate(self, substrate):
        result = run_experiment(
            "E6", seed=0, substrate=substrate, overrides=self.TINY_VO
        )
        assert result.substrate == substrate
        assert substrate in result.metrics["ate_rmse_m"]
        assert result.metrics["ate_rmse_m"][substrate] > 0
        assert result.metrics["ops_executed"] > 0

    def test_e3_runs_on_substrate(self):
        result = run_experiment(
            "E3",
            seed=3,
            substrate="cim",
            overrides={
                "n_steps": 3,
                "n_cloud_points": 500,
                "image": (16, 12),
                "n_particles": 40,
                "n_components": 8,
            },
        )
        assert result.substrate == "cim"
        (row,) = result.metrics["rows"]
        assert row["substrate"] == "cim"
        assert row["backend"] == "cim"
        assert row["final_error_m"] >= 0
        assert row["energy_j"] > 0

    def test_e7_substrates_are_distinct_runs(self):
        # cim vs cim-reuse must differ (regression: engine-string mapping
        # used to collapse every cim* substrate into one configuration).
        tiny = {**self.TINY_VO, "occlusion_levels": (0.0, 0.3)}
        plain = run_experiment("E7", seed=0, substrate="cim", overrides=tiny)
        reused = run_experiment("E7", seed=0, substrate="cim-reuse", overrides=tiny)
        assert plain.metrics["engine"] == "cim"
        assert reused.metrics["engine"] == "cim-reuse"
        assert plain.metrics["ause"] != reused.metrics["ause"]

    def test_e6_reuse_cheaper_than_plain_cim(self):
        plain = run_experiment("E6", seed=0, substrate="cim", overrides=self.TINY_VO)
        reused = run_experiment(
            "E6", seed=0, substrate="cim-reuse", overrides=self.TINY_VO
        )
        assert reused.metrics["ops_executed"] < plain.metrics["ops_executed"]
        assert reused.metrics["reuse_savings"] > 0


class TestDriverCall:
    def test_run_seed_reaches_config_seed(self):
        """The driver gets the resolved config: the run seed is its
        ``seed``, and without one the config default is the run seed."""
        from repro.api.registry import _REGISTRY

        captured = []

        @experiment("ETEST-SEED", title="seed probe", config=ProbeConfig)
        def probe(cfg):
            captured.append(cfg)
            return {"ok": True}

        try:
            seeded = run_experiment("ETEST-SEED", seed=42)
            default = run_experiment("ETEST-SEED")
        finally:
            _REGISTRY.pop("ETEST-SEED", None)
        assert captured == [ProbeConfig(seed=42), ProbeConfig(seed=5)]
        assert (seeded.seed, default.seed) == (42, 5)
        assert seeded.config == {"seed": 42}

    def test_config_without_seed_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Seedless:
            n: int = 1

        with pytest.raises(TypeError, match="'seed' field"):
            experiment("ETEST-SEEDLESS", title="no seed", config=Seedless)


class TestNonFiniteRoundTrips:
    """NaN/Inf results must survive JSON round-trips (and the strict wire).

    Localization's ``final_error`` is NaN on empty trajectories, so
    non-finite payloads are a normal production case, not a corner.
    """

    def make_result(self):
        from repro.api import InferenceResult

        return InferenceResult(
            substrate="cim",
            workload="localization",
            mean=np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
            variance=None,
            energy_j=1.5e-9,
            extras={"final_error": float("nan"), "peak": float("inf")},
        )

    def test_inference_result_preserves_nonfinite(self):
        from repro.api import InferenceResult

        back = InferenceResult.from_json(self.make_result().to_json())
        assert np.array_equal(back.mean, self.make_result().mean, equal_nan=True)
        assert np.isnan(back.extras["final_error"])
        assert back.extras["peak"] == float("inf")

    def test_batch_result_preserves_nonfinite(self):
        from repro.api import BatchResult

        batch = BatchResult(
            substrate="cim",
            workload="localization",
            results=[self.make_result(), self.make_result()],
            extras={"worst": float("-inf")},
        )
        back = BatchResult.from_json(batch.to_json())
        assert len(back) == 2
        for item in back:
            assert np.array_equal(item.mean, self.make_result().mean, equal_nan=True)
            assert np.isnan(item.extras["final_error"])
        assert back.extras["worst"] == float("-inf")

    def test_strict_wire_encoding_round_trips_results(self):
        # The HTTP path must emit valid JSON: bare NaN/Infinity tokens are
        # forbidden; tagged sentinels round-trip the values exactly.
        import json

        from repro.api import InferenceResult
        from repro.api.results import strict_dumps, strict_loads

        text = strict_dumps(self.make_result().to_dict())

        def reject(token):
            raise AssertionError(f"bare non-finite token {token!r}")

        json.loads(text, parse_constant=reject)
        back = InferenceResult.from_dict(strict_loads(text))
        assert np.array_equal(back.mean, self.make_result().mean, equal_nan=True)
        assert np.isnan(back.extras["final_error"])


class TestKeyedRngStreams:
    """E3/E6 derive their RNG streams via keyed SeedSequence spawns.

    Pinned first draws: experiment outputs are reproduced from (id,
    seed) alone, so the stream derivation is part of the public
    contract.  These constants changed exactly once -- at the migration
    off additive seed offsets (the DET002 bug class) -- and must never
    change again.
    """

    def test_streams_pinned(self):
        from repro.experiments.common import _keyed_rng
        from repro.experiments.fig2_localization import _E3_RUN, _E3_SESSION
        from repro.experiments.fig3_trajectory import _E6_SESSION

        assert float(_keyed_rng(0, _E3_SESSION).random()) == 0.26594389956428566
        assert float(_keyed_rng(0, _E3_RUN).random()) == 0.11721174817852253
        assert float(_keyed_rng(0, _E6_SESSION).random()) == 0.2007793516394134

    def test_no_collision_across_base_seeds(self):
        # Additive offsets alias streams across base seeds (seed=0 with
        # offset k equals seed=k with offset 0); keyed spawns must keep
        # every (seed, spawn_key) stream distinct.
        from repro.experiments.common import _keyed_rng
        from repro.experiments.fig2_localization import _E3_RUN, _E3_SESSION
        from repro.experiments.fig3_trajectory import _E6_SESSION

        keys = (_E3_SESSION, _E3_RUN, _E6_SESSION)
        draws = {
            (seed, key): tuple(_keyed_rng(seed, key).random(4))
            for seed in range(6)
            for key in keys
        }
        assert len(set(draws.values())) == len(draws)

    def test_e3_deterministic_after_migration(self):
        small = {
            "n_steps": 3,
            "n_particles": 40,
            "n_components": 6,
            "n_cloud_points": 300,
            "image": (16, 12),
            "substrates": ("digital-float",),
        }
        first = run_experiment("E3", seed=3, overrides=small)
        second = run_experiment("E3", seed=3, overrides=small)
        assert first.metrics == second.metrics

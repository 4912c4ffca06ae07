"""Substrate registry, uniform sessions, and engine-parity guarantees."""

import copy

import numpy as np
import pytest

from repro.api import (
    InferenceResult,
    MacroOptions,
    ReusePolicy,
    SubstrateConfig,
    available_substrates,
    get_substrate,
    register_substrate,
)
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.core.cim_particle_filter import CIMParticleFilterLocalizer
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.sram.macro import MacroConfig


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


@pytest.fixture(scope="module")
def inputs():
    return np.random.default_rng(4).normal(size=(4, 6))


class TestRegistry:
    def test_builtins_registered(self):
        names = available_substrates()
        for expected in ("digital", "digital-float", "cim", "cim-reuse", "cim-ordered"):
            assert expected in names

    def test_get_is_case_insensitive_and_passthrough(self):
        config = get_substrate("CIM-Reuse")
        assert config.name == "cim-reuse"
        assert get_substrate(config) is config

    def test_unknown_substrate_lists_options(self):
        with pytest.raises(KeyError, match="options"):
            get_substrate("tpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_substrate(SubstrateConfig(name="cim", kind="cim"))

    def test_mixed_case_registration_resolvable(self):
        from repro.api.substrates import _SUBSTRATES

        try:
            register_substrate(SubstrateConfig(name="MyCim", kind="cim"))
            assert get_substrate("MyCim").name == "MyCim"
            assert get_substrate("mycim").name == "MyCim"
        finally:
            _SUBSTRATES.pop("mycim", None)

    def test_register_custom_and_overwrite(self):
        config = SubstrateConfig(
            name="cim-6bit-test",
            kind="cim",
            macro=MacroOptions(weight_bits=6),
            reuse=ReusePolicy(reuse=True, ordering=True),
        )
        try:
            register_substrate(config)
            assert get_substrate("cim-6bit-test").macro.weight_bits == 6
            register_substrate(config, overwrite=True)
        finally:
            from repro.api.substrates import _SUBSTRATES

            _SUBSTRATES.pop("cim-6bit-test", None)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SubstrateConfig(name="bad", kind="quantum")

    def test_macro_options_carry_into_macro_config(self):
        options = MacroOptions(weight_bits=6, input_bits=5, adc_bits=7)
        config = options.to_macro_config()
        assert (config.weight_bits, config.input_bits, config.adc_bits) == (6, 5, 7)

    def test_registry_configs_are_frozen(self):
        config = get_substrate("cim")
        with pytest.raises(AttributeError):
            config.macro = MacroOptions(weight_bits=6)
        assert get_substrate("cim").macro.weight_bits == 4


class TestMCDropoutParity:
    """The substrates must reproduce the seed engines bit-for-bit."""

    @pytest.mark.parametrize(
        "name, reuse, ordering",
        [("cim", False, False), ("cim-reuse", True, False), ("cim-ordered", True, True)],
    )
    def test_cim_substrates_match_engine(self, inputs, name, reuse, ordering):
        model = make_model()
        direct = CIMMCDropoutEngine(
            model,
            MacroConfig(),
            n_iterations=8,
            reuse=reuse,
            ordering=ordering,
            rng=np.random.default_rng(5),
        ).predict(inputs)
        session = get_substrate(name).mc_dropout_session(
            model, n_iterations=8, rng=np.random.default_rng(5)
        )
        via = session.run(inputs)
        assert np.array_equal(direct.mean, via.mean)
        assert np.array_equal(direct.variance, via.variance)
        assert np.array_equal(direct.samples, via.samples)
        assert direct.ops_executed == via.ops_executed
        assert direct.ops_naive == via.ops_naive
        assert via.energy_j == pytest.approx(direct.energy.total_energy_j())

    def test_digital_substrate_matches_software_predictor(self, inputs):
        model = make_model()
        reference, session_model = copy.deepcopy(model), copy.deepcopy(model)
        direct = MCDropoutPredictor(
            reference, n_iterations=8, rng=np.random.default_rng(7)
        ).predict(inputs)
        via = get_substrate("digital").mc_dropout_session(
            session_model, n_iterations=8, rng=np.random.default_rng(7)
        ).run(inputs)
        assert np.array_equal(direct.mean, via.mean)
        assert np.array_equal(direct.variance, via.variance)

    def test_digital_run_honours_per_call_rng(self, inputs):
        # Regression: the digital path used to ignore `rng`, so seeded
        # calls were irreproducible while CIM calls were deterministic.
        session = get_substrate("digital").mc_dropout_session(
            make_model(), n_iterations=8
        )
        first = session.run(inputs, rng=np.random.default_rng(31))
        second = session.run(inputs, rng=np.random.default_rng(31))
        other = session.run(inputs, rng=np.random.default_rng(32))
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.variance, second.variance)
        assert not np.array_equal(first.mean, other.mean)

    def test_digital_ops_and_energy_accounting(self, inputs):
        via = get_substrate("digital").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(7)
        ).run(inputs)
        # 8 iterations x 4 inputs x (6*8 + 8*2) weights
        assert via.ops_executed == 8 * 4 * (6 * 8 + 8 * 2)
        assert via.ops_naive == via.ops_executed
        assert via.reuse_savings == 0.0
        assert via.energy_j > 0
        assert via.workload == "mc-dropout"

    def test_reuse_substrate_saves_work(self, inputs):
        plain = get_substrate("cim").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        ).run(inputs)
        reused = get_substrate("cim-reuse").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        ).run(inputs)
        assert reused.ops_executed < plain.ops_executed
        assert reused.reuse_savings > 0

    def test_energy_is_per_run_not_cumulative(self, inputs):
        session = get_substrate("cim").mc_dropout_session(
            make_model(), n_iterations=4, rng=np.random.default_rng(5)
        )
        first = session.run(inputs)
        second = session.run(inputs)
        assert second.energy_j == pytest.approx(first.energy_j, rel=0.5)
        assert second.energy_j < 1.5 * first.energy_j

    def test_per_call_metering_is_exact_with_pinned_rng(self, inputs):
        # Now engine-native (ledger scoping), not a session-side reset:
        # identical calls report identical ops/energy/derived ratios.
        session = get_substrate("cim-ordered").mc_dropout_session(
            make_model(), n_iterations=8, rng=np.random.default_rng(5)
        )
        first = session.run(inputs, rng=np.random.default_rng(21))
        second = session.run(inputs, rng=np.random.default_rng(21))
        assert second.ops_executed == first.ops_executed
        assert second.energy_j == first.energy_j
        assert second.reuse_savings == first.reuse_savings
        assert second.extras["tops_per_watt"] == first.extras["tops_per_watt"]

    def test_raw_engine_needs_no_reset_between_calls(self, inputs):
        # Regression for the double-count bug: raw engine users (no
        # session) get per-call figures too.
        engine = CIMMCDropoutEngine(
            make_model(), MacroConfig(), n_iterations=8,
            rng=np.random.default_rng(5),
        )
        first = engine.predict(inputs, rng=np.random.default_rng(3))
        second = engine.predict(inputs, rng=np.random.default_rng(3))
        assert second.ops_executed == first.ops_executed
        assert second.energy.total_energy_j() == first.energy.total_energy_j()
        assert second.reuse_savings == first.reuse_savings


class TestLocalizationSession:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.experiments.common import build_room_world

        return build_room_world(seed=3, n_steps=3, n_cloud_points=500, image=(16, 12))

    def test_parity_with_bare_localizer(self, world):
        kwargs = dict(
            camera_mount=world.mount, n_components=8, n_particles=40, tiles=(1, 1, 1)
        )
        direct = CIMParticleFilterLocalizer(
            world.cloud, world.camera, backend="cim",
            rng=np.random.default_rng(9), **kwargs,
        )
        run_rng = np.random.default_rng(21)
        direct.initialize_tracking(world.states[0] + 0.2, np.full(4, 0.3), run_rng)
        expected = direct.run(world.controls, world.depths, world.states, run_rng)

        session = get_substrate("cim").localization_session(
            world.cloud, world.camera, rng=np.random.default_rng(9), **kwargs
        )
        run_rng = np.random.default_rng(21)
        session.initialize_tracking(world.states[0] + 0.2, np.full(4, 0.3), run_rng)
        via = session.run((world.controls, world.depths, world.states), rng=run_rng)

        assert np.array_equal(expected.estimates, via.mean)
        assert np.array_equal(expected.errors, via.extras["errors"])
        assert via.energy_j == pytest.approx(expected.energy.total_energy_j())
        assert via.extras["summary"]["backend"] == "cim"
        assert via.workload == "localization"

    def test_digital_substrate_selects_digital_backend(self, world):
        session = get_substrate("digital").localization_session(
            world.cloud,
            world.camera,
            camera_mount=world.mount,
            n_components=8,
            n_particles=40,
            tiles=(1, 1, 1),
            rng=np.random.default_rng(9),
        )
        assert session.localizer.backend_name == "digital"

    def test_localization_energy_is_per_run(self, world):
        # The backend ledger accumulates across runs; each result's
        # energy must cover its own sequence only.
        session = get_substrate("cim").localization_session(
            world.cloud,
            world.camera,
            camera_mount=world.mount,
            n_components=8,
            n_particles=40,
            tiles=(1, 1, 1),
            rng=np.random.default_rng(9),
        )
        inputs = (world.controls, world.depths, world.states)

        def run(seed):
            session.initialize_tracking(
                world.states[0] + 0.2, np.full(4, 0.3), np.random.default_rng(21)
            )
            return session.run(inputs, rng=np.random.default_rng(seed))

        first, second = run(7), run(8)
        assert second.energy_j == pytest.approx(first.energy_j, rel=0.2)
        assert second.energy_j < 1.5 * first.energy_j
        cumulative = session.localizer.field_backend.ledger.total_energy_j()
        assert cumulative > 1.5 * first.energy_j  # odometer kept both runs


class TestInferenceResultJSON:
    def test_round_trip_preserves_arrays(self):
        result = InferenceResult(
            substrate="cim",
            workload="mc-dropout",
            mean=np.arange(6, dtype=np.float64).reshape(2, 3),
            variance=np.ones((2, 3)),
            samples=np.zeros((4, 2, 3)),
            ops_executed=10,
            ops_naive=40,
            energy_j=1.5e-12,
            energy_breakdown_j={"adc": 1.0e-12, "mac": 0.5e-12},
            extras={"mask_order": np.array([2, 0, 1, 3])},
        )
        back = InferenceResult.from_json(result.to_json())
        assert np.array_equal(back.mean, result.mean)
        assert back.mean.dtype == result.mean.dtype
        assert back.mean.shape == result.mean.shape
        assert np.array_equal(back.samples, result.samples)
        assert np.array_equal(back.extras["mask_order"], result.extras["mask_order"])
        assert back.ops_executed == 10
        assert back.reuse_savings == pytest.approx(0.75)
        assert back.energy_breakdown_j == result.energy_breakdown_j

    def test_round_trip_none_fields(self):
        result = InferenceResult(
            substrate="digital", workload="localization", mean=np.zeros((3, 4))
        )
        back = InferenceResult.from_json(result.to_json())
        assert back.variance is None
        assert back.samples is None
        assert back.ops_naive is None
        assert back.reuse_savings == 0.0

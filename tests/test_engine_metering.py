"""Per-call metering, the sample-major fast path, and ledger scoping.

The headline figures of the paper are *ratios of per-inference* ops and
energy, so `predict()` must report strictly per-call numbers no matter how
many times the engine has run before -- and the vectorised fast path must
be indistinguishable (bit-for-bit) from the reference loop it replaces.
"""

import numpy as np
import pytest

from repro.circuits.energy import EnergyLedger
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.core.cim_particle_filter import LocalizationResult, converged_step
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.sram.macro import MacroConfig


def make_model(seed: int = 3) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(12, 16, rng),
            ReLU(),
            Dropout(0.5, rng=np.random.default_rng(11)),
            Dense(16, 4, rng),
        ]
    )


def make_engine(
    reuse: bool = True,
    ordering: bool = True,
    fast_path: bool = True,
    use_hardware_rng: bool = False,
    n_iterations: int = 12,
    **kwargs,
) -> CIMMCDropoutEngine:
    return CIMMCDropoutEngine(
        make_model(),
        MacroConfig(),
        n_iterations=n_iterations,
        reuse=reuse,
        ordering=ordering,
        fast_path=fast_path,
        use_hardware_rng=use_hardware_rng,
        rng=np.random.default_rng(7),
        **kwargs,
    )


@pytest.fixture(scope="module")
def inputs():
    return np.random.default_rng(4).normal(size=(3, 12))


class TestPerCallMetering:
    @pytest.mark.parametrize(
        "reuse, ordering, hw",
        [(True, True, True), (True, False, False), (False, False, False)],
    )
    def test_predict_twice_reports_identical_per_call_figures(
        self, inputs, reuse, ordering, hw
    ):
        # Regression: ops/energy used to come from cumulative macro
        # ledgers, so the second call on one engine double-counted.
        engine = make_engine(reuse=reuse, ordering=ordering, use_hardware_rng=hw)
        first = engine.predict(inputs, rng=np.random.default_rng(5))
        second = engine.predict(inputs, rng=np.random.default_rng(5))
        assert first.ops_executed == second.ops_executed
        assert first.ops_naive == second.ops_naive
        assert first.energy.total_energy_j() == second.energy.total_energy_j()
        assert first.reuse_savings == second.reuse_savings
        assert first.tops_per_watt() == second.tops_per_watt()
        assert 0.0 <= second.reuse_savings <= 1.0

    def test_second_call_matches_fresh_engine(self, inputs):
        # A warm engine's per-call figures equal a fresh engine's single
        # call.
        fresh = make_engine().predict(inputs, rng=np.random.default_rng(5))
        warm_engine = make_engine()
        warm_engine.predict(inputs, rng=np.random.default_rng(9))
        warm = warm_engine.predict(inputs, rng=np.random.default_rng(5))
        assert warm.ops_executed == fresh.ops_executed
        assert warm.energy.total_energy_j() == fresh.energy.total_energy_j()
        assert warm.reuse_savings == fresh.reuse_savings
        assert warm.tops_per_watt() == fresh.tops_per_watt()

    def test_macro_ledgers_stay_cumulative(self, inputs):
        engine = make_engine()
        engine.predict(inputs, rng=np.random.default_rng(5))
        after_one = sum(layer.macro.ledger.count("cim_mac") for layer in engine.layers)
        engine.predict(inputs, rng=np.random.default_rng(5))
        after_two = sum(layer.macro.ledger.count("cim_mac") for layer in engine.layers)
        assert after_two == 2 * after_one  # odometer keeps running

    def test_mask_generation_energy_is_per_call(self, inputs):
        engine = make_engine(use_hardware_rng=True)
        first = engine.predict(inputs, rng=np.random.default_rng(5))
        second = engine.predict(inputs, rng=np.random.default_rng(5))
        key = "dropout_bit_generation"
        assert first.energy.energy(key) > 0
        assert second.energy.energy(key) == first.energy.energy(key)

    def test_pinned_streams_charge_no_generation_energy(self, inputs):
        engine = make_engine(use_hardware_rng=True)
        streams = engine.draw_mask_streams(np.random.default_rng(3))
        order = engine.order_mask_streams(streams)
        result = engine.predict(
            inputs,
            rng=np.random.default_rng(5),
            mask_streams=streams,
            mask_order=order,
        )
        assert result.energy.energy("dropout_bit_generation") == 0.0


class TestFastPathParity:
    @pytest.mark.parametrize(
        "reuse, ordering",
        [(False, False), (False, True), (True, False), (True, True)],
    )
    def test_fast_path_matches_loop_bit_for_bit(self, inputs, reuse, ordering):
        fast = make_engine(reuse=reuse, ordering=ordering, fast_path=True)
        loop = make_engine(reuse=reuse, ordering=ordering, fast_path=False)
        a = fast.predict(inputs, rng=np.random.default_rng(5))
        b = loop.predict(inputs, rng=np.random.default_rng(5))
        assert np.array_equal(a.mask_order, b.mask_order)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)
        assert a.ops_executed == b.ops_executed
        assert a.energy.total_energy_j() == pytest.approx(
            b.energy.total_energy_j(), rel=1e-12
        )

    def test_fast_path_matches_loop_under_refresh_one(self, inputs):
        # refresh_every=1 degenerates reuse into all-refresh: the whole
        # run goes sample-major and must still match the loop.
        fast = make_engine(reuse=True, fast_path=True, refresh_every=1)
        loop = make_engine(reuse=True, fast_path=False, refresh_every=1)
        a = fast.predict(inputs, rng=np.random.default_rng(5))
        b = loop.predict(inputs, rng=np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)
        assert a.ops_executed == b.ops_executed

    def test_fast_path_matches_loop_noiseless(self, inputs):
        config = MacroConfig(adc_noise_lsb=0.0)
        common = dict(n_iterations=10, use_hardware_rng=False, reuse=False)
        fast = CIMMCDropoutEngine(
            make_model(), config, fast_path=True,
            rng=np.random.default_rng(7), **common,
        )
        loop = CIMMCDropoutEngine(
            make_model(), config, fast_path=False,
            rng=np.random.default_rng(7), **common,
        )
        a = fast.predict(inputs, rng=np.random.default_rng(5))
        b = loop.predict(inputs, rng=np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_pinned_masks_and_order_respected(self, inputs):
        engine = make_engine(reuse=False)
        streams = engine.draw_mask_streams(np.random.default_rng(3))
        order = engine.order_mask_streams(streams)
        a = engine.predict(
            inputs, rng=np.random.default_rng(5),
            mask_streams=streams, mask_order=order,
        )
        b = engine.predict(
            inputs, rng=np.random.default_rng(5),
            mask_streams=streams, mask_order=order,
        )
        assert np.array_equal(a.mask_order, order)
        assert np.array_equal(a.samples, b.samples)


class TestStreamValidation:
    def test_all_none_pinned_streams_rejected(self, inputs):
        # Regression: an all-None pin used to slip through validation and
        # explode later as AttributeError on `joint.masks`.
        engine = make_engine()
        streams = [None] * len(engine.layers)
        with pytest.raises(ValueError, match="all None"):
            engine.predict(inputs, mask_streams=streams)

    def test_order_mask_streams_rejects_all_none(self):
        engine = make_engine(ordering=True)
        with pytest.raises(ValueError, match="every stream is None"):
            engine.order_mask_streams([None] * len(engine.layers))


def _localization_result(errors) -> LocalizationResult:
    errors = np.asarray(errors, dtype=float)
    return LocalizationResult(
        estimates=np.zeros((errors.size, 4)),
        errors=errors,
        diagnostics=[],
        energy=EnergyLedger(),
        backend="cim",
    )


class TestLocalizationResultEdgeCases:
    def test_never_converged(self):
        assert converged_step([2.0, 1.5, 0.9, 0.8], threshold=0.5) is None

    def test_immediately_converged(self):
        assert converged_step([0.1, 0.2, 0.3], threshold=0.5) == 0

    def test_late_convergence_ignores_transient_dip(self):
        # Early below-threshold blip must not count: the error must stay
        # below the threshold for the remainder of the run.
        errors = [2.0, 0.4, 1.2, 0.3, 0.2, 0.1]
        assert converged_step(errors, threshold=0.5) == 3

    def test_convergence_on_last_step_only(self):
        assert converged_step([2.0, 1.0, 0.4], threshold=0.5) == 2

    def test_error_at_threshold_is_not_converged(self):
        # Convergence needs the error strictly below the threshold.
        assert converged_step([1.0, 0.5, 0.5], threshold=0.5) is None
        assert converged_step([1.0, 0.5, 0.25], threshold=0.25) is None

    def test_default_threshold_is_half_a_metre(self):
        # Scenario rows report converged_step at this default.
        assert converged_step([0.6, 0.49, 0.3]) == 1
        assert converged_step([0.6, 0.51, 0.3]) == 2

    def test_empty_trajectory(self):
        result = _localization_result([])
        assert converged_step(result.errors) is None
        assert np.isnan(result.final_error)
        row = result.summary_row()
        assert np.isnan(row["initial_error_m"])
        assert np.isnan(row["final_error_m"])
        assert np.isnan(row["steady_state_error_m"])

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            errors = rng.uniform(0.0, 1.0, size=rng.integers(1, 12))
            below = errors < 0.5
            expected = None
            for t in range(len(below)):
                if below[t:].all():
                    expected = t
                    break
            assert converged_step(errors, threshold=0.5) == expected


class TestScopeExceptionSafety:
    """A raising forward must leave the engine's metering untouched.

    Reads charge per-call tapes that reach the macros' cumulative
    odometers only after the whole forward has finished, so a raise
    anywhere in it charges nothing and the engine stays metering-exact.
    """

    @staticmethod
    def _odometers(engine):
        return [
            {op: (ledger.count(op), ledger.energy(op)) for op in ledger.operations}
            for ledger in (layer.macro.ledger for layer in engine.layers)
        ]

    def test_raising_forward_leaves_odometers_untouched(
        self, inputs, monkeypatch
    ):
        engine = make_engine()
        engine.predict(inputs, rng=np.random.default_rng(1))
        before = self._odometers(engine)

        def boom(*args, **kwargs):
            raise RuntimeError("forward exploded")

        monkeypatch.setattr(engine, "_forward_wave", boom)
        monkeypatch.setattr(engine, "_forward_loop", boom)
        with pytest.raises(RuntimeError, match="forward exploded"):
            engine.predict(inputs, rng=np.random.default_rng(5))
        assert self._odometers(engine) == before
        for layer in engine.layers:
            assert layer.macro.ledger._scopes == []

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_raise_in_last_layer_charges_no_odometer(
        self, inputs, monkeypatch, fast_path
    ):
        # Earlier layers have already charged their tapes when the last
        # layer's read raises; none of it may reach an odometer.
        engine = make_engine(fast_path=fast_path)
        before = self._odometers(engine)
        victim = engine.layers[-1].macro

        def refuse(*args, **kwargs):
            raise RuntimeError("read refused")

        for name in ("matvec_many", "matvec"):
            monkeypatch.setattr(victim, name, refuse)
        with pytest.raises(RuntimeError, match="read refused"):
            engine.predict(inputs, rng=np.random.default_rng(5))
        assert self._odometers(engine) == before

    def test_predict_after_exception_matches_fresh_engine(
        self, inputs, monkeypatch
    ):
        engine = make_engine()

        def boom(*args, **kwargs):
            raise RuntimeError("forward exploded")

        with monkeypatch.context() as patched:
            patched.setattr(engine, "_forward_wave", boom)
            patched.setattr(engine, "_forward_loop", boom)
            with pytest.raises(RuntimeError):
                engine.predict(inputs, rng=np.random.default_rng(5))

        survivor = engine.predict(inputs, rng=np.random.default_rng(9))
        fresh = make_engine().predict(inputs, rng=np.random.default_rng(9))
        assert np.array_equal(survivor.mean, fresh.mean)
        assert survivor.energy.total_energy_j() == fresh.energy.total_energy_j()
        assert survivor.ops_executed == fresh.ops_executed

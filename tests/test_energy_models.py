"""Tests for repro.energy: analytic models validated against metered ledgers."""

import numpy as np
import pytest

from repro.circuits.technology import NODE_16NM
from repro.energy import cim_mc_dropout_energy, digital_nn_energy


class TestNNModels:
    def test_digital_nn_counts_weights(self):
        energy = digital_nn_energy(NODE_16NM, (10, 20, 5), bits=8)
        macs = 10 * 20 + 20 * 5
        expected = macs * (
            NODE_16NM.mac_energy(8) + 8 * NODE_16NM.sram_read_energy_per_bit_j
        )
        assert energy == pytest.approx(expected)

    def test_digital_nn_scales_linearly(self):
        one = digital_nn_energy(NODE_16NM, (12, 8, 3), n_inferences=1)
        many = digital_nn_energy(NODE_16NM, (12, 8, 3), n_inferences=17)
        assert many == pytest.approx(17 * one)

    def test_digital_nn_higher_precision_costs_more(self):
        sizes = (12, 8, 3)
        assert digital_nn_energy(NODE_16NM, sizes, bits=16) > digital_nn_energy(
            NODE_16NM, sizes, bits=8
        )

    def test_cim_mc_scales_linearly(self):
        from repro.sram.macro import MacroConfig

        config = MacroConfig(weight_bits=4)
        one = cim_mc_dropout_energy(config, (32, 16, 4), n_inferences=1)
        many = cim_mc_dropout_energy(config, (32, 16, 4), n_inferences=9)
        assert many == pytest.approx(9 * one)

    def test_cim_mc_refresh_every_iteration_equals_no_reuse(self):
        from repro.sram.macro import MacroConfig

        config = MacroConfig(weight_bits=4)
        sizes = (32, 16, 4)
        assert cim_mc_dropout_energy(
            config, sizes, reuse=True, refresh_every=1
        ) == pytest.approx(cim_mc_dropout_energy(config, sizes, reuse=False))

    def test_cim_mc_single_refresh_cheapest(self):
        from repro.sram.macro import MacroConfig

        config = MacroConfig(weight_bits=4)
        sizes = (32, 16, 4)
        costs = [
            cim_mc_dropout_energy(config, sizes, refresh_every=k) for k in (0, 8, 2)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_cim_mc_higher_adc_precision_costs_more(self):
        from repro.sram.macro import MacroConfig

        sizes = (32, 16, 4)
        assert cim_mc_dropout_energy(
            MacroConfig(adc_bits=8), sizes
        ) > cim_mc_dropout_energy(MacroConfig(adc_bits=4), sizes)

    def test_cim_mc_reuse_cheaper(self):
        from repro.sram.macro import MacroConfig

        config = MacroConfig(weight_bits=4)
        sizes = (324, 128, 64, 6)
        with_reuse = cim_mc_dropout_energy(config, sizes, reuse=True)
        without = cim_mc_dropout_energy(config, sizes, reuse=False)
        assert with_reuse < 0.5 * without

    def test_cim_mc_tracks_engine_within_factor(self, rng):
        """The expectation model should land within ~2x of a metered run."""
        from repro.core.cim_mc_dropout import CIMMCDropoutEngine
        from repro.nn import Dense, Dropout, ReLU, Sequential
        from repro.sram.macro import MacroConfig

        model = Sequential(
            [
                Dense(32, 48, rng),
                ReLU(),
                Dropout(0.5, rng=rng),
                Dense(48, 8, rng),
            ]
        )
        config = MacroConfig(weight_bits=4)
        engine = CIMMCDropoutEngine(
            model, config, n_iterations=30, use_hardware_rng=False,
            rng=np.random.default_rng(0),
        )
        result = engine.predict(rng.normal(size=(1, 32)))
        metered = result.energy.total_energy_j()
        analytic = cim_mc_dropout_energy(config, (32, 48, 8), n_iterations=30)
        assert 0.4 < analytic / metered < 2.5

    def test_validation(self):
        from repro.sram.macro import MacroConfig

        with pytest.raises(ValueError):
            digital_nn_energy(NODE_16NM, (10,))
        with pytest.raises(ValueError):
            cim_mc_dropout_energy(MacroConfig(), (10, 5), keep_probability=0.0)


class TestDigitalMCDropoutModel:
    def test_is_iterations_times_single_pass(self):
        sizes = (32, 16, 4)
        from repro.energy import digital_mc_dropout_energy

        single = digital_nn_energy(NODE_16NM, sizes, bits=8, n_inferences=1)
        total = digital_mc_dropout_energy(
            NODE_16NM, sizes, bits=8, n_iterations=30, batch=2
        )
        assert total == pytest.approx(60 * single)

    def test_rejects_bad_counts(self):
        from repro.energy import digital_mc_dropout_energy

        with pytest.raises(ValueError):
            digital_mc_dropout_energy(NODE_16NM, (8, 4), n_iterations=0)

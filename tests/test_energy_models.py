"""Tests for repro.energy: the digital datapath's closed-form energy counts."""

import pytest

from repro.circuits.technology import NODE_16NM
from repro.energy import digital_nn_energy


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

    def test_validation(self):
        with pytest.raises(ValueError):
            digital_nn_energy(NODE_16NM, (10,))


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

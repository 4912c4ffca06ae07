"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* valid input, spanning the library's
load-bearing algebra: pose composition, converter monotonicity, mask
ordering, conformal quantiles, and energy accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesian.conformal import conformal_quantile
from repro.bayesian.ordering import mask_hamming_path_length, optimal_mask_order
from repro.circuits import DAC, LogarithmicADC, NODE_45NM
from repro.circuits.energy import EnergyLedger
from repro.maps.hmg import hmg_kernel
from repro.nn.quantization import QuantizationSpec, dequantize, quantize
from repro.scene.se3 import Pose, euler_to_matrix

angles = st.floats(-3.0, 3.0)
coords = st.floats(-5.0, 5.0)


class TestPoseAlgebra:
    @given(angles, angles, angles, coords, coords, coords)
    @settings(max_examples=40)
    def test_compose_associative(self, a, b, c, x, y, z):
        p = Pose.from_euler([x, 0, 0], yaw=a)
        q = Pose.from_euler([0, y, 0], roll=b)
        r = Pose.from_euler([0, 0, z], pitch=c)
        left = (p @ q) @ r
        right = p @ (q @ r)
        assert np.allclose(left.rotation, right.rotation, atol=1e-9)
        assert np.allclose(left.translation, right.translation, atol=1e-9)

    @given(angles, coords, coords)
    @settings(max_examples=40)
    def test_double_inverse_is_identity(self, yaw, x, y):
        p = Pose.from_euler([x, y, 1.0], yaw=yaw)
        twice = p.inverse().inverse()
        assert np.allclose(twice.rotation, p.rotation, atol=1e-10)
        assert np.allclose(twice.translation, p.translation, atol=1e-10)

    @given(angles, angles)
    @settings(max_examples=40)
    def test_rotation_preserves_norm(self, roll, yaw):
        rotation = euler_to_matrix(roll, 0.4, yaw)
        vector = np.array([1.0, -2.0, 0.5])
        assert np.linalg.norm(rotation @ vector) == pytest.approx(
            np.linalg.norm(vector)
        )


class TestConverterProperties:
    @given(st.integers(2, 10))
    @settings(max_examples=20)
    def test_log_adc_monotone_any_bits(self, bits):
        adc = LogarithmicADC(NODE_45NM, bits=bits, i_min=1e-9, i_max=1e-4)
        currents = np.logspace(-10, -3, 200)
        codes = adc.convert(currents)
        assert np.all(np.diff(codes) >= 0)

    @given(st.integers(2, 10), st.floats(1e-10, 1e-4))
    @settings(max_examples=30)
    def test_log_adc_error_bounded_by_half_lsb_in_log_domain(self, bits, current):
        adc = LogarithmicADC(NODE_45NM, bits=bits, i_min=1e-10, i_max=1e-4)
        decoded = adc.decode(adc.convert(np.array([current])))[0]
        log_lsb = np.log(adc.i_max / adc.i_min) / (adc.levels - 1)
        assert abs(np.log(decoded / current)) <= log_lsb / 2 + 1e-9

    @given(st.integers(2, 10), st.floats(0.1, 10.0))
    @settings(max_examples=20)
    def test_dac_error_bounded_by_half_lsb(self, bits, v_max):
        dac = DAC(NODE_45NM, bits=bits, v_max=v_max)
        voltages = np.linspace(0, v_max, 57)
        assert np.max(np.abs(dac.convert(voltages) - voltages)) <= dac.lsb / 2 + 1e-12

    @given(st.integers(2, 8))
    @settings(max_examples=15)
    def test_dac_idempotent(self, bits):
        dac = DAC(NODE_45NM, bits=bits)
        voltages = np.linspace(0, dac.v_max, 33)
        once = dac.convert(voltages)
        twice = dac.convert(once)
        assert np.allclose(once, twice)

    @given(st.integers(2, 12), st.floats(0.01, 1e3))
    @settings(max_examples=30)
    def test_quantization_idempotent(self, bits, max_value):
        spec = QuantizationSpec(bits=bits, max_value=max_value)
        rng = np.random.default_rng(bits)
        tensor = rng.normal(scale=max_value / 2, size=20)
        once = dequantize(quantize(tensor, spec), spec)
        twice = dequantize(quantize(once, spec), spec)
        assert np.allclose(once, twice)


class TestKernelProperties:
    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(0.2, 2.0), st.floats(0.2, 2.0)
    )
    @settings(max_examples=40)
    def test_hmg_maximum_at_center(self, mx, my, sx, sy):
        means = np.array([[mx, my]])
        sigmas = np.array([[sx, sy]])
        at_center = hmg_kernel(means, means, sigmas)[0, 0]
        rng = np.random.default_rng(0)
        elsewhere = hmg_kernel(
            means + rng.normal(size=(10, 2)), means, sigmas
        )
        assert at_center == pytest.approx(1.0)
        assert np.all(elsewhere <= 1.0 + 1e-12)

    @given(st.floats(0.3, 3.0))
    @settings(max_examples=20)
    def test_hmg_scale_invariance(self, scale):
        # f((x - mu)/sigma) depends only on the z-score.
        point = np.array([[1.0, -0.5, 0.3]])
        base = hmg_kernel(point, np.zeros((1, 3)), np.ones((1, 3)))
        scaled = hmg_kernel(
            point * scale, np.zeros((1, 3)), np.full((1, 3), scale)
        )
        assert scaled[0, 0] == pytest.approx(base[0, 0], rel=1e-9)


class TestOrderingProperties:
    @given(st.integers(3, 15), st.integers(4, 40))
    @settings(max_examples=20, deadline=None)
    def test_never_worse_than_identity(self, n_iter, width):
        rng = np.random.default_rng(n_iter * 97 + width)
        masks = (rng.random((n_iter, width)) < 0.5).astype(np.uint8)
        order = optimal_mask_order(masks)
        assert mask_hamming_path_length(masks, order) <= mask_hamming_path_length(
            masks
        )

    @given(st.integers(3, 12))
    @settings(max_examples=15, deadline=None)
    def test_order_is_permutation(self, n_iter):
        rng = np.random.default_rng(n_iter)
        masks = (rng.random((n_iter, 16)) < 0.5).astype(np.uint8)
        order = optimal_mask_order(masks)
        assert sorted(order.tolist()) == list(range(n_iter))


class TestConformalProperties:
    @given(st.integers(30, 300))
    @settings(max_examples=20)
    def test_quantile_monotone_in_alpha(self, n):
        rng = np.random.default_rng(n)
        scores = rng.exponential(size=n)
        q_tight = conformal_quantile(scores, alpha=0.05)
        q_loose = conformal_quantile(scores, alpha=0.3)
        assert q_tight >= q_loose


class TestLedgerProperties:
    @given(st.lists(st.tuples(st.integers(0, 100), st.floats(0, 1e-9)), max_size=20))
    @settings(max_examples=25)
    def test_total_energy_is_sum(self, entries):
        ledger = EnergyLedger()
        expected = 0.0
        for index, (count, energy) in enumerate(entries):
            ledger.add(f"op{index % 3}", count, energy)
            expected += count * energy
        assert ledger.total_energy_j() == pytest.approx(expected, rel=1e-9)

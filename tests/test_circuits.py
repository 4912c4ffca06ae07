"""Tests for repro.circuits: devices, inverters, converters, noise, energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    DAC,
    MOSFET,
    NODE_16NM,
    NODE_45NM,
    EnergyLedger,
    FloatingGate,
    InverterArray,
    InverterColumn,
    LikelihoodInverter,
    LogarithmicADC,
    MismatchSampler,
    NoiseModel,
    SwitchingCurrentCell,
    VoltageEncoder,
    ekv_current,
    gaussian_equivalent_sigma,
)
from repro.circuits.energy import format_energy
from repro.circuits.inverter import WIDTH_SCALES, width_code_sigmas


class TestTechnology:
    def test_thermal_voltage_room_temp(self):
        assert NODE_45NM.thermal_voltage == pytest.approx(0.02585, abs=1e-4)

    def test_energy_interpolation_quadratic(self):
        exact = NODE_45NM.mac_energy(8)
        interp = NODE_45NM.mac_energy(12)
        assert interp > exact
        # quadratic scaling against nearest tabulated bits
        assert interp == pytest.approx(NODE_45NM.mac_energy_j[8] * (12 / 8) ** 2)

    def test_adc_energy_monotone(self):
        assert NODE_16NM.adc_energy(6) > NODE_16NM.adc_energy(4)

    def test_thermal_voltage_scales_with_temperature(self):
        from dataclasses import replace

        hot = replace(NODE_45NM, temperature_k=2 * NODE_45NM.temperature_k)
        assert hot.thermal_voltage == pytest.approx(2 * NODE_45NM.thermal_voltage)

    def test_empty_energy_table_rejected(self):
        from repro.circuits.technology import TechnologyNode

        node = TechnologyNode(name="bare", vdd=1.0)
        with pytest.raises(ValueError):
            node.mac_energy(8)
        with pytest.raises(ValueError):
            node.adc_energy(4)


def _device(node, polarity):
    """A MOSFET with the node's nominal threshold and EKV parameters."""
    return MOSFET(
        polarity,
        node.nominal_vt,
        node.specific_current,
        node.subthreshold_slope_factor,
        node.thermal_voltage,
    )


class TestMOSFET:
    def test_subthreshold_exponential(self):
        node = NODE_45NM
        dev = _device(node, "n")
        v = np.array([0.1, 0.1 + node.thermal_voltage * node.subthreshold_slope_factor])
        i = dev.current(v)
        assert i[1] / i[0] == pytest.approx(np.e, rel=0.05)

    def test_strong_inversion_quadratic(self):
        dev = _device(NODE_45NM, "n")
        i1 = dev.current(np.array([1.0]))[0]
        i2 = dev.current(np.array([1.62]))[0]
        overdrive_ratio = (1.62 - dev.vt) / (1.0 - dev.vt)
        assert i2 / i1 == pytest.approx(overdrive_ratio**2, rel=0.15)

    def test_pmos_mirror(self):
        dev_n = _device(NODE_45NM, "n")
        dev_p = _device(NODE_45NM, "p")
        vdd = 1.0
        assert dev_p.current(np.array([0.3]), vdd=vdd)[0] == pytest.approx(
            dev_n.current(np.array([vdd - 0.3]))[0]
        )

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            MOSFET("x", 0.3, 1e-7, 1.3, 0.0259)

    def test_ekv_stable_large_inputs(self):
        i = ekv_current(np.array([100.0]), 0.3, 1e-7, 1.3, 0.0259)
        assert np.isfinite(i).all()


class TestFloatingGate:
    def test_quantisation_levels(self):
        gate = FloatingGate(-0.5, 0.5, bits=4)
        assert gate.levels == 16
        assert gate.lsb == pytest.approx(1.0 / 15)

    def test_program_clips_to_window(self):
        gate = FloatingGate(-0.5, 0.5, bits=4)
        assert gate.program(2.0) == pytest.approx(0.5)
        assert gate.program(-2.0) == pytest.approx(-0.5)

    def test_program_error_within_half_lsb(self):
        gate = FloatingGate(-0.5, 0.5, bits=6)
        for target in np.linspace(-0.5, 0.5, 17):
            assert abs(gate.program(target) - target) <= gate.lsb / 2 + 1e-12

    def test_program_lands_on_the_ideal_code_threshold(self):
        gate = FloatingGate(-0.5, 0.5, bits=4)
        for target in np.linspace(-0.45, 0.45, 7):
            achieved = gate.program(target)
            assert gate.code == gate.quantize(target)
            assert achieved == gate.code_to_vt(gate.code) == gate.vt

    def test_code_round_trip(self):
        gate = FloatingGate(0.0, 1.0, bits=3)
        for code in range(gate.levels):
            assert gate.quantize(gate.code_to_vt(code)) == code


class TestSwitchingCell:
    def test_bell_peaks_at_achieved_center(self):
        cell = SwitchingCurrentCell(NODE_45NM, v_center=0.6, width_code=1)
        v = np.linspace(0, 1, 2001)
        i = cell.current(v)
        peak_v = v[int(np.argmax(i))]
        assert peak_v == pytest.approx(cell.achieved_center, abs=2e-3)

    def test_bell_decays_at_rails(self):
        cell = SwitchingCurrentCell(NODE_45NM, v_center=0.5, width_code=0)
        peak = cell.current(np.array([cell.achieved_center]))[0]
        assert cell.current(np.array([0.0]))[0] < 1e-3 * peak
        assert cell.current(np.array([1.0]))[0] < 1e-3 * peak

    def test_width_codes_broaden(self):
        sigmas = width_code_sigmas(NODE_45NM)
        assert np.all(np.diff(sigmas) > 0)

    def test_width_code_bounds(self):
        with pytest.raises(ValueError):
            SwitchingCurrentCell(NODE_45NM, 0.5, width_code=len(WIDTH_SCALES))

    def test_gaussian_equivalent_sigma_positive(self):
        cell = SwitchingCurrentCell(NODE_45NM, 0.5)
        assert 0.01 < gaussian_equivalent_sigma(cell) < 0.5

    def test_center_offset_shifts_peak(self):
        base = SwitchingCurrentCell(NODE_45NM, 0.5, width_code=1)
        shifted = SwitchingCurrentCell(NODE_45NM, 0.5, width_code=1, center_offset=0.05)
        assert shifted.achieved_center - base.achieved_center == pytest.approx(0.05)


class TestLikelihoodInverter:
    def test_harmonic_combination(self):
        inv = LikelihoodInverter.from_centers(NODE_45NM, [0.4, 0.6], width_codes=[1, 1])
        v = np.array([[0.45, 0.55]])
        per_axis = [cell.current(v[:, k]) for k, cell in enumerate(inv.cells)]
        expected = 1.0 / (1.0 / per_axis[0] + 1.0 / per_axis[1])
        assert inv.current(v)[0] == pytest.approx(expected[0])

    def test_peak_is_lower_than_single_axis(self):
        inv = LikelihoodInverter.from_centers(NODE_45NM, [0.5, 0.5, 0.5])
        cell = inv.cells[0]
        single = cell.current(np.array([cell.achieved_center]))[0]
        centers = np.array([[c.achieved_center for c in inv.cells]])
        assert inv.current(centers)[0] == pytest.approx(single / 3, rel=0.05)

    def test_axis_count_enforced(self):
        inv = LikelihoodInverter.from_centers(NODE_45NM, [0.5, 0.5])
        with pytest.raises(ValueError):
            inv.current(np.zeros((1, 3)))


class TestADCs:
    def test_log_adc_monotone(self, rng):
        adc = LogarithmicADC(NODE_45NM, bits=4, i_min=1e-9, i_max=1e-5)
        currents = np.logspace(-9, -5, 64)
        codes = adc.convert(currents)
        assert np.all(np.diff(codes) >= 0)
        assert codes.min() == 0 and codes.max() == adc.levels - 1

    def test_log_adc_decode_inverse(self):
        adc = LogarithmicADC(NODE_45NM, bits=6, i_min=1e-9, i_max=1e-5)
        codes = np.arange(adc.levels)
        assert np.allclose(adc.convert(adc.decode(codes)), codes)

    def test_log_likelihood_affine_in_log_current(self):
        adc = LogarithmicADC(NODE_45NM, bits=8, i_min=1e-9, i_max=1e-5)
        i = np.array([1e-8, 1e-7, 1e-6])
        ll = adc.log_likelihood(adc.convert(i))
        ratios = np.diff(ll)
        assert np.allclose(ratios, np.log(10), atol=0.1)

    def test_log_adc_clips(self):
        adc = LogarithmicADC(NODE_45NM, bits=4, i_min=1e-9, i_max=1e-5)
        assert adc.convert(np.array([1e-12]))[0] == 0
        assert adc.convert(np.array([1.0]))[0] == adc.levels - 1

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            LogarithmicADC(NODE_45NM, i_min=1e-5, i_max=1e-9)
        with pytest.raises(ValueError):
            LogarithmicADC(NODE_45NM, bits=0)

    def test_convert_rounds_to_the_nearest_code(self):
        adc = LogarithmicADC(NODE_45NM, bits=4, i_min=1e-9, i_max=1e-5)
        span = np.log(adc.i_max / adc.i_min)
        codes = np.arange(adc.levels - 1)
        for offset, expected in ((0.4, codes), (0.6, codes + 1)):
            currents = adc.i_min * np.exp((codes + offset) / (adc.levels - 1) * span)
            assert np.array_equal(adc.convert(currents), expected)

    def test_conversion_energy_from_node_table(self):
        adc = LogarithmicADC(NODE_45NM, bits=6)
        assert adc.conversion_energy() == NODE_45NM.adc_energy_per_conversion_j[6]


class TestDAC:
    def test_round_trip_within_lsb(self):
        dac = DAC(NODE_45NM, bits=6)
        v = np.linspace(0, dac.v_max, 23)
        out = dac.convert(v)
        assert np.max(np.abs(out - v)) <= dac.lsb / 2 + 1e-12

    def test_quantize_rounds_to_the_nearest_code(self):
        dac = DAC(NODE_45NM, bits=4)
        codes = np.arange(dac.levels - 1)
        assert np.array_equal(dac.quantize((codes + 0.4) * dac.lsb), codes)
        assert np.array_equal(dac.quantize((codes + 0.6) * dac.lsb), codes + 1)

    def test_output_is_code_times_lsb(self):
        dac = DAC(NODE_45NM, bits=4)
        codes = np.arange(dac.levels)
        assert np.array_equal(dac.output(codes), codes * dac.lsb)

    def test_defaults_to_node_supply_and_energy(self):
        dac = DAC(NODE_16NM, bits=5)
        assert dac.v_max == NODE_16NM.vdd
        assert dac.lsb == pytest.approx(NODE_16NM.vdd / 31)
        assert dac.conversion_energy() == NODE_16NM.dac_energy_j
        with pytest.raises(ValueError):
            DAC(NODE_16NM, bits=0)

    def test_out_of_range_voltages_clip_to_rails(self):
        dac = DAC(NODE_45NM, bits=4, v_max=0.8)
        assert np.allclose(dac.convert(np.array([-1.0, 5.0])), [0.0, 0.8])


class TestNoiseAndMismatch:
    def test_shot_noise_scaling(self):
        model = NoiseModel(NODE_45NM, bandwidth_hz=1e8)
        sigma1 = model.shot_sigma(np.array([1e-6]))[0]
        sigma4 = model.shot_sigma(np.array([4e-6]))[0]
        assert sigma4 / sigma1 == pytest.approx(2.0)

    def test_total_sigma_exceeds_parts(self):
        model = NoiseModel(NODE_45NM, flicker_coefficient=0.01)
        current = np.array([1e-6])
        assert model.total_sigma(current)[0] >= model.shot_sigma(current)[0]

    def test_sample_perturbs(self, rng):
        model = NoiseModel(NODE_45NM)
        current = np.full(100, 1e-6)
        noisy = model.sample(current, rng)
        assert not np.allclose(noisy, current)

    def test_pelgrom_scaling(self):
        small = MismatchSampler(NODE_45NM, area_factor=1.0)
        big = MismatchSampler(NODE_45NM, area_factor=4.0)
        assert big.vt_sigma == pytest.approx(small.vt_sigma / 2.0)

    def test_leakage_lognormal_positive(self, rng):
        sampler = MismatchSampler(NODE_45NM)
        leak = sampler.subthreshold_leakage((500,), rng)
        assert np.all(leak > 0)
        assert leak.std() / leak.mean() > 0.1

    def test_current_factors_mean_near_one(self, rng):
        sampler = MismatchSampler(NODE_45NM, current_factor_sigma=0.05)
        factors = sampler.current_factors((5000,), rng)
        assert factors.mean() == pytest.approx(1.0, abs=0.01)


class TestEnergyLedger:
    def test_accumulation(self):
        ledger = EnergyLedger()
        ledger.add("mac", 10, 1e-15)
        ledger.add("mac", 5, 1e-15)
        assert ledger.count("mac") == 15
        assert ledger.energy("mac") == pytest.approx(15e-15)

    def test_merge(self):
        a = EnergyLedger()
        a.add("op", 2, 1.0)
        b = EnergyLedger()
        b.add("op", 3, 1.0)
        a.merge(b)
        assert a.count("op") == 5

    def test_rejects_negative(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.add("op", -1, 1.0)
        with pytest.raises(ValueError):
            ledger.add("op", 1, -1.0)

    def test_format_energy_units(self):
        assert "fJ" in format_energy(2e-13)
        assert "pJ" in format_energy(5e-12)
        assert "nJ" in format_energy(3e-9)

    def test_scope_collects_only_scoped_region(self):
        ledger = EnergyLedger()
        ledger.add("op", 2, 1.0)
        scope = ledger.begin_scope()
        ledger.add("op", 3, 1.0)
        ledger.add_energy("extra", 0.5)
        ledger.end_scope(scope)
        ledger.add("op", 7, 1.0)  # after end_scope: not mirrored
        assert scope.count("op") == 3
        assert scope.energy("extra") == 0.5
        assert ledger.count("op") == 12  # cumulative undisturbed

    def test_scopes_nest_independently(self):
        ledger = EnergyLedger()
        outer = ledger.begin_scope()
        ledger.add("op", 1, 1.0)
        inner = ledger.begin_scope()
        ledger.add("op", 2, 1.0)
        ledger.end_scope(inner)
        ledger.end_scope(outer)
        assert inner.count("op") == 2
        assert outer.count("op") == 3

    def test_scope_sees_merges(self):
        ledger = EnergyLedger()
        scope = ledger.begin_scope()
        other = EnergyLedger()
        other.add("op", 4, 2.0)
        ledger.merge(other)
        ledger.end_scope(scope)
        assert scope.count("op") == 4
        assert scope.energy("op") == pytest.approx(8.0)

    def test_add_many_replays_adds_in_order(self):
        # Energies must equal the per-call running sum bit for bit, in the
        # ledger and in every open scope.
        counts = [3, 0, 7, 1, 12, 5]
        batched, looped = EnergyLedger(), EnergyLedger()
        for ledger in (batched, looped):
            ledger.add("op", 5, 0.3e-15)
        batched_scope, looped_scope = batched.begin_scope(), looped.begin_scope()
        batched.add_many("op", counts, 1.7e-15)
        for count in counts:
            looped.add("op", count, 1.7e-15)
        batched.end_scope(batched_scope)
        looped.end_scope(looped_scope)
        for a, b in ((batched, looped), (batched_scope, looped_scope)):
            assert a.count("op") == b.count("op")
            assert a.energy("op").hex() == b.energy("op").hex()

    def test_add_many_validation(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.add_many("op", [1, -1], 1.0)
        with pytest.raises(ValueError):
            ledger.add_many("op", [1], -1.0)
        ledger.add_many("op", [], 1.0)  # no call, no entry
        assert ledger.operations == []

    def test_end_scope_rejects_foreign_child(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError, match="not active"):
            ledger.end_scope(EnergyLedger())


class TestInverterArray:
    @pytest.fixture(scope="class")
    def array(self):
        rng = np.random.default_rng(0)
        columns = [
            InverterColumn(rng.uniform(0.2, 0.8, 3), [1, 1, 1], replication=2)
            for _ in range(10)
        ]
        return InverterArray(NODE_45NM, columns)

    def test_matches_single_inverter(self):
        column = InverterColumn([0.4, 0.5, 0.6], [2, 2, 2])
        array = InverterArray(NODE_45NM, [column])
        inverter = LikelihoodInverter.from_centers(
            NODE_45NM, [0.4, 0.5, 0.6], width_codes=[2, 2, 2]
        )
        v = np.random.default_rng(1).uniform(0, 1, size=(20, 3))
        assert np.allclose(array.column_currents(v)[:, 0], inverter.current(v))

    def test_replication_scales_current(self):
        base = InverterArray(NODE_45NM, [InverterColumn([0.5, 0.5, 0.5], [1, 1, 1])])
        doubled = InverterArray(
            NODE_45NM, [InverterColumn([0.5, 0.5, 0.5], [1, 1, 1], replication=2)]
        )
        v = np.array([[0.5, 0.5, 0.5]])
        assert doubled.total_current(v)[0] == pytest.approx(2 * base.total_current(v)[0])

    def test_total_is_sum_of_columns(self, array, rng):
        v = rng.uniform(0, 1, size=(5, 3))
        expected = array.column_currents(v) @ array.replication
        assert np.allclose(array.total_current(v), expected)

    def test_read_accounts_energy(self, array, rng):
        encoder = VoltageEncoder(lo=np.zeros(3), hi=np.ones(3), vdd=1.0)
        scope = array.ledger.begin_scope()
        array.read_log_likelihood(rng.uniform(0, 1, size=(7, 3)), encoder)
        array.ledger.end_scope(scope)
        assert scope.count("adc_conversion") == 7
        assert scope.count("dac_conversion") == 21
        assert array.energy_per_query() > 0

    def test_mismatch_requires_rng(self):
        with pytest.raises(ValueError):
            InverterArray(
                NODE_45NM,
                [InverterColumn([0.5, 0.5, 0.5], [0, 0, 0])],
                mismatch=MismatchSampler(NODE_45NM),
            )


def _table_arrays():
    """The demo localization world's arrays, noise and mismatch on: every
    tile of the default tiled map, then the single-array map."""
    import dataclasses

    from repro.serve.demo import demo_track_world

    world = demo_track_world()
    tiled = world.build_session("cim").localizer.tiled_map
    single = dataclasses.replace(
        world, localizer_kwargs={**world.localizer_kwargs, "tiles": (1, 1, 1)}
    ).build_session("cim").localizer.array
    return [*(array for array, _ in tiled._bank.arrays.values()), single]


class TestDACCodeTable:
    """The per-DAC-code table read equals the analytic column currents
    of the DAC's output voltages, bit for bit."""

    @pytest.fixture(scope="class")
    def arrays(self):
        arrays = _table_arrays()
        assert all(a.noise is not None for a in arrays)
        return arrays

    @staticmethod
    def _analytic(array, volts):
        converted = np.column_stack(
            [dac.convert(volts[:, axis]) for axis, dac in enumerate(array.dacs)]
        )
        return array.column_currents(converted)

    @staticmethod
    def _codes(array, volts):
        return np.column_stack(
            [dac.quantize(volts[:, axis]) for axis, dac in enumerate(array.dacs)]
        )

    def test_every_code_on_each_axis(self, arrays):
        rng = np.random.default_rng(0)
        for array in arrays:
            levels = array.dacs[0].levels
            lsb = array.dacs[0].lsb
            for axis in range(array.n_axes):
                codes = rng.integers(0, levels, size=(levels, array.n_axes))
                codes[:, axis] = np.arange(levels)
                volts = codes * lsb
                assert np.array_equal(
                    array.code_currents(self._codes(array, volts)),
                    self._analytic(array, volts),
                )

    def test_random_code_triples_and_clipped_voltages(self, arrays):
        rng = np.random.default_rng(1)
        for array in arrays:
            vdd = array.node.vdd
            volts = rng.uniform(-0.2 * vdd, 1.2 * vdd, size=(5000, array.n_axes))
            assert np.array_equal(
                array.code_currents(self._codes(array, volts)),
                self._analytic(array, volts),
            )


class TestVoltageEncoder:
    def test_round_trip(self, rng):
        encoder = VoltageEncoder(lo=np.array([-2.0, -2.0, 0.0]), hi=np.array([2.0, 2.0, 3.0]), vdd=1.0)
        points = rng.uniform([-2, -2, 0], [2, 2, 3], size=(30, 3))
        assert np.allclose(encoder.decode(encoder.encode(points)), points, atol=1e-12)

    def test_bounds_map_to_margins(self):
        encoder = VoltageEncoder(lo=np.zeros(3), hi=np.ones(3), vdd=1.0, margin=0.1)
        assert np.allclose(encoder.encode(np.zeros((1, 3))), 0.1)
        assert np.allclose(encoder.encode(np.ones((1, 3))), 0.9)

    @given(st.floats(0.0, 0.4))
    @settings(max_examples=20)
    def test_margin_validation(self, margin):
        VoltageEncoder(lo=np.zeros(3), hi=np.ones(3), vdd=1.0, margin=margin)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            VoltageEncoder(lo=np.ones(3), hi=np.zeros(3), vdd=1.0)

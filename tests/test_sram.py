"""Tests for repro.sram: bit line, RNG, dropout generator, macro."""

from collections import Counter

import numpy as np
import pytest
from scipy.stats import norm

from repro.circuits.energy import EnergyLedger
from repro.circuits.technology import NODE_16NM
from repro.sram import (
    BitLineModel,
    CrossCoupledInverterRNG,
    DropoutBitGenerator,
    MacroConfig,
    SRAMCIMMacro,
)


def _relative_mismatch(line):
    """|total - expected| / expected leakage of a bit line."""
    expected = line.n_ports * line.nominal_leakage
    return abs(line.total_leakage() - expected) / expected


class TestBitLine:
    def test_mismatch_filtering_with_ports(self):
        few_list, many_list = [], []
        for inst in range(30):
            few = BitLineModel.sample(NODE_16NM, 16, np.random.default_rng(inst))
            many = BitLineModel.sample(NODE_16NM, 1024, np.random.default_rng(inst + 500))
            few_list.append(_relative_mismatch(few))
            many_list.append(_relative_mismatch(many))
        assert np.mean(many_list) < np.mean(few_list)

    def test_total_leakage_sums_ports(self, rng):
        line = BitLineModel.sample(NODE_16NM, 64, rng, nominal_leakage=2.0e-10)
        assert line.static_leakages.shape == (64,)
        assert np.all(line.static_leakages > 0)
        assert line.total_leakage() == pytest.approx(line.static_leakages.sum())
        assert line.nominal_leakage == 2.0e-10

    def test_port_count_validation(self, rng):
        with pytest.raises(ValueError, match="n_ports"):
            BitLineModel.sample(NODE_16NM, 0, rng)


class TestCCIRNG:
    def test_bias_improves_with_calibration(self):
        befores, afters = [], []
        for seed in range(10):
            cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(seed))
            cal = cell.calibrate(np.random.default_rng(seed + 100))
            befores.append(abs(cal.ones_rate_before - 0.5))
            afters.append(abs(cal.ones_rate_after - 0.5))
        assert np.mean(afters) < np.mean(befores)
        assert np.mean(afters) < 0.05

    def test_bits_are_binary(self, rng):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=rng)
        bits = cell.generate(500, rng)
        assert set(np.unique(bits)) <= {0, 1}

    def test_low_autocorrelation_after_calibration(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(1))
        run = np.random.default_rng(2)
        cell.calibrate(run)
        bits = cell.generate(8000, run).astype(float)
        autocorr = np.corrcoef(bits[:-1], bits[1:])[0, 1]
        assert abs(autocorr) < 0.05

    def test_analytic_probability_matches_empirical(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(3))
        run = np.random.default_rng(4)
        empirical = cell.generate(20000, run).mean()
        analytic = norm.cdf(cell.static_differential() / cell.noise_sigma())
        assert empirical == pytest.approx(analytic, abs=0.02)

    def test_more_columns_more_noise(self):
        small = CrossCoupledInverterRNG(
            NODE_16NM, n_columns_per_side=4, rng=np.random.default_rng(0)
        )
        large = CrossCoupledInverterRNG(
            NODE_16NM, n_columns_per_side=32, rng=np.random.default_rng(0)
        )
        assert large.noise_sigma() > small.noise_sigma()

    def test_bias_decomposition_keys(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(0))
        decomposition = cell.bias_decomposition()
        assert set(decomposition) == {
            "mismatch_volts",
            "comparator_offset_volts",
            "trim_volts",
            "noise_sigma_volts",
        }


class TestDropoutGenerator:
    @pytest.fixture(scope="class")
    def generator(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(7))
        cell.calibrate(np.random.default_rng(8))
        return DropoutBitGenerator(cell, keep_probability=0.5)

    def test_mask_rate_near_half(self, generator):
        mask = generator.mask(5000, np.random.default_rng(9))
        assert mask.mean() == pytest.approx(0.5, abs=0.03)

    def test_arbitrary_probability(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(7))
        cell.calibrate(np.random.default_rng(8))
        generator = DropoutBitGenerator(cell, keep_probability=0.75)
        mask = generator.mask(4000, np.random.default_rng(9))
        assert mask.mean() == pytest.approx(0.75, abs=0.04)

    def test_cycle_accounting(self, generator):
        generator.cycles_used = 0
        generator.mask(100, np.random.default_rng(0))
        assert generator.cycles_used == 100
        assert generator.generation_energy() > 0

    def test_mask_is_first_row_of_masks(self):
        def generator():
            cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(7))
            return DropoutBitGenerator(cell, keep_probability=0.7)

        single = generator().mask(12, np.random.default_rng(1))
        batched = generator().masks(1, 12, np.random.default_rng(1))
        assert np.array_equal(single, batched[0])

    def test_generation_energy_of_cycle_delta(self, generator):
        generator.cycles_used = 0
        generator.raw_bits(40, np.random.default_rng(0))
        assert generator.cycles_used == 40
        assert generator.generation_energy(2.0e-15) == pytest.approx(80e-15)
        assert generator.generation_energy(2.0e-15, cycles=10) == pytest.approx(20e-15)

    @pytest.mark.parametrize("keep", [0.5, 0.7])
    def test_batched_draw_matches_sequential_masks(self, keep):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(7))
        cell.calibrate(np.random.default_rng(8))
        batched_gen = DropoutBitGenerator(cell, keep_probability=keep)
        looped_gen = DropoutBitGenerator(cell, keep_probability=keep)
        batched_rng, looped_rng = np.random.default_rng(9), np.random.default_rng(9)
        batched = batched_gen.masks(32, 16, batched_rng)
        looped = np.stack([looped_gen.mask(16, looped_rng) for _ in range(32)])
        assert batched.shape == (32, 16) and batched.dtype == np.uint8
        assert np.array_equal(batched, looped)
        assert batched_gen.cycles_used == looped_gen.cycles_used
        assert batched_rng.bit_generator.state == looped_rng.bit_generator.state

        # Independent reference: one raw-bit draw (8-bit uniform) per mask.
        reference_rng = np.random.default_rng(9)
        reference = []
        for _ in range(32):
            if keep == 0.5:
                reference.append(cell.generate(16, reference_rng))
            else:
                raw = cell.generate(16 * 8, reference_rng).reshape(16, 8)
                uniforms = raw @ 2.0 ** -(1 + np.arange(8))
                reference.append((uniforms < keep).astype(np.uint8))
        assert np.array_equal(batched, np.stack(reference))
        assert batched_gen.cycles_used == 32 * 16 * (1 if keep == 0.5 else 8)

    def test_probability_validation(self):
        cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            DropoutBitGenerator(cell, keep_probability=1.0)


class TestMacro:
    @pytest.fixture(scope="class")
    def macro(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(32, 16))
        return SRAMCIMMacro(weight, MacroConfig(weight_bits=6, adc_noise_lsb=0.0), rng=rng), weight

    def test_ideal_matvec_matches_quantised_weights(self, macro, rng):
        m, weight = macro
        x = rng.normal(size=(4, 32))
        assert np.allclose(m.ideal_matvec(x), x @ m.stored_weight)

    def test_matvec_close_to_ideal(self, macro, rng):
        m, _ = macro
        x = rng.normal(size=(4, 32))
        out = m.matvec(x, rng=rng)
        ref = m.ideal_matvec(x)
        # quantisation error bounded by ~ADC step scale
        assert np.max(np.abs(out - ref)) < 5 * m.adc_step

    def test_input_mask_zeroes_columns(self, macro, rng):
        m, _ = macro
        x = rng.normal(size=(2, 32))
        mask = np.zeros(32)
        mask[:8] = 1
        out = m.matvec(x, input_mask=mask, rng=rng)
        ref = m.ideal_matvec(x * mask)
        assert np.max(np.abs(out - ref)) < 5 * m.adc_step

    def test_delta_read_consistency(self, rng):
        weight = rng.normal(size=(24, 12))
        macro = SRAMCIMMacro(weight, MacroConfig(adc_noise_lsb=0.0, adc_bits=12), rng=rng)
        x0 = rng.normal(size=(3, 24))
        x1 = x0.copy()
        x1[:, 3] += 1.0
        p0 = macro.matvec(x0, rng=rng)
        changed = np.zeros(24, dtype=bool)
        changed[3] = True
        p1 = macro.matvec_delta(p0, x1 - x0, changed, rng=rng)
        ref = macro.matvec(x1, rng=rng)
        assert np.max(np.abs(p1 - ref)) < 6 * macro.adc_step

    def test_delta_no_change_free(self, rng):
        weight = rng.normal(size=(8, 4))
        macro = SRAMCIMMacro(weight, rng=rng)
        scope = macro.ledger.begin_scope()
        p = np.zeros((1, 4))
        out = macro.matvec_delta(p, np.zeros((1, 8)), np.zeros(8, dtype=bool), rng=rng)
        assert np.allclose(out, p)
        assert scope.count("cim_mac") == 0

    def test_energy_scales_with_active_inputs(self, rng):
        weight = rng.normal(size=(32, 16))
        macro = SRAMCIMMacro(weight, rng=rng)
        full = macro.ledger.begin_scope()
        macro.matvec(rng.normal(size=(1, 32)), rng=rng)
        macro.ledger.end_scope(full)
        half = macro.ledger.begin_scope()
        mask = np.zeros(32)
        mask[:16] = 1
        macro.matvec(rng.normal(size=(1, 32)), input_mask=mask, rng=rng)
        assert half.count("cim_mac") == full.count("cim_mac") // 2

    def test_matvec_meters_every_output_column(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(32, 16)), rng=rng)
        mask = np.zeros(32)
        mask[:8] = 1
        scope = macro.ledger.begin_scope()
        macro.matvec(rng.normal(size=(3, 32)), input_mask=mask, rng=rng)
        assert scope.count("cim_mac") == 3 * 8 * 16
        assert scope.count("column_adc") == 3 * 16
        assert scope.count("input_dac") == 3 * 8

    def test_lower_precision_larger_error(self, rng):
        weight = rng.normal(size=(32, 16))
        x = rng.normal(size=(8, 32))
        errors = {}
        for bits in (4, 8):
            macro = SRAMCIMMacro(
                weight, MacroConfig(weight_bits=bits, adc_noise_lsb=0.0), rng=rng
            )
            out = macro.matvec(x, rng=rng)
            errors[bits] = np.abs(out - x @ weight).mean()
        assert errors[4] > errors[8]

    def test_stored_weight_on_quantisation_grid(self, macro):
        m, weight = macro
        spec = m.weight_spec
        assert spec.bits == 6
        assert np.max(np.abs(m.stored_weight - weight)) <= spec.scale / 2 + 1e-12
        assert np.allclose(m.stored_weight, m.weight_codes * spec.scale)
        assert np.abs(m.weight_codes).max() <= spec.levels

    def test_noisy_read_requires_rng(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(8, 4)), MacroConfig(adc_noise_lsb=0.5), rng=rng)
        with pytest.raises(ValueError):
            macro.matvec(rng.normal(size=(1, 8)))

    def test_weight_shape_validation(self, rng):
        with pytest.raises(ValueError):
            SRAMCIMMacro(np.zeros(5), rng=rng)


class TestMacEnergyOffTable:
    def test_exact_table_hit(self):
        assert MacroConfig(weight_bits=6).mac_energy() == 2.6e-15

    def test_off_table_scales_from_nearest(self):
        # 7 bits ties between 6 and 8; the tie must break low (6).
        assert MacroConfig(weight_bits=7).mac_energy() == pytest.approx(
            2.6e-15 * 7 / 6
        )

    def test_tie_breaks_to_lower_precision(self):
        # 5 bits is equidistant from 4 and 6 -> must pick 4.
        assert MacroConfig(weight_bits=5).mac_energy() == pytest.approx(
            1.6e-15 * 5 / 4
        )

    def test_independent_of_table_insertion_order(self):
        # Regression: nearest-key selection used to follow dict insertion
        # order on ties, so a reordered table changed the answer.
        forward = MacroConfig(
            weight_bits=5, mac_energy_j={4: 1.6e-15, 6: 2.6e-15, 8: 4.5e-15}
        )
        reverse = MacroConfig(
            weight_bits=5, mac_energy_j={8: 4.5e-15, 6: 2.6e-15, 4: 1.6e-15}
        )
        assert forward.mac_energy() == reverse.mac_energy()


class TestPinnedInputSpec:
    def test_spec_pinned_on_first_drive(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(16, 8)), rng=rng)
        assert macro.input_spec is None
        x = rng.normal(size=(2, 16))
        macro.matvec(x, rng=rng)
        spec = macro.input_spec
        assert spec is not None
        assert spec.max_value == pytest.approx(np.max(np.abs(x)))
        macro.matvec(10.0 * x, rng=rng)  # later inputs do not re-fit the DAC
        assert macro.input_spec is spec

    def test_recalibrate_pins_with_headroom(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(16, 8)), rng=rng)
        sample = rng.normal(size=(32, 16))
        macro.recalibrate(sample, input_headroom=2.0)
        assert macro.input_spec.max_value == pytest.approx(
            2.0 * np.max(np.abs(sample))
        )
        with pytest.raises(ValueError):
            macro.recalibrate(sample, input_headroom=0.0)

    def test_delta_port_uses_full_read_grid(self, rng):
        # The delta used to be quantised against its own (small) range;
        # now it shares the pinned DAC grid, so a delta read reconstructs
        # the full read exactly in a noise-free, fine-ADC macro.
        config = MacroConfig(adc_noise_lsb=0.0, adc_bits=14, input_bits=6)
        macro = SRAMCIMMacro(
            rng.normal(size=(12, 6)), config, rng=rng, gain_mismatch_sigma=0.0
        )
        spec = macro.pin_input_range(4.0)
        x0 = rng.normal(size=(2, 12))
        x1 = x0.copy()
        x1[:, 5] += 2.0 * spec.scale  # an exact number of DAC steps
        p0 = macro.matvec(x0, rng=rng)
        changed = np.zeros(12, dtype=bool)
        changed[5] = True
        p1 = macro.matvec_delta(p0, x1 - x0, changed, rng=rng)
        ref = macro.matvec(x1, rng=rng)
        assert np.max(np.abs(p1 - ref)) <= macro.adc_step + 1e-12


class TestMatvecMany:
    def test_matches_sequential_matvec_bit_for_bit(self, rng):
        weight = np.random.default_rng(0).normal(size=(20, 10))
        fused = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        looped = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        x = rng.normal(size=(6, 3, 20))
        masks = (rng.random((6, 20)) < 0.5).astype(np.uint8)
        out_fused = fused.matvec_many(
            x, input_masks=masks, rng=np.random.default_rng(2)
        )
        seq_rng = np.random.default_rng(2)
        out_loop = np.stack(
            [
                looped.matvec(x[t], input_mask=masks[t], rng=seq_rng)
                for t in range(6)
            ]
        )
        assert np.array_equal(out_fused, out_loop)

    def test_accounting_matches_sequential_calls(self, rng):
        weight = np.random.default_rng(0).normal(size=(20, 10))
        fused = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        looped = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        x = rng.normal(size=(5, 2, 20))
        masks = (rng.random((5, 20)) < 0.7).astype(np.uint8)
        fused.matvec_many(x, input_masks=masks, rng=rng)
        for t in range(5):
            looped.matvec(x[t], input_mask=masks[t], rng=rng)
        for operation in ("cim_mac", "column_adc", "input_dac"):
            assert fused.ledger.count(operation) == looped.ledger.count(operation)
            assert fused.ledger.energy(operation) == pytest.approx(
                looped.ledger.energy(operation), rel=1e-12
            )

    def test_accepts_predrawn_noise(self, rng):
        weight = np.random.default_rng(0).normal(size=(8, 4))
        macro = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        x = rng.normal(size=(3, 2, 8))
        noise = np.random.default_rng(9).normal(size=(3, 2, 4))
        a = macro.matvec_many(x, noise=noise)
        b = macro.matvec_many(x, noise=noise)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("predrawn", [True, False], ids=["noise", "rng"])
    def test_delta_many_matches_chained_matvec_delta(self, predrawn):
        weight = np.random.default_rng(0).normal(size=(10, 6))
        fused = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        looped = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        for macro in (fused, looped):
            macro.pin_input_range(3.0)
        rng = np.random.default_rng(2)
        delta = rng.normal(size=(7, 3, 10))
        changed = rng.random((7, 10)) < 0.4
        changed[[0, 3]] = False  # undriven steps carry their base by copy
        anchors = {0: rng.normal(size=(3, 6)), 4: rng.normal(size=(3, 6))}
        anchors[0][0, 0] = -0.0  # a zero read added would flip it to +0.0
        noise = rng.normal(size=(7, 3, 6))
        fused_rng, looped_rng = np.random.default_rng(3), np.random.default_rng(3)
        fused_scope = fused.ledger.begin_scope()
        out = fused.matvec_delta_many(
            anchors,
            delta,
            changed,
            rng=fused_rng,
            noise=noise if predrawn else None,
        )
        fused.ledger.end_scope(fused_scope)
        looped_scope = looped.ledger.begin_scope()
        expected = []
        for k in range(7):
            base = anchors[k] if k in anchors else expected[-1]
            expected.append(
                looped.matvec_delta(
                    base,
                    delta[k],
                    changed[k],
                    rng=looped_rng,
                    noise=noise[k] if predrawn else None,
                )
            )
        looped.ledger.end_scope(looped_scope)
        expected = np.stack(expected)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert np.signbit(out[0, 0, 0])
        assert fused_rng.bit_generator.state == looped_rng.bit_generator.state
        for a, b in ((fused.ledger, looped.ledger), (fused_scope, looped_scope)):
            assert a.operations == b.operations
            for operation in b.operations:
                assert a.count(operation) == b.count(operation)
                assert a.energy(operation).hex() == b.energy(operation).hex()

    def test_delta_many_validation(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(8, 4)), rng=rng)
        anchors = {0: np.zeros((2, 4))}
        with pytest.raises(ValueError, match="deltas"):
            macro.matvec_delta_many(
                anchors, np.zeros((3, 2, 9)), np.ones((3, 9), bool), rng=rng
            )
        with pytest.raises(ValueError, match="changed"):
            macro.matvec_delta_many(
                anchors, np.zeros((3, 2, 8)), np.ones((2, 8), bool), rng=rng
            )
        with pytest.raises(ValueError, match="step 0"):
            macro.matvec_delta_many(
                {1: np.zeros((2, 4))},
                np.zeros((3, 2, 8)),
                np.ones((3, 8), bool),
                rng=rng,
            )

    def test_shape_validation(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(8, 4)), rng=rng)
        with pytest.raises(ValueError, match="inputs"):
            macro.matvec_many(rng.normal(size=(3, 2, 9)), rng=rng)
        with pytest.raises(ValueError, match="input masks"):
            macro.matvec_many(
                rng.normal(size=(3, 2, 8)),
                input_masks=np.ones((2, 8), dtype=np.uint8),
                rng=rng,
            )

    @pytest.mark.parametrize("predrawn", [True, False], ids=["noise", "rng"])
    def test_delta_many_segments_match_per_segment_chains(
        self, predrawn, monkeypatch
    ):
        # Three segments of 1, 3 and 2 rows, each its own ledger; the
        # driven-line counts include k = 1 and k = in_features, so the
        # grouped GEMMs meet both edge widths, and steps 6-11 drive the
        # same three lines in segments 0 and 1, so one batched GEMM stacks
        # many reads of one count and row count while other groups hold
        # a single read.
        # With the ADC read made the identity, the outputs are the GEMMs'
        # own bits, so any change of GEMM rounding shows (the 6-bit ADC
        # rounds almost all of it away).  Noise still has to be drawn.
        monkeypatch.setattr(
            SRAMCIMMacro,
            "_read_columns",
            lambda self, analog, rng, noise=None: analog
            + (rng.normal(size=analog.shape) if noise is None else noise),
        )
        width, out_features, rows = 10, 6, (1, 3, 2)
        weight = np.random.default_rng(0).normal(size=(width, out_features))
        fused = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        looped = SRAMCIMMacro(weight, rng=np.random.default_rng(1))
        for macro in (fused, looped):
            macro.pin_input_range(3.0)
        rng = np.random.default_rng(4)
        n_steps, batch = 12, sum(rows)
        delta = rng.normal(size=(n_steps, batch, width))
        changed = rng.random((n_steps, len(rows), width)) < 0.5
        changed[6:, :2] = False
        changed[6:, :2, [0, 4, 9]] = True
        changed[0, 0] = False
        changed[0, 0, 7] = True  # k = 1
        changed[1, 1] = True  # k = in_features
        changed[2, 2] = True
        changed[3, 0] = False  # undriven: carries its base
        changed[4, 2] = False
        changed[4, 2, 3] = True
        anchors = {0: rng.normal(size=(batch, out_features))}
        anchors[3] = rng.normal(size=(batch, out_features))
        anchors[3][0, 0] = -0.0
        noise = rng.normal(size=(n_steps, batch, out_features))
        counts = changed.sum(axis=2)
        assert {1, width} <= set(counts.ravel().tolist())
        groups = Counter(
            (int(counts[k, s]), rows[s])
            for k in range(n_steps)
            for s in range(len(rows))
            if counts[k, s]
        )
        assert max(groups.values()) >= 6 and min(groups.values()) == 1

        ledgers = [EnergyLedger() for _ in rows]
        out = fused.matvec_delta_many(
            anchors,
            delta,
            changed,
            rng=np.random.default_rng(3),
            noise=noise if predrawn else None,
            ledgers=list(zip(ledgers, rows)),
        )
        # The rng case draws the driven reads' variates step-major over
        # the whole batch axis; hand the loop those same variates.
        if not predrawn:
            driven = np.repeat(counts > 0, rows, axis=1)
            noise = np.zeros_like(noise)
            noise[driven] = np.random.default_rng(3).normal(
                size=(int(driven.sum()), out_features)
            )
        starts = np.cumsum((0,) + rows)
        for segment, ledger in enumerate(ledgers):
            block = slice(starts[segment], starts[segment + 1])
            scope = looped.ledger.begin_scope()
            expected = []
            for k in range(n_steps):
                base = anchors[k][block] if k in anchors else expected[-1]
                expected.append(
                    looped.matvec_delta(
                        base,
                        delta[k, block],
                        changed[k, segment],
                        noise=noise[k, block],
                    )
                )
            looped.ledger.end_scope(scope)
            expected = np.stack(expected)
            assert np.array_equal(out[:, block], expected)
            assert np.array_equal(np.signbit(out[:, block]), np.signbit(expected))
            assert ledger.operations == scope.operations
            for operation in scope.operations:
                assert ledger.count(operation) == scope.count(operation)
                assert ledger.energy(operation).hex() == scope.energy(
                    operation
                ).hex()
        assert np.signbit(out[3, 0, 0])
        assert fused.ledger.operations == []

    def test_many_segments_must_cover_the_batch(self, rng):
        macro = SRAMCIMMacro(rng.normal(size=(8, 4)), rng=rng)
        with pytest.raises(ValueError, match="ledger segments"):
            macro.matvec_many(
                rng.normal(size=(3, 4, 8)),
                rng=rng,
                ledgers=[(EnergyLedger(), 1), (EnergyLedger(), 2)],
            )
        # Several segments take one mask set each, never a shared one.
        with pytest.raises(ValueError, match="input masks"):
            macro.matvec_many(
                rng.normal(size=(3, 4, 8)),
                input_masks=np.ones((3, 8), dtype=np.uint8),
                rng=rng,
                ledgers=[(EnergyLedger(), 1), (EnergyLedger(), 3)],
            )

"""Design-choice ablations.

- ADC precision sweep for the likelihood array (extends E4);
- MC iteration count vs uncertainty quality and energy (extends E7/E8);
- RNG calibration on/off effect on dropout-mask quality (extends E5);
- tiling on/off map resolution (extends E3/E10, see bench_map_fidelity).
"""

import numpy as np

from repro.circuits import NODE_16NM, NODE_45NM, VoltageEncoder
from repro.core.codesign import hardware_sigma_menu, program_inverter_array
from repro.experiments.common import build_room_world, build_vo_world
from repro.maps.hmgm import HMGMixture
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.bayesian.metrics import error_uncertainty_correlation
from repro.energy.models import cim_mc_dropout_energy
from repro.sram.dropout_gen import DropoutBitGenerator
from repro.sram.macro import MacroConfig
from repro.sram.rng import CrossCoupledInverterRNG
from repro.vo.features import occlude_depth, pose_to_target


def test_adc_precision_sweep(benchmark, table_printer):
    """Likelihood-field fidelity vs log-ADC resolution."""

    def sweep():
        world = build_room_world(seed=7)
        cloud = world.cloud
        rng = np.random.default_rng(0)
        lo, hi = cloud.min(axis=0) - 0.2, cloud.max(axis=0) + 0.2
        encoder = VoltageEncoder(lo=lo, hi=hi, vdd=NODE_45NM.vdd, margin=0.08)
        menu = hardware_sigma_menu(NODE_45NM, encoder)
        mixture = HMGMixture.fit(cloud, 48, rng, sigma_menu=menu)
        points = rng.uniform(lo, hi, size=(600, 3))
        ideal = np.log(mixture.field(points) + 1e-30)
        rows = []
        for bits in (2, 3, 4, 6, 8):
            array, _ = program_inverter_array(
                mixture, encoder, NODE_45NM, total_columns=240, adc_bits=bits
            )
            measured = array.read_log_likelihood(points, encoder)
            rows.append(
                {
                    "adc_bits": bits,
                    "field_correlation": float(np.corrcoef(ideal, measured)[0, 1]),
                    "adc_energy_fJ": NODE_45NM.adc_energy(bits) * 1e15,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer("likelihood fidelity vs ADC precision", rows)
    correlations = [row["field_correlation"] for row in rows]
    # Fidelity must increase with resolution and saturate by ~6 bits.
    assert correlations == sorted(correlations)
    assert correlations[2] > 0.8  # 4-bit (the paper's choice) is adequate
    assert correlations[-1] - correlations[3] < 0.05  # 8b barely beats 6b


def test_mc_iteration_sweep(benchmark, table_printer):
    """Uncertainty quality vs MC iteration count, with predicted energy."""

    def sweep():
        world = build_vo_world()
        pairs = world.dataset.frame_pairs(world.val_scene_index)
        encoder = world.train.encoder
        occ_rng = np.random.default_rng(42)
        features, targets = [], []
        for level in (0.0, 0.3, 0.5):
            for previous, current, relative in pairs:
                depth_prev = occlude_depth(previous.depth, level, occ_rng)
                depth_cur = occlude_depth(current.depth, level, occ_rng)
                features.append(encoder.encode_pair(depth_prev, depth_cur))
                targets.append(pose_to_target(relative))
        features = world.train.feature_scaler.transform(np.stack(features))
        targets = np.stack(targets)
        sizes = (world.train.features.shape[1], 128, 64, 6)
        rows = []
        for iterations in (5, 10, 30, 60):
            predictor = MCDropoutPredictor(
                world.model, n_iterations=iterations, rng=np.random.default_rng(1)
            )
            mc = predictor.predict(features)
            predicted = world.train.scaler.inverse(mc.mean)
            errors = np.linalg.norm(predicted[:, :3] - targets[:, :3], axis=1)
            corr = error_uncertainty_correlation(errors, mc.total_uncertainty())
            energy = cim_mc_dropout_energy(
                MacroConfig(weight_bits=4), sizes, n_iterations=iterations
            )
            rows.append(
                {
                    "iterations": iterations,
                    "spearman": corr["spearman"],
                    "mean_error_m": float(errors.mean()),
                    "energy_nJ": energy * 1e9,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer("uncertainty quality vs MC iterations", rows)
    by_t = {row["iterations"]: row for row in rows}
    assert by_t[30]["spearman"] > 0.25
    # Energy grows with iterations; quality saturates.
    assert by_t[60]["energy_nJ"] > by_t[5]["energy_nJ"]
    assert by_t[60]["spearman"] - by_t[30]["spearman"] < 0.15


def test_rng_calibration_ablation(benchmark, table_printer):
    """Uncalibrated RNG bias skews the dropout rate; calibration fixes it."""

    def sweep():
        rows = []
        for calibrate in (False, True):
            rates = []
            for seed in range(8):
                cell = CrossCoupledInverterRNG(
                    NODE_16NM, rng=np.random.default_rng(seed)
                )
                run = np.random.default_rng(seed + 100)
                if calibrate:
                    cell.calibrate(run)
                generator = DropoutBitGenerator(cell, keep_probability=0.5)
                rates.append(float(generator.mask(2000, run).mean()))
            rates = np.asarray(rates)
            rows.append(
                {
                    "calibrated": calibrate,
                    "mean_keep_rate": float(rates.mean()),
                    "keep_rate_spread": float(np.abs(rates - 0.5).mean()),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer("dropout keep-rate vs RNG calibration", rows)
    uncal, cal = rows[0], rows[1]
    assert cal["keep_rate_spread"] < 0.05
    assert uncal["keep_rate_spread"] > 3 * cal["keep_rate_spread"]

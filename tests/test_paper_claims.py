"""The paper's 16 headline claims, checked on every tier-1 run.

Darabi et al., "Navigating the Unknown: Uncertainty-Aware Compute-in-
Memory Autonomy of Edge Robotics" (DATE 2024, arXiv:2401.17481). Each
test's docstring quotes the claim and states the shape criterion its
asserts check. Thirteen claims run through the experiment registry
(:func:`repro.api.run_experiment`), so they check the numbers
``repro run`` reports; the three design ablations at the end call the
library directly. Rendered worlds and trained models are cached
in-process by :mod:`repro.experiments.common`, so the module builds the
room and VO worlds once each.
"""

import numpy as np

from repro.api import run_experiment
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.bayesian.metrics import error_uncertainty_correlation
from repro.circuits import NODE_16NM, NODE_45NM, VoltageEncoder
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.core.codesign import hardware_sigma_menu, program_inverter_array
from repro.experiments.common import build_room_world, build_vo_world
from repro.maps.hmgm import HMGMixture
from repro.sram.dropout_gen import DropoutBitGenerator
from repro.sram.macro import MacroConfig
from repro.sram.rng import CrossCoupledInverterRNG
from repro.vo.features import occlude_depth, pose_to_target


def _metrics(experiment_id: str, **overrides) -> dict:
    return run_experiment(experiment_id, overrides=overrides or None).metrics


def test_fig2b_switching_current_bells():
    """E1, Fig. 2(b): Gaussian-like 1D switching-current bells whose peak
    follows the programmed center."""
    metrics = _metrics("E1", n_grid=201)
    assert metrics["peak_shift_error_v"] < 0.04


def test_fig2cd_rectilinear_tails():
    """E1, Fig. 2(c,d): HMG contours have rectilinear tails vs Gaussian
    ellipses (iso-contour area / bounding-box area at the 1e-3 level)."""
    hmg_ratio, gauss_ratio = _metrics("E1", n_grid=161)["rectilinearity"]
    assert hmg_ratio > 0.9 > gauss_ratio


def test_fig2_localization_parity():
    """E3, Fig. 2(e-h): the co-designed CIM backend must match digital
    localization accuracy.

    Paper claim: "the co-designed approach achieves a matching accuracy to
    the conventional approach" -- steady-state error of the 4-bit HMGM
    inverter-array backend within 2x of the 8-bit digital GMM baseline.
    """
    rows = _metrics("E3")["rows"]
    steady = {row["substrate"]: row["steady_state_error_m"] for row in rows}
    assert steady["cim"] < 2.0 * steady["digital"] + 0.05
    # All backends must actually localize (sub-meter steady state).
    for substrate, error in steady.items():
        assert error < 1.0, f"{substrate} failed to localize ({error:.2f} m)"


def test_fig2i_energy_ratio():
    """E4, Fig. 2(i): "374 fJ per likelihood at 500 columns / 100
    components, ~25x below the 8-bit digital GMM processor".

    Shape criterion: CIM wins by a factor in the 10-60x band with the
    same workload.
    """
    metrics = _metrics("E4", n_components=100, total_columns=500, n_queries=2000)
    assert 10.0 < metrics["ratio"] < 60.0
    assert metrics["physical_columns"] >= 100


def test_fig3b_rng_calibration():
    """E5, Fig. 3(b): mismatch filtering + noise amplification + bias
    calibration of the SRAM-immersed RNG.

    Shape criteria: (a) raw bits are heavily biased before calibration and
    near-Bernoulli(0.5) after; (b) the mismatch-to-noise ratio falls as
    columns are added (the paper's summation argument); (c) calibrated
    bits show negligible lag-1 autocorrelation.
    """
    rows = _metrics(
        "E5",
        column_sweep=(2, 4, 8, 16, 32),
        n_instances=10,
        bits_per_instance=4096,
    )["rows"]
    for row in rows:
        assert row["bias_after"] < 0.05
        assert row["bias_after"] <= row["bias_before"] + 0.02
        assert row["abs_autocorr_lag1"] < 0.08
    # Mismatch-to-noise improves (falls) with more columns.
    assert rows[-1]["mismatch_to_noise"] < rows[0]["mismatch_to_noise"]


def test_fig3ce_trajectories():
    """E6, Fig. 3(c-e): MC-Dropout on the CIM macro tracks ground truth
    even at low precision; deterministic quantised inference is not better.

    Shape criteria: every mode stays within a bounded ATE on the held-out
    scene, and the 4-bit CIM MC mode is within 2.5x of the float
    deterministic reference (paper: "even with very low precision,
    probabilistic inference can accurately track the ground truth").
    """
    metrics = _metrics(
        "E6",
        modes=(
            "deterministic-float",
            "deterministic-4bit",
            "mc-software",
            "mc-cim-4bit",
            "mc-cim-6bit",
        ),
    )
    ate = metrics["ate_rmse_m"]
    for mode, value in ate.items():
        assert value < 0.6 * metrics["path_length_m"], (
            f"{mode} diverged (ATE {value:.2f} m)"
        )
    assert ate["mc-cim-4bit"] < 2.5 * ate["deterministic-float"] + 0.05


def test_fig3f_error_uncertainty_correlation():
    """E7, Fig. 3(f): "a discernible correlation between error and
    predictive uncertainty" -- uncertainty flags the frames the model gets
    wrong.

    Shape criteria: positive Pearson and Spearman correlation on the
    mixed-difficulty (clean + occluded) test set, and uncertainty rises
    with occlusion severity.
    """
    metrics = _metrics("E7", engine="software")
    corr = metrics["correlation"]
    assert corr["pearson"] > 0.3
    assert corr["spearman"] > 0.3
    # Uncertainty must clearly separate clean from disturbed frames (it
    # saturates between high severities, so strict monotonicity is not
    # required).
    variances = [row["mean_variance"] for row in metrics["rows"]]
    assert variances[-1] > 3.0 * variances[0]


def test_fig3f_cim_engine_preserves_correlation():
    """E7, Fig. 3(f): the correlation must survive 4-bit CIM execution
    (the paper's whole point: uncertainty-awareness at edge precision)."""
    metrics = _metrics("E7", engine="cim-4bit", occlusion_levels=(0.0, 0.3, 0.5))
    assert metrics["correlation"]["pearson"] > 0.25


def test_tops_per_watt_table():
    """E8, Sec. III-D: "3.04 TOPS/W @ 4-bit, ~2 TOPS/W @ 6-bit (16 nm,
    1 GHz, 0.85 V, 30 iterations)".

    Shape criteria: 4-bit beats 6-bit by a factor in the paper's 1.3-1.8
    band, and reuse improves efficiency by > 2x over the reuse-free
    engine. Absolute system-level numbers carry one documented
    calibration factor (``SYSTEM_ENERGY_OVERHEAD_FACTOR`` in
    :mod:`repro.experiments.tops_per_watt`).
    """
    rows = _metrics("E8", weight_bits=(4, 6), n_iterations=30)["rows"]
    by_config = {
        (row["weight_bits"], row["reuse"], row["ordering"]): row for row in rows
    }
    full_4 = by_config[(4, True, True)]
    full_6 = by_config[(6, True, True)]
    plain_4 = by_config[(4, False, False)]
    ratio_46 = full_4["macro_tops_per_watt"] / full_6["macro_tops_per_watt"]
    reuse_gain = full_4["macro_tops_per_watt"] / plain_4["macro_tops_per_watt"]
    assert 1.2 < ratio_46 < 1.9
    assert reuse_gain > 2.0
    assert full_4["executed_fraction"] < 0.5


def test_reuse_ablation_p05():
    """E9, Sec. III-C: executed-MAC fraction of the four engines at
    p = 0.5, T = 30.

    Shape criteria: active-only gating halves the work; delta reuse plus
    ordering cuts it further; ordering strictly shrinks the Hamming path.
    """
    metrics = _metrics(
        "E9", n_inputs=256, n_outputs=128, n_iterations=30, n_trials=5
    )
    fractions = metrics["executed_fraction"]
    assert fractions["active_only"] < 0.55
    assert fractions["reuse_ordered"] <= fractions["reuse"] + 1e-9
    assert fractions["reuse_ordered"] < 0.52
    assert metrics["ordering_path_reduction"] > 0.05


def test_reuse_vs_dropout_rate():
    """E9, Sec. III-C: reuse savings as a function of the keep probability.

    The mask-change rate 2p(1-p) peaks at p = 0.5, so reuse work is
    maximal there.
    """
    reuse = {
        keep: _metrics(
            "E9",
            n_inputs=128,
            n_outputs=64,
            n_iterations=20,
            keep_probability=keep,
            n_trials=3,
        )["executed_fraction"]["reuse"]
        for keep in (0.2, 0.5, 0.8)
    }
    assert reuse[0.5] > reuse[0.2]
    assert reuse[0.5] > reuse[0.8]


def test_map_fidelity():
    """E10, Sec. II-C: hardware-width HMGM maps vs the free GMM.

    Shape criteria: the tiled hardware menu recovers most of the
    log-field correlation with the GMM map (what the particle filter
    consumes), and strictly beats the single-array menu.
    """
    metrics = _metrics("E10")
    corr = metrics["field_correlation_vs_gmm"]
    assert corr["hmgm_tiled"] > corr["hmgm_single"]
    assert corr["hmgm_tiled"] > 0.55
    assert metrics["min_width_m"]["tiled"] < metrics["min_width_m"]["single"]


def test_conformal_vs_mc_dropout():
    """E11, Sec. IV (future work): conformal methods deliver calibrated
    uncertainty without Monte-Carlo iteration.

    Shape criteria: split conformal hits the target coverage within 12
    points using ONE forward pass (vs 30 for MC-Dropout), and adaptive
    conformal restores coverage under the occlusion distribution shift
    where the static quantile under-covers.
    """
    metrics = _metrics("E11")
    conformal = next(r for r in metrics["rows"] if "conformal" in r["method"])
    shift = metrics["shift"]
    # ~20 calibration / 20 test pairs: finite-sample coverage noise is a
    # few points, so the band is correspondingly loose.
    assert abs(conformal["coverage"] - (1 - metrics["alpha"])) < 0.12
    assert conformal["forward_passes"] == 1
    assert (
        shift["adaptive_conformal_coverage"]
        >= shift["static_conformal_coverage"] - 0.02
    )


def test_adc_precision_sweep():
    """Ablation (extends E4): likelihood-field fidelity vs log-ADC
    resolution. The paper's 4-bit ADC is adequate."""
    world = build_room_world(seed=7)
    cloud = world.cloud
    rng = np.random.default_rng(0)
    lo, hi = cloud.min(axis=0) - 0.2, cloud.max(axis=0) + 0.2
    encoder = VoltageEncoder(lo=lo, hi=hi, vdd=NODE_45NM.vdd, margin=0.08)
    menu = hardware_sigma_menu(NODE_45NM, encoder)
    mixture = HMGMixture.fit(cloud, 48, rng, sigma_menu=menu)
    points = rng.uniform(lo, hi, size=(600, 3))
    ideal = np.log(mixture.field(points) + 1e-30)
    correlations = []
    for bits in (2, 3, 4, 6, 8):
        array, _ = program_inverter_array(
            mixture, encoder, NODE_45NM, total_columns=240, adc_bits=bits
        )
        measured = array.read_log_likelihood(points, encoder)
        correlations.append(float(np.corrcoef(ideal, measured)[0, 1]))
    # Fidelity must increase with resolution and saturate by ~6 bits.
    assert correlations == sorted(correlations)
    assert correlations[2] > 0.8  # 4-bit (the paper's choice) is adequate
    assert correlations[-1] - correlations[3] < 0.05  # 8b barely beats 6b


def test_mc_iteration_sweep():
    """Ablation (extends E7/E8): uncertainty quality vs MC iteration
    count, with the CIM engine's metered energy at each count.

    Energy grows with iterations while quality saturates by T = 30.
    """
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
    spearman, energy_j = {}, {}
    for iterations in (5, 10, 30, 60):
        predictor = MCDropoutPredictor(
            world.model, n_iterations=iterations, rng=np.random.default_rng(1)
        )
        mc = predictor.predict(features)
        predicted = world.train.scaler.inverse(mc.mean)
        errors = np.linalg.norm(predicted[:, :3] - targets[:, :3], axis=1)
        corr = error_uncertainty_correlation(errors, mc.variance.mean(axis=1))
        spearman[iterations] = corr["spearman"]
        engine = CIMMCDropoutEngine(
            world.model,
            MacroConfig(weight_bits=4),
            n_iterations=iterations,
            calibration_inputs=world.train.features[:128],
            rng=np.random.default_rng(1),
        )
        result = engine.predict(world.val.features)
        energy_j[iterations] = result.energy.total_energy_j()
    assert spearman[30] > 0.25
    # Energy grows with iterations; quality saturates.
    assert energy_j[60] > energy_j[5]
    assert spearman[60] - spearman[30] < 0.15


def test_rng_calibration_ablation():
    """Ablation (extends E5): uncalibrated RNG bias skews the dropout
    rate; calibration fixes it."""
    spread = {}
    for calibrate in (False, True):
        rates = []
        for seed in range(8):
            cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(seed))
            run = np.random.default_rng(seed + 100)
            if calibrate:
                cell.calibrate(run)
            generator = DropoutBitGenerator(cell, keep_probability=0.5)
            rates.append(float(generator.mask(2000, run).mean()))
        spread[calibrate] = float(np.abs(np.asarray(rates) - 0.5).mean())
    assert spread[True] < 0.05
    assert spread[False] > 3 * spread[True]

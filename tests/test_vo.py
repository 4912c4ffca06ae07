"""Tests for repro.vo: features, models, training, odometry, evaluation."""

import numpy as np
import pytest

from repro.scene.dataset import SyntheticRGBDScenes
from repro.scene.se3 import Pose, matrix_to_euler
from repro.vo import (
    FrameEncoder,
    TargetScaler,
    VODataset,
    VOTrainer,
    ate_rmse,
    build_vo_mlp,
    increments_from_predictions,
    integrate_increments,
    relative_pose_errors,
    trajectory_report,
)
from repro.vo.features import occlude_depth, pose_to_target, target_to_pose


@pytest.fixture(scope="module")
def tiny_dataset():
    ds = SyntheticRGBDScenes(n_scenes=2, frames_per_scene=6, seed=11)
    return VODataset.from_scenes(ds, [0, 1])


class TestFrameEncoder:

    def test_nan_filled_with_max_range(self):
        encoder = FrameEncoder(grid=(2, 2), max_range=5.0)
        depth = np.full((8, 8), np.nan)
        features = encoder.encode_depth(depth)
        assert np.allclose(features, 1.0)

    def test_pair_difference_channel(self):
        encoder = FrameEncoder(grid=(2, 2), max_range=4.0)
        d1 = np.full((8, 8), 2.0)
        d2 = np.full((8, 8), 3.0)
        features = encoder.encode_pair(d1, d2)
        cells = 4
        assert np.allclose(features[:cells], 0.5)
        assert np.allclose(features[cells : 2 * cells], 0.75)
        assert np.allclose(features[2 * cells :], 0.25)

    def test_block_average_trims_the_remainder(self):
        """Rows and columns past the last whole grid block are dropped."""
        encoder = FrameEncoder(grid=(2, 2), max_range=4.0)
        depth = np.full((9, 9), 1.0)
        depth[8, :] = depth[:, 8] = 3.0
        assert np.array_equal(encoder.encode_depth(depth), np.full(4, 0.25))

    def test_occlude_depth_coverage(self, rng):
        depth = np.full((30, 40), 3.0)
        occluded = occlude_depth(depth, 0.25, rng)
        frac = np.mean(occluded < 1.0)
        assert 0.1 < frac < 0.5

    def test_occlude_zero_fraction_is_copy(self, rng):
        depth = np.full((10, 10), 2.0)
        assert np.allclose(occlude_depth(depth, 0.0, rng), depth)


class TestTargets:
    def test_pose_target_round_trip(self):
        pose = Pose.from_euler([0.1, -0.2, 0.05], roll=0.02, pitch=-0.04, yaw=0.3)
        recovered = target_to_pose(pose_to_target(pose))
        assert np.allclose(recovered.rotation, pose.rotation, atol=1e-10)
        assert np.allclose(recovered.translation, pose.translation, atol=1e-10)

    def test_scaler_round_trip(self, rng):
        data = rng.normal(loc=3.0, scale=2.0, size=(100, 6))
        scaler = TargetScaler.fit(data)
        assert np.allclose(scaler.inverse(scaler.transform(data)), data)
        scaled = scaler.transform(data)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


class TestDatasetAndTraining:
    def test_dataset_shapes(self, tiny_dataset):
        assert tiny_dataset.features.shape[0] == tiny_dataset.targets.shape[0]
        assert tiny_dataset.targets.shape[1] == 6
        assert len(tiny_dataset) == sum(tiny_dataset.frame_pairs_per_scene)

    def test_features_standardised(self, tiny_dataset):
        assert abs(tiny_dataset.features.mean()) < 0.1

    def test_training_reduces_loss(self, tiny_dataset, rng):
        model = build_vo_mlp(tiny_dataset.features.shape[1], rng, hidden=(32,))
        trainer = VOTrainer(model, lr=1e-3, batch_size=8)
        history = trainer.fit(tiny_dataset, epochs=15, rng=rng)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_history(self, tiny_dataset, rng):
        model = build_vo_mlp(tiny_dataset.features.shape[1], rng, hidden=(16,))
        trainer = VOTrainer(model, lr=1e-3)
        history = trainer.fit(tiny_dataset, epochs=3, rng=rng, validation=tiny_dataset)
        assert len(history.val_loss) == 3

    def test_mlp_has_dropout(self, rng):
        model = build_vo_mlp(10, rng, hidden=(8, 8))
        assert len(model.dropout_layers()) == 2

    def test_mlp_forward_shape(self, rng):
        model = build_vo_mlp(10, rng, hidden=(8, 6), output_dim=6)
        assert model.forward(rng.normal(size=(5, 10))).shape == (5, 6)
        assert [layer.out_features for layer in model.dense_layers()] == [8, 6, 6]

    def test_mlp_requires_hidden_layer(self, rng):
        with pytest.raises(ValueError):
            build_vo_mlp(10, rng, hidden=())


class TestOdometry:
    def test_integration_matches_ground_truth(self):
        poses = [
            Pose.from_euler([0.1 * k, 0.05 * k, 0.0], yaw=0.1 * k) for k in range(6)
        ]
        increments = [
            poses[k].relative_to(poses[k - 1]) for k in range(1, 6)
        ]
        integrated = integrate_increments(poses[0], increments)
        assert ate_rmse(integrated, poses) < 1e-9

    def test_increments_from_predictions_decoding(self, rng):
        scaler = TargetScaler(mean=np.zeros(6), std=np.ones(6))
        raw = np.array([[0.1, 0.0, 0.0, 0.0, 0.0, 0.2]])
        increments = increments_from_predictions(raw, scaler)
        assert increments[0].translation[0] == pytest.approx(0.1)
        assert matrix_to_euler(increments[0].rotation)[2] == pytest.approx(0.2)

    def test_ate_length_mismatch(self):
        with pytest.raises(ValueError):
            ate_rmse([Pose.identity()], [Pose.identity(), Pose.identity()])

    def test_rpe_zero_for_identical(self):
        poses = [Pose.from_euler([k, 0, 0], yaw=0.1 * k) for k in range(4)]
        t_err, r_err = relative_pose_errors(poses, poses)
        assert np.allclose(t_err, 0.0)
        assert np.allclose(r_err, 0.0, atol=1e-7)

    def test_trajectory_report_keys(self):
        poses = [Pose.from_euler([k, 0, 0]) for k in range(4)]
        noisy = [Pose.from_euler([k + 0.1, 0, 0]) for k in range(4)]
        report = trajectory_report(noisy, poses)
        assert set(report) >= {
            "ate_rmse_m",
            "rpe_trans_mean_m",
            "rpe_rot_mean_rad",
            "final_position_error_m",
        }
        assert report["ate_rmse_m"] == pytest.approx(0.1, abs=1e-9)

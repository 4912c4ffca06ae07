"""Tests for repro.bayesian: masks, MC-dropout, reuse, ordering, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesian import (
    DeltaReuseEngine,
    MaskStream,
    MCDropoutPredictor,
    area_under_sparsification_error,
    error_uncertainty_correlation,
    mask_hamming_path_length,
    optimal_mask_order,
)
from repro.bayesian.ordering import _greedy_orders, _hamming_matrices
from repro.bayesian.reuse import masked_input_sequence
from repro.circuits.technology import NODE_16NM
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.sram import CrossCoupledInverterRNG, DropoutBitGenerator


class TestMaskStream:
    def test_bernoulli_rate(self, rng):
        stream = MaskStream.bernoulli(50, 200, 0.7, rng)
        assert stream.masks.mean() == pytest.approx(0.7, abs=0.03)

    def test_reorder_is_permutation(self, rng):
        stream = MaskStream.bernoulli(10, 5, 0.5, rng)
        order = np.array([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        reordered = stream.reordered(order)
        assert np.array_equal(reordered.masks, stream.masks[::-1])

    def test_reorder_validates(self, rng):
        stream = MaskStream.bernoulli(5, 3, 0.5, rng)
        with pytest.raises(ValueError):
            stream.reordered(np.array([0, 0, 1, 2, 3]))

    def test_concatenate_widths(self, rng):
        a = MaskStream.bernoulli(5, 3, 0.5, rng)
        b = MaskStream.bernoulli(5, 4, 0.5, rng)
        assert a.concatenate(b).width == 7

    def test_concatenate_rejects_iteration_mismatch(self, rng):
        a = MaskStream.bernoulli(5, 3, 0.5, rng)
        b = MaskStream.bernoulli(4, 3, 0.5, rng)
        with pytest.raises(ValueError, match="iteration"):
            a.concatenate(b)

    def test_from_hardware_matches_generator_masks(self):
        def generator():
            cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(2))
            return DropoutBitGenerator(cell, keep_probability=0.5)

        stream = MaskStream.from_hardware(generator(), 6, 9, np.random.default_rng(3))
        expected = generator().masks(6, 9, np.random.default_rng(3))
        assert np.array_equal(stream.masks, expected)
        assert stream.keep_probability == 0.5

    def test_binary_validation(self):
        with pytest.raises(ValueError):
            MaskStream(np.array([[0, 2]]), 0.5)


def _toy_model(rng):
    return Sequential(
        [
            Dense(6, 16, rng),
            ReLU(),
            Dropout(0.5, rng=rng),
            Dense(16, 3, rng),
        ]
    )


class TestMCDropout:
    def test_statistics_shapes(self, rng):
        model = _toy_model(rng)
        predictor = MCDropoutPredictor(model, n_iterations=20, rng=rng)
        prediction = predictor.predict(rng.normal(size=(5, 6)))
        assert prediction.mean.shape == (5, 3)
        assert prediction.variance.shape == (5, 3)
        assert prediction.samples.shape == (20, 5, 3)
        assert np.all(prediction.variance >= 0)

    def test_variance_positive_with_dropout(self, rng):
        model = _toy_model(rng)
        predictor = MCDropoutPredictor(model, n_iterations=30, rng=rng)
        prediction = predictor.predict(rng.normal(size=(3, 6)))
        assert prediction.variance.mean() > 0

    def test_deterministic_is_repeatable(self, rng):
        model = _toy_model(rng)
        predictor = MCDropoutPredictor(model, rng=rng)
        x = rng.normal(size=(2, 6))
        assert np.allclose(predictor.deterministic(x), predictor.deterministic(x))

    def test_pinned_streams_reproduce(self, rng):
        model = _toy_model(rng)
        predictor = MCDropoutPredictor(model, n_iterations=8, rng=rng)
        stream = MaskStream.bernoulli(8, 16, 0.5, rng)
        x = rng.normal(size=(2, 6))
        a = predictor.predict(x, mask_streams=[stream])
        b = predictor.predict(x, mask_streams=[stream])
        assert np.allclose(a.samples, b.samples)

    def test_rejects_model_without_dropout(self, rng):
        model = Sequential([Dense(3, 2, rng)])
        with pytest.raises(ValueError):
            MCDropoutPredictor(model)

    def test_mc_mode_restored_after_predict(self, rng):
        model = _toy_model(rng)
        predictor = MCDropoutPredictor(model, n_iterations=3, rng=rng)
        predictor.predict(rng.normal(size=(1, 6)))
        assert not model.dropout_layers()[0].mc_mode


class TestDeltaReuse:
    def test_exactness_against_direct(self, rng):
        weight = rng.normal(size=(40, 16))
        stream = MaskStream.bernoulli(20, 40, 0.5, rng)
        x = rng.normal(size=40)
        inputs = masked_input_sequence(x, stream.masks)
        products, stats = DeltaReuseEngine(weight).run(inputs)
        assert np.allclose(products, inputs @ weight, atol=1e-9)
        assert stats.ops_executed < stats.ops_naive

    def test_savings_vs_active_only(self, rng):
        weight = rng.normal(size=(100, 30))
        stream = MaskStream.bernoulli(30, 100, 0.5, rng)
        x = rng.normal(size=100)
        _, stats = DeltaReuseEngine(weight).run(masked_input_sequence(x, stream.masks))
        # reuse touches ~p(1-p)*2 = 0.5 of inputs per step; active-only
        # touches p = 0.5 -- they tie in expectation for p=0.5, but the
        # first full pass makes reuse strictly better than naive.
        assert stats.ops_executed < 0.7 * stats.ops_naive

    def test_identical_masks_cost_one_pass(self, rng):
        weight = rng.normal(size=(20, 8))
        masks = np.ones((10, 20), dtype=np.uint8)
        x = rng.normal(size=20)
        _, stats = DeltaReuseEngine(weight).run(masked_input_sequence(x, masks))
        assert stats.columns_touched == 20  # only iteration 0

    def test_stats_count_each_kind_of_work(self):
        weight = np.ones((4, 3))
        masks = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 1, 1]])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        _, stats = DeltaReuseEngine(weight).run(masked_input_sequence(x, masks))
        # iteration 0 drives 2 columns, then 1 change, then 2 changes
        assert stats.columns_touched == 2 + 1 + 2
        assert stats.ops_executed == 5 * 3
        assert stats.ops_naive == 3 * 4 * 3
        assert stats.ops_active_only == (2 + 1 + 3) * 3

    def test_tolerance_validation(self, rng):
        with pytest.raises(ValueError):
            DeltaReuseEngine(rng.normal(size=(4, 4)), tolerance=-1.0)

    @given(st.integers(2, 12), st.integers(2, 20))
    @settings(max_examples=15, deadline=None)
    def test_exactness_property(self, n_iter, width):
        rng = np.random.default_rng(n_iter * 100 + width)
        weight = rng.normal(size=(width, 3))
        masks = (rng.random((n_iter, width)) < 0.5).astype(np.uint8)
        x = rng.normal(size=width)
        inputs = masked_input_sequence(x, masks)
        products, _ = DeltaReuseEngine(weight).run(inputs)
        assert np.allclose(products, inputs @ weight, atol=1e-9)


def _greedy(masks):
    """The batched search's greedy order for one mask set."""
    return _greedy_orders(_hamming_matrices(masks[None]))[0]


class TestOrdering:
    def test_greedy_reduces_path(self, rng):
        masks = (rng.random((25, 64)) < 0.5).astype(np.uint8)
        base = mask_hamming_path_length(masks)
        order = _greedy(masks)
        assert mask_hamming_path_length(masks, order) <= base

    @pytest.mark.parametrize("depth", [3, 12, 40])
    def test_returns_permutation(self, depth, rng):
        masks = (rng.random((depth, 32)) < 0.5).astype(np.uint8)
        order = optimal_mask_order(masks)
        assert sorted(order.tolist()) == list(range(depth))

    def test_two_opt_not_worse_than_greedy(self, rng):
        masks = (rng.random((20, 48)) < 0.5).astype(np.uint8)
        greedy = mask_hamming_path_length(
            masks, _greedy(masks)
        )
        polished = mask_hamming_path_length(masks, optimal_mask_order(masks))
        assert polished <= greedy

    def test_trivial_sizes(self):
        assert np.array_equal(optimal_mask_order(np.zeros((1, 4))), [0])
        assert np.array_equal(optimal_mask_order(np.zeros((2, 4))), [0, 1])

    def test_clustered_masks_get_big_reduction(self, rng):
        # two tight clusters interleaved: optimal order should visit each
        # cluster contiguously.
        a = np.zeros((10, 50), dtype=np.uint8)
        b = np.ones((10, 50), dtype=np.uint8)
        masks = np.empty((20, 50), dtype=np.uint8)
        masks[0::2] = a
        masks[1::2] = b
        base = mask_hamming_path_length(masks)
        order = optimal_mask_order(masks)
        assert mask_hamming_path_length(masks, order) <= base // 10


class TestMetrics:
    def test_correlation_perfect_monotone(self):
        errors = np.linspace(0, 1, 50)
        stats = error_uncertainty_correlation(errors, errors**2)
        assert stats["spearman"] == pytest.approx(1.0)

    def test_correlation_anticorrelated(self):
        errors = np.linspace(0, 1, 50)
        stats = error_uncertainty_correlation(errors, 1.0 - errors)
        assert stats["pearson"] == pytest.approx(-1.0)
        assert stats["spearman"] == pytest.approx(-1.0)

    def test_correlation_length_mismatch(self):
        with pytest.raises(ValueError):
            error_uncertainty_correlation(np.ones(5), np.ones(4))

    def test_correlation_requires_samples(self):
        with pytest.raises(ValueError):
            error_uncertainty_correlation([1.0], [1.0])

    def test_ause_perfect_ranking_near_zero(self):
        errors = np.linspace(0.1, 1.0, 100)
        assert area_under_sparsification_error(errors, errors) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_ause_requires_samples(self):
        with pytest.raises(ValueError):
            area_under_sparsification_error(np.ones(3), np.ones(3))

    def test_ause_zero_errors_is_zero(self, rng):
        assert area_under_sparsification_error(np.zeros(20), rng.uniform(size=20)) == 0.0

    def test_ause_inverted_ranking_worse_than_random(self, rng):
        errors = rng.uniform(size=200)
        inverted = area_under_sparsification_error(errors, -errors)
        random = area_under_sparsification_error(errors, rng.uniform(size=200))
        assert inverted > random

    def test_ause_random_ranking_positive(self, rng):
        errors = rng.uniform(size=200)
        uncertainties = rng.uniform(size=200)
        assert area_under_sparsification_error(errors, uncertainties) > 0.01

"""Tests for repro.nn: layers, gradients, optimizers, quantisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dense,
    Dropout,
    LeakyReLU,
    MSELoss,
    QuantizationSpec,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    dequantize,
    quantize,
    quantize_model_weights,
    xavier_uniform,
)


def numeric_gradient(f, parameter, indices, eps=1e-6):
    grads = []
    for idx in indices:
        parameter.value[idx] += eps
        up = f()
        parameter.value[idx] -= 2 * eps
        down = f()
        parameter.value[idx] += eps
        grads.append((up - down) / (2 * eps))
    return np.array(grads)


class TestGradients:
    """Finite-difference checks for every layer's backward pass."""

    def _check(self, net, x, y, n_checks=6):
        loss_fn = MSELoss()

        def forward():
            return loss_fn(net.forward(x), y)[0]

        _, grad = loss_fn(net.forward(x), y)
        net.zero_grad()
        net.backward(grad)
        rng = np.random.default_rng(0)
        for parameter in net.parameters():
            flat = [
                tuple(rng.integers(0, s) for s in parameter.value.shape)
                for _ in range(n_checks)
            ]
            numeric = numeric_gradient(forward, parameter, flat)
            analytic = np.array([parameter.grad[idx] for idx in flat])
            assert np.allclose(numeric, analytic, atol=1e-6), parameter.name

    def test_dense(self, rng):
        net = Sequential([Dense(4, 3, rng)])
        self._check(net, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)))

    @pytest.mark.parametrize("act", [ReLU, Tanh, Sigmoid, LeakyReLU])
    def test_activations(self, act, rng):
        net = Sequential([Dense(4, 6, rng), act(), Dense(6, 2, rng)])
        self._check(net, rng.normal(size=(3, 4)) + 0.05, rng.normal(size=(3, 2)))

    def test_dense_parameters_are_weight_and_bias(self, rng):
        dense = Dense(4, 3, rng)
        assert Sequential([dense]).parameters() == [dense.weight, dense.bias]
        assert np.array_equal(dense.bias.value, np.zeros(3))

    def test_pinned_dropout_network(self, rng):
        dropout = Dropout(0.5, rng=rng)
        dropout.pin_mask(np.array([1, 0, 1, 1, 0, 1]))
        net = Sequential([Dense(4, 6, rng), Tanh(), dropout, Dense(6, 2, rng)])
        self._check(net, rng.normal(size=(3, 4)), rng.normal(size=(3, 2)))

    def test_input_gradient_matches_finite_differences(self, rng):
        net = Sequential([Dense(4, 5, rng), Sigmoid(), Dense(5, 2, rng)])
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 2))
        loss_fn = MSELoss()
        _, grad = loss_fn(net.forward(x), y)
        analytic = net.backward(grad)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            up, down = x.copy(), x.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric[idx] = (
                loss_fn(net.forward(up), y)[0] - loss_fn(net.forward(down), y)[0]
            ) / (2 * eps)
        assert np.allclose(numeric, analytic, atol=1e-7)

    def test_dropout_gradient_uses_mask(self, rng):
        dropout = Dropout(0.5, rng=rng)
        x = rng.normal(size=(4, 6))
        out = dropout.forward(x)
        grad_in = dropout.backward(np.ones_like(out))
        # forward scales kept units by 1/p, so d(out)/dx = out / x.
        assert np.allclose(grad_in, out / x)


class TestLayerBehaviour:
    def test_dense_shape_validation(self, rng):
        layer = Dense(4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "make_layer",
        [
            lambda rng: Dense(2, 2, rng),
            lambda rng: ReLU(),
            lambda rng: LeakyReLU(),
            lambda rng: Tanh(),
            lambda rng: Sigmoid(),
        ],
        ids=["dense", "relu", "leaky_relu", "tanh", "sigmoid"],
    )
    def test_backward_before_forward_rejected(self, make_layer, rng):
        with pytest.raises(RuntimeError):
            make_layer(rng).backward(np.ones((1, 2)))

    def test_dense_feature_count_validation(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)

    def test_leaky_relu_slope(self):
        layer = LeakyReLU(negative_slope=0.2)
        assert np.allclose(layer.forward(np.array([[-2.0, 3.0]])), [[-0.4, 3.0]])
        with pytest.raises(ValueError):
            LeakyReLU(negative_slope=-0.1)

    def test_dropout_probability_validation(self):
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError):
                Dropout(p)

    def test_relu_zeroes_negative(self):
        relu = ReLU()
        assert np.allclose(relu.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_dropout_eval_mode_identity(self, rng):
        dropout = Dropout(0.5, rng=rng)
        dropout.eval()
        x = rng.normal(size=(3, 4))
        assert np.allclose(dropout.forward(x), x)

    def test_dropout_mc_mode_active_in_eval(self, rng):
        dropout = Dropout(0.5, rng=rng, mc_mode=True)
        dropout.eval()
        x = np.ones((1, 1000))
        out = dropout.forward(x)
        assert (out == 0).mean() == pytest.approx(0.5, abs=0.06)

    def test_dropout_pinned_mask(self, rng):
        dropout = Dropout(0.5, rng=rng)
        mask = np.array([1, 0, 1, 0])
        dropout.pin_mask(mask)
        out = dropout.forward(np.ones((2, 4)))
        assert np.allclose(out, [[2, 0, 2, 0], [2, 0, 2, 0]])

    def test_dropout_mask_validation(self, rng):
        dropout = Dropout(0.5, rng=rng)
        with pytest.raises(ValueError):
            dropout.pin_mask(np.array([0.5, 1.0]))

    def test_dropout_inverted_scaling_preserves_mean(self, rng):
        dropout = Dropout(0.5, rng=rng)
        x = np.ones((1, 20000))
        out = dropout.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.03)

    def test_sequential_train_eval_propagates(self, rng):
        net = Sequential([Dense(2, 2, rng), Dropout(0.5, rng=rng)])
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training

    def test_sequential_utilities(self, rng):
        net = Sequential([Dense(2, 3, rng), ReLU(), Dropout(0.5), Dense(3, 1, rng)])
        assert len(net.dense_layers()) == 2
        assert len(net.dropout_layers()) == 1
        assert len(net) == 4
        assert isinstance(net[1], ReLU)


class TestLosses:
    def test_mse_zero_at_target(self, rng):
        y = rng.normal(size=(3, 2))
        loss, grad = MSELoss()(y, y)
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_mse_gradient_numeric(self, rng):
        predictions = rng.normal(size=(4, 3))
        targets = rng.normal(size=(4, 3))
        loss, grad = MSELoss()(predictions, targets)
        assert loss == pytest.approx(np.mean((predictions - targets) ** 2))
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            up, down = predictions.copy(), predictions.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric = (MSELoss()(up, targets)[0] - MSELoss()(down, targets)[0]) / (
                2 * eps
            )
            assert numeric == pytest.approx(grad[idx], abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MSELoss()(np.zeros((2, 2)), np.zeros((2, 3)))


class TestOptimizers:
    def _quadratic_problem(self, optimizer_factory, steps=200):
        rng = np.random.default_rng(0)
        net = Sequential([Dense(3, 1, rng)])
        target_w = np.array([[1.0], [-2.0], [0.5]])
        x = rng.normal(size=(64, 3))
        y = x @ target_w
        optimizer = optimizer_factory(net.parameters())
        loss_fn = MSELoss()
        for _ in range(steps):
            out = net.forward(x)
            _, grad = loss_fn(out, y)
            optimizer.zero_grad()
            net.backward(grad)
            optimizer.step()
        return net.parameters()[0].value, target_w

    def test_adam_converges(self):
        w, target = self._quadratic_problem(lambda p: Adam(p, lr=0.05))
        assert np.allclose(w, target, atol=0.02)

    def test_weight_decay_shrinks(self, rng):
        net = Sequential([Dense(2, 2, rng)])
        net.parameters()[0].value[:] = 10.0
        optimizer = Adam(net.parameters(), lr=0.1, weight_decay=1.0)
        net.zero_grad()
        optimizer.step()
        assert np.all(np.abs(net.parameters()[0].value) < 10.0)

    def test_first_step_moves_each_weight_by_lr(self, rng):
        # Bias-corrected Adam's first update is lr * sign(grad) (up to eps).
        net = Sequential([Dense(3, 2, rng)])
        before = net.parameters()[0].value.copy()
        x = rng.normal(size=(8, 3))
        _, grad = MSELoss()(net.forward(x), rng.normal(size=(8, 2)))
        optimizer = Adam(net.parameters(), lr=0.01)
        optimizer.zero_grad()
        net.backward(grad)
        sign = np.sign(net.parameters()[0].grad)
        optimizer.step()
        assert np.allclose(before - net.parameters()[0].value, 0.01 * sign, atol=1e-6)

    def test_zero_grad_clears_gradients(self, rng):
        net = Sequential([Dense(3, 2, rng)])
        net.forward(rng.normal(size=(2, 3)))
        net.backward(np.ones((2, 2)))
        optimizer = Adam(net.parameters())
        assert any(np.any(p.grad != 0) for p in net.parameters())
        optimizer.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())

    def test_lr_validation(self, rng):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestInit:
    def test_xavier_bounds(self, rng):
        w = xavier_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit

    def test_xavier_gain_scales_limit(self):
        base = xavier_uniform((40, 60), np.random.default_rng(3))
        scaled = xavier_uniform((40, 60), np.random.default_rng(3), gain=2.0)
        assert np.allclose(scaled, 2.0 * base)

    def test_xavier_vector_shape(self, rng):
        w = xavier_uniform((50,), rng)
        assert w.shape == (50,)
        assert np.abs(w).max() <= np.sqrt(6.0 / 100)

    def test_xavier_rejects_higher_rank_shapes(self, rng):
        with pytest.raises(ValueError):
            xavier_uniform((3, 3, 3), rng)


class TestQuantization:
    def test_round_trip_error_bounded(self, rng):
        tensor = rng.normal(size=(20, 20))
        spec = QuantizationSpec.for_tensor(tensor, 8)
        reconstructed = dequantize(quantize(tensor, spec), spec)
        assert np.max(np.abs(reconstructed - tensor)) <= spec.scale / 2 + 1e-12

    def test_error_decreases_with_bits(self, rng):
        tensor = rng.normal(size=(50,))
        specs = [QuantizationSpec.for_tensor(tensor, b) for b in (3, 5, 8)]
        errors = [
            np.sqrt(np.mean((dequantize(quantize(tensor, s), s) - tensor) ** 2))
            for s in specs
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_clipping_symmetric(self):
        spec = QuantizationSpec(bits=4, max_value=1.0)
        codes = quantize(np.array([10.0, -10.0]), spec)
        assert codes[0] == spec.levels and codes[1] == -spec.levels

    @given(st.integers(2, 10), st.floats(0.1, 100.0))
    @settings(max_examples=30)
    def test_levels_formula(self, bits, max_value):
        spec = QuantizationSpec(bits=bits, max_value=max_value)
        assert spec.levels == 2 ** (bits - 1) - 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantizationSpec(bits=1, max_value=1.0)
        with pytest.raises(ValueError):
            QuantizationSpec(bits=8, max_value=0.0)

    def test_for_tensor_all_zero_uses_unit_scale(self):
        spec = QuantizationSpec.for_tensor(np.zeros(5), 4)
        assert spec.max_value == 1.0
        assert np.all(quantize(np.zeros(5), spec) == 0)

    def test_quantize_model_in_place(self, rng):
        net = Sequential([Dense(4, 4, rng)])
        original = net.parameters()[0].value.copy()
        specs = quantize_model_weights(net, 4)
        assert len(specs) == 2  # weight + bias
        assert not np.allclose(net.parameters()[0].value, original)

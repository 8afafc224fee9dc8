"""Tests for layers, optimizers, losses and initialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dense,
    GCNConv,
    SGD,
    Sequential,
    Tensor,
    binary_cross_entropy,
    cross_entropy,
    glorot_uniform,
    he_normal,
    nll_loss,
    nll_loss_from_probs,
    zeros_init,
)


class TestInit:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        weights = glorot_uniform(100, 50, rng)
        limit = np.sqrt(6.0 / 150)
        assert weights.shape == (100, 50)
        assert np.abs(weights).max() <= limit

    def test_he_scale(self):
        rng = np.random.default_rng(0)
        weights = he_normal(10_000, 10, rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 10_000), rel=0.05)

    def test_zeros(self):
        assert zeros_init(3, 4, np.random.default_rng(0)).sum() == 0


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_relu_activation_applied(self):
        layer = Dense(4, 4, activation="relu", rng=np.random.default_rng(0))
        out = layer(Tensor(np.random.default_rng(1).normal(size=(10, 4))))
        assert (out.numpy() >= 0).all()

    def test_sigmoid_activation_bounded(self):
        layer = Dense(4, 2, activation="sigmoid", rng=np.random.default_rng(0))
        out = layer(Tensor(np.random.default_rng(1).normal(size=(10, 4)) * 10))
        assert (out.numpy() > 0).all() and (out.numpy() < 1).all()

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Dense(3, 3, activation="swish")

    def test_parameters_discovered(self):
        layer = Dense(3, 2)
        params = layer.parameters()
        assert len(params) == 2  # weight + bias

    def test_sequential_chains(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Dense(4, 8, activation="relu", rng=rng), Dense(8, 2, rng=rng)
        )
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(model.parameters()) == 4


class TestGCNConv:
    def test_propagation_mixes_neighbours(self):
        conv = GCNConv(2, 2, activation="linear", rng=np.random.default_rng(0))
        # Two nodes connected: output of node 0 must depend on node 1's input.
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        a_hat = Tensor(np.full(4, 0.5))
        x1 = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        x2 = Tensor(np.array([[1.0, 0.0], [5.0, 0.0]]))
        out1 = conv.edge_weighted(rows, cols, a_hat, x1).numpy()
        out2 = conv.edge_weighted(rows, cols, a_hat, x2).numpy()
        assert not np.allclose(out1[0], out2[0])

    def test_isolated_node_unaffected_by_others(self):
        conv = GCNConv(2, 3, activation="linear", rng=np.random.default_rng(0))
        rows = cols = np.array([0, 1])  # Â = I
        a_hat = Tensor(np.ones(2))
        x1 = Tensor(np.array([[1.0, 2.0], [0.0, 0.0]]))
        x2 = Tensor(np.array([[1.0, 2.0], [9.0, -9.0]]))
        np.testing.assert_allclose(
            conv.edge_weighted(rows, cols, a_hat, x1).numpy()[0],
            conv.edge_weighted(rows, cols, a_hat, x2).numpy()[0],
        )


class TestOptimizers:
    def quadratic_problem(self):
        target = np.array([3.0, -2.0])
        param = Tensor(np.zeros(2), requires_grad=True)
        return param, target

    def test_sgd_converges_on_quadratic(self):
        param, target = self.quadratic_problem()
        optimizer = SGD([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        param, target = self.quadratic_problem()
        optimizer = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            optimizer.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_adam_converges_on_quadratic(self):
        param, target = self.quadratic_problem()
        optimizer = Adam([param], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_skips_parameters_without_grad(self):
        used = Tensor(np.zeros(1), requires_grad=True)
        unused = Tensor(np.ones(1), requires_grad=True)
        optimizer = Adam([used, unused], lr=0.1)
        optimizer.zero_grad()
        (used * 2.0).sum().backward()
        optimizer.step()
        np.testing.assert_array_equal(unused.data, np.ones(1))

    def test_weight_decay_shrinks(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()  # zero task gradient
            optimizer.step()
        assert abs(param.data[0]) < 10.0

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam([])


class TestLosses:
    def test_nll_from_probs_matches_definition(self):
        probs = Tensor(np.array([0.1, 0.7, 0.2]))
        loss = nll_loss_from_probs(probs, 1)
        assert loss.item() == pytest.approx(-np.log(0.7 + 1e-20))

    def test_nll_from_probs_zero_probability_is_finite(self):
        """The paper's +1e-20 bias keeps log(0) out of the loss."""
        probs = Tensor(np.array([1.0, 0.0]))
        loss = nll_loss_from_probs(probs, 1)
        assert np.isfinite(loss.item())

    def test_cross_entropy_matches_nll_of_log_softmax(self):
        logits = Tensor(np.array([1.0, 2.0, -1.0]))
        ce = cross_entropy(logits, 2).item()
        manual = -(logits.log_softmax().numpy()[2])
        assert ce == pytest.approx(manual)

    def test_nll_loss_picks_target(self):
        log_probs = Tensor(np.log(np.array([0.25, 0.5, 0.25])))
        assert nll_loss(log_probs, 1).item() == pytest.approx(-np.log(0.5))

    def test_binary_cross_entropy_perfect_prediction(self):
        probs = Tensor(np.array([1.0, 0.0]))
        loss = binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_binary_cross_entropy_gradient_direction(self):
        logits = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        probs = logits.sigmoid()
        loss = binary_cross_entropy(probs, np.array([1.0, 0.0]))
        loss.backward()
        # Pushing the first logit up and the second down lowers the loss.
        assert logits.grad[0] < 0
        assert logits.grad[1] > 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), classes=st.integers(2, 8))
def test_property_cross_entropy_nonnegative(seed, classes):
    rng = np.random.default_rng(seed)
    logits = Tensor(np.asarray(rng.normal(size=classes)))
    target = int(rng.integers(0, classes))
    assert cross_entropy(logits, target).item() >= 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_dense_gradcheck(seed):
    """Dense-layer weight gradients match finite differences."""
    rng = np.random.default_rng(seed)
    layer = Dense(3, 2, activation="tanh", rng=rng)
    x = np.asarray(rng.normal(size=(4, 3)))

    out = layer(Tensor(x)).sum()
    out.backward()
    analytic = layer.weight.grad.copy()

    eps = 1e-6
    numeric = np.zeros_like(layer.weight.data)
    for i in range(3):
        for j in range(2):
            original = layer.weight.data[i, j]
            layer.weight.data[i, j] = original + eps
            plus = layer(Tensor(x)).sum().item()
            layer.weight.data[i, j] = original - eps
            minus = layer(Tensor(x)).sum().item()
            layer.weight.data[i, j] = original
            numeric[i, j] = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, atol=1e-4)

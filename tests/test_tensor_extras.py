"""Tests for the logsumexp and stacking tensor ops, and for the dense
reference's ``scatter2d``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.tensor import stack_rows
from tests.reference_training import scatter2d


class TestStackRows:
    def test_stacks_vectors_into_matrix(self):
        rows = [Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))]
        out = stack_rows(rows)
        np.testing.assert_array_equal(out.numpy(), [[1.0, 2.0], [3.0, 4.0]])

    def test_gradient_routes_to_each_row(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (stack_rows([a, b]) * Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 2.0])


class TestScatter2d:
    def test_forward_places_values(self):
        values = Tensor(np.array([1.0, 2.0, 3.0]))
        out = scatter2d(values, (3, 3), np.array([0, 1, 2]), np.array([2, 0, 1]))
        expected = np.zeros((3, 3))
        expected[0, 2], expected[1, 0], expected[2, 1] = 1.0, 2.0, 3.0
        np.testing.assert_array_equal(out.numpy(), expected)

    def test_gradient_gathers(self):
        values = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = scatter2d(values, (2, 2), np.array([0, 1]), np.array([1, 0]))
        (out * Tensor(np.array([[0.0, 3.0], [5.0, 0.0]]))).sum().backward()
        np.testing.assert_array_equal(values.grad, [3.0, 5.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            scatter2d(Tensor(np.array([1.0])), (2, 2), np.array([0, 1]), np.array([0, 1]))

    def test_empty_scatter(self):
        out = scatter2d(Tensor(np.zeros(0)), (2, 2), np.zeros(0, int), np.zeros(0, int))
        np.testing.assert_array_equal(out.numpy(), np.zeros((2, 2)))


class TestLogSumExp:
    def test_matches_numpy_reference(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = Tensor(x).logsumexp(axis=0).numpy()
        reference = np.log(np.exp(x).sum(axis=0))
        np.testing.assert_allclose(out, reference, atol=1e-10)

    def test_beta_sharpens_toward_max(self):
        x = np.array([[0.0], [1.0], [3.0]])
        soft = Tensor(x).logsumexp(axis=0, beta=1.0).numpy()
        sharp = Tensor(x).logsumexp(axis=0, beta=50.0).numpy()
        assert abs(sharp[0] - 3.0) < abs(soft[0] - 3.0)
        assert sharp[0] >= 3.0  # LSE upper-bounds the max

    def test_numerically_stable_for_large_values(self):
        x = Tensor(np.array([1000.0, 1001.0]))
        out = x.logsumexp(axis=0, beta=1.0).numpy()
        assert np.isfinite(out).all()
        assert out == pytest.approx(1001.0 + np.log(1 + np.exp(-1)), abs=1e-6)

    def test_gradient_is_softmax(self):
        x = Tensor(np.array([0.5, 1.5, -1.0]), requires_grad=True)
        x.logsumexp(axis=0, beta=2.0).backward()
        expected = np.exp(2.0 * x.data) / np.exp(2.0 * x.data).sum()
        np.testing.assert_allclose(x.grad, expected, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), beta=st.floats(0.5, 8.0))
def test_property_lse_bounds_max(seed, beta):
    """max(x) <= LSE_beta(x) <= max(x) + log(n)/beta."""
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.normal(size=6))
    value = float(Tensor(x).logsumexp(axis=0, beta=beta).numpy())
    assert value >= x.max() - 1e-9
    assert value <= x.max() + np.log(len(x)) / beta + 1e-9

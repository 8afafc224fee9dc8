"""Tests for the reverse-mode autograd engine.

The gradient of every op is checked against central finite differences,
both on hand-picked cases and via hypothesis-generated random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acfg import ACFG
from repro.gnn.normalize import block_normalized_csr
from repro.nn import (
    CSRMatrix,
    Tensor,
    cross_entropy_batch,
    csr_matmul,
    no_grad,
    segment_max,
    segment_sum,
)


def finite_diff(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient of ``build(Tensor)`` to finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = finite_diff(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=1e-4)


class TestElementwiseOps:
    def test_add_gradient(self):
        check_gradient(lambda t: (t + 3.0).sum(), np.array([[1.0, -2.0], [0.5, 4.0]]))

    def test_mul_gradient(self):
        check_gradient(lambda t: (t * t).sum(), np.array([[1.0, -2.0], [0.5, 4.0]]))

    def test_div_gradient(self):
        check_gradient(lambda t: (t / 2.5).sum(), np.array([[1.0, -2.0]]))

    def test_rdiv_gradient(self):
        check_gradient(lambda t: (1.0 / t).sum(), np.array([[1.0, -2.0, 0.5]]))

    def test_pow_gradient(self):
        check_gradient(lambda t: (t**3).sum(), np.array([1.0, 2.0, -1.5]))

    def test_neg_and_sub(self):
        check_gradient(lambda t: (5.0 - t).sum(), np.array([1.0, 2.0]))

    def test_relu_gradient(self):
        check_gradient(lambda t: t.relu().sum(), np.array([1.0, -2.0, 0.5, -0.1]))

    def test_sigmoid_gradient(self):
        check_gradient(lambda t: t.sigmoid().sum(), np.array([-3.0, 0.0, 2.0, 50.0]))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-800.0, 800.0]))
        out = t.sigmoid().numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_tanh_gradient(self):
        check_gradient(lambda t: t.tanh().sum(), np.array([-1.0, 0.0, 0.7]))

    def test_exp_gradient(self):
        check_gradient(lambda t: t.exp().sum(), np.array([-1.0, 0.0, 1.5]))

    def test_log_gradient_with_bias(self):
        check_gradient(lambda t: t.log(eps=1e-3).sum(), np.array([0.5, 1.0, 2.0]))


class TestMatrixOps:
    def test_matmul_gradient_left(self):
        rng = np.random.default_rng(0)
        b = np.asarray(rng.normal(size=(3, 2)))
        check_gradient(lambda t: (t @ Tensor(b)).sum(), np.asarray(rng.normal(size=(4, 3))))

    def test_matmul_gradient_right(self):
        rng = np.random.default_rng(1)
        a = np.asarray(rng.normal(size=(4, 3)))
        check_gradient(lambda t: (Tensor(a) @ t).sum(), np.asarray(rng.normal(size=(3, 2))))

    def test_transpose_gradient(self):
        check_gradient(lambda t: (t.T * 2.0).sum(), np.arange(6.0).reshape(2, 3))

    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(3, 2) ** 2).sum(), np.arange(6.0).reshape(2, 3))

    def test_getitem_gradient(self):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(), np.arange(9.0).reshape(3, 3))

    def test_concatenate_gradient(self):
        a = np.array([[1.0, 2.0]])

        def build(t):
            return Tensor.concatenate([t, Tensor(a)], axis=0).sum()

        check_gradient(build, np.array([[3.0, 4.0]]))


class TestBroadcasting:
    def test_bias_broadcast_gradient(self):
        x = np.asarray(np.random.default_rng(2).normal(size=(5, 3)))
        check_gradient(lambda t: (Tensor(x) + t).sum(), np.zeros((1, 3)))

    def test_scalar_broadcast(self):
        check_gradient(lambda t: (t * np.ones((4, 4))).sum(), np.array(2.0))

    def test_row_times_matrix(self):
        x = np.asarray(np.random.default_rng(3).normal(size=(4, 3)))
        check_gradient(lambda t: (Tensor(x) * t).sum(), np.ones((1, 3)))


class TestReductionsAndSoftmax:
    def test_sum_axis_gradient(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), np.arange(6.0).reshape(2, 3))

    def test_mean_gradient(self):
        check_gradient(lambda t: t.mean(), np.arange(6.0).reshape(2, 3))

    def test_max_gradient(self):
        check_gradient(lambda t: t.max(), np.array([1.0, 5.0, 3.0]))

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
        out = t.softmax(axis=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_softmax_gradient(self):
        weights = np.array([0.3, -1.2, 2.0, 0.1])

        def build(t):
            return (t.softmax(axis=-1) * Tensor(weights)).sum()

        check_gradient(build, np.array([0.5, 1.5, -0.5, 0.0]))

    def test_log_softmax_gradient(self):
        def build(t):
            return t.log_softmax(axis=-1)[0:1, 1:2].sum()

        check_gradient(build, np.array([[0.5, 1.5, -0.5]]))

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(5).normal(size=(2, 6)))
        np.testing.assert_allclose(
            x.log_softmax().numpy(), np.log(x.softmax().numpy()), atol=1e-12
        )


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (t * 3.0 + t * 4.0).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t + 1.0
        out = (a * b).sum()  # d/dt (2t(t+1)) = 4t + 2
        out.backward()
        np.testing.assert_allclose(t.grad, [14.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_detach_breaks_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        frozen = (t * 3.0).detach()
        assert not frozen.requires_grad

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_does_not_recurse(self):
        # Topological walk is iterative; 5000 chained ops must not blow the stack.
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestSegmentAndSparseOps:
    """Gradients of the batched-execution ops (segment pooling, CSR matmul)."""

    SEGMENTS = np.array([0, 0, 1, 1, 1, 2])

    def test_segment_sum_gradient(self):
        x = np.asarray(np.random.default_rng(6).normal(size=(6, 3)))
        check_gradient(
            lambda t: (segment_sum(t, self.SEGMENTS, 3) ** 2).sum(), x
        )

    def test_segment_sum_matches_per_segment_sums(self):
        x = Tensor(np.arange(12.0).reshape(6, 2))
        out = segment_sum(x, self.SEGMENTS, 3).numpy()
        np.testing.assert_allclose(out[0], x.numpy()[:2].sum(axis=0))
        np.testing.assert_allclose(out[1], x.numpy()[2:5].sum(axis=0))
        np.testing.assert_allclose(out[2], x.numpy()[5:].sum(axis=0))

    def test_segment_max_gradient(self):
        x = np.asarray(np.random.default_rng(7).normal(size=(6, 3)))
        check_gradient(
            lambda t: (segment_max(t, self.SEGMENTS, 3) * 1.5).sum(), x
        )

    def test_segment_max_unsorted_segments(self):
        shuffled = np.array([2, 0, 1, 0, 1, 1])
        x = np.asarray(np.random.default_rng(8).normal(size=(6, 2)))
        check_gradient(lambda t: segment_max(t, shuffled, 3).sum(), x)

    def test_segment_max_splits_tied_gradient(self):
        x = Tensor(np.array([[1.0], [1.0], [0.5]]), requires_grad=True)
        segment_max(x, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5], [0.5], [0.0]])

    def test_segment_max_rejects_empty_segment(self):
        with pytest.raises(ValueError, match="non-empty"):
            segment_max(Tensor(np.ones((2, 1))), np.array([0, 2]), 3)

    def test_segment_ids_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per row"):
            segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)

    def test_csr_matmul_gradient(self):
        rng = np.random.default_rng(9)
        dense = rng.choice([0.0, 0.0, 1.0, 0.5], size=(5, 5))
        a = CSRMatrix.from_dense(dense)
        x = np.asarray(rng.normal(size=(5, 3)))
        check_gradient(lambda t: (csr_matmul(a, t) ** 2).sum(), x)

    def test_csr_matmul_matches_dense(self):
        rng = np.random.default_rng(10)
        dense = rng.choice([0.0, 0.0, 0.7, 2.0], size=(4, 4))
        x = rng.normal(size=(4, 2))
        out = csr_matmul(CSRMatrix.from_dense(dense), Tensor(x)).numpy()
        np.testing.assert_allclose(out, dense @ x, atol=1e-12)

    def test_block_diagonal_layout(self):
        """A batch's Â lays each graph's normalized block on the diagonal."""
        pair = ACFG(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)), 0, "toy")
        single = ACFG(np.zeros((1, 1)), np.zeros((1, 1)), 0, "toy")
        a = CSRMatrix(block_normalized_csr([pair, single]))
        expected = np.zeros((3, 3))
        expected[:2, :2] = 0.5  # one symmetrized edge plus self-loops: degree 2
        expected[2, 2] = 1.0
        np.testing.assert_allclose(a.toarray(), expected)

    def test_cross_entropy_batch_gradient(self):
        targets = np.array([2, 0])
        check_gradient(
            lambda t: cross_entropy_batch(t, targets),
            np.asarray(np.random.default_rng(11).normal(size=(2, 4))),
        )

    def test_cross_entropy_batch_is_mean_of_rows(self):
        from repro.nn import cross_entropy

        rng = np.random.default_rng(12)
        logits = rng.normal(size=(3, 5))
        targets = np.array([1, 4, 0])
        batched = cross_entropy_batch(Tensor(logits), targets).item()
        rows = [
            cross_entropy(Tensor(logits[i]), int(t)).item()
            for i, t in enumerate(targets)
        ]
        np.testing.assert_allclose(batched, np.mean(rows), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_sparse_gcn_layer_gradient(self, seed):
        """A CSR propagation + segment pooling chain matches finite diffs."""
        rng = np.random.default_rng(seed)
        dense = rng.choice([0.0, 0.0, 0.0, 1.0], size=(6, 6))
        a = CSRMatrix.from_dense(dense)
        w = np.asarray(rng.normal(size=(2, 3)))
        segments = np.array([0, 0, 0, 1, 1, 1])

        def build(t):
            h = csr_matmul(a, t @ Tensor(w)).relu()
            return (segment_sum(h, segments, 2) ** 2).sum()

        check_gradient(build, np.asarray(rng.normal(size=(6, 2))), atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_mlp_gradient_matches_finite_difference(rows, cols, seed):
    """A random 2-layer network's input gradient matches finite differences."""
    rng = np.random.default_rng(seed)
    w1 = np.asarray(rng.normal(size=(cols, 3)))
    w2 = np.asarray(rng.normal(size=(3, 1)))
    x = np.asarray(rng.normal(size=(rows, cols)))

    def build(t):
        hidden = (t @ Tensor(w1)).tanh()
        return (hidden @ Tensor(w2)).sigmoid().sum()

    check_gradient(build, x, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_softmax_chain_gradient(seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.normal(size=(2, 5)))
    weights = np.asarray(rng.normal(size=(5,)))

    def build(t):
        return (t.softmax(axis=-1) * Tensor(weights)).sum()

    check_gradient(build, x, atol=1e-4)

"""Tests for the profile-driven sparse kernels.

Covers the four guarantees:

* kernel conformance — :func:`repro.nn.backend.spmm` and the segment
  reductions match dense numpy references on both the allocating and
  the preallocated-``out`` paths, sorted and unsorted segment ids;
* fused Â+matmul — :func:`repro.nn.gcn_layer` is bit-identical to the
  composed op chain, and the CSR-computed Â matches the dense
  reference at 1e-8;
* buffer reuse — :class:`repro.nn.KernelWorkspace` buffers are reused
  across steps without ever aliasing a parameter gradient, and
  workspace-driven training reproduces the reference losses exactly;
* dtype control — float32 end-to-end training tracks the float64
  reference within the documented tolerance, and the in-place Adam
  update is bit-identical to the allocating formulation.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.acfg import ACFGDataset, FeatureScaler, train_test_split
from repro.gnn import GCNClassifier, evaluate_accuracy, train_gnn
from repro.gnn.batch import BatchPacker, GraphBatch, iter_batches
from repro.gnn.cache import AHatCache
from repro.gnn.normalize import normalized_adjacency, normalized_adjacency_csr
from repro.malgen import generate_corpus
from repro.nn import (
    Adam,
    CSRMatrix,
    KernelWorkspace,
    Tensor,
    compute_dtype,
    cross_entropy_batch,
    csr_matmul,
    gcn_layer,
    get_compute_dtype,
    segment_max,
    segment_starts,
    segment_sum,
)
from repro.nn import backend as kernels


@pytest.fixture(scope="module")
def small_sets():
    corpus = generate_corpus(3, seed=11, size_multiplier=1)
    dataset = ACFGDataset.from_corpus(corpus)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=0)
    scaler = FeatureScaler().fit(list(train))
    return train.scaled(scaler), test.scaled(scaler)


def _random_csr(rng, n, m, density=0.15):
    dense = rng.random((n, m)) * (rng.random((n, m)) < density)
    return sp.csr_matrix(dense)


# ----------------------------------------------------------------------
# kernel conformance against dense numpy references
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preallocated", [False, True], ids=["fresh", "out"])
def test_spmm_matches_dense_reference(preallocated):
    rng = np.random.default_rng(0)
    a = _random_csr(rng, 13, 9)
    x = rng.standard_normal((9, 5))
    out = None
    if preallocated:
        # Stale contents: the csr_matvecs path must zero before it
        # accumulates.
        out = np.full((13, 5), np.nan)
    result = kernels.spmm(a, x, out=out)
    if preallocated:
        assert result is out
    np.testing.assert_allclose(result, a.toarray() @ x, atol=1e-12)
    # csr_matvecs is the kernel under scipy's own product.
    np.testing.assert_array_equal(result, a @ x)


def test_spmm_dtype_mismatch_falls_back_to_matmul():
    rng = np.random.default_rng(2)
    a = _random_csr(rng, 7, 6)
    x = rng.standard_normal((6, 3)).astype(np.float32)
    out = np.full((7, 3), np.nan, dtype=np.float32)
    result = kernels.spmm(a, x, out=out)
    assert result is out
    np.testing.assert_array_equal(out, (a @ x).astype(np.float32))
    np.testing.assert_allclose(out, a.toarray() @ x, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("layout", ["sorted", "unsorted"])
def test_segment_kernels_match_dense_reference(layout):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 4))
    if layout == "sorted":
        ids = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3], dtype=np.intp)
        starts = segment_starts(ids, 4)
        assert starts is not None
    else:
        ids = np.array([2, 0, 1, 3, 1, 0, 2, 3, 0, 1], dtype=np.intp)
        starts = segment_starts(ids, 4)
        assert starts is None

    expect_sum = np.zeros((4, 4))
    np.add.at(expect_sum, ids, x)
    np.testing.assert_allclose(
        kernels.segment_sum(x, ids, 4, starts), expect_sum, atol=1e-12
    )
    expect_max = np.full((4, 4), -np.inf)
    np.maximum.at(expect_max, ids, x)
    np.testing.assert_array_equal(
        kernels.segment_max(x, ids, 4, starts), expect_max
    )


def test_segment_starts_refuses_unsafe_layouts():
    # Empty segment: reduceat would silently repeat a row.
    assert segment_starts(np.array([0, 0, 2, 2]), 3) is None
    # Unsorted ids: offsets are meaningless.
    assert segment_starts(np.array([1, 0, 1]), 2) is None
    starts = segment_starts(np.array([0, 0, 1, 2, 2]), 3)
    np.testing.assert_array_equal(starts, [0, 2, 3])


# ----------------------------------------------------------------------
# fused Â + matmul
# ----------------------------------------------------------------------
def test_normalized_adjacency_csr_matches_dense_reference():
    rng = np.random.default_rng(7)
    n = 40
    adjacency = (rng.random((n, n)) < 0.1).astype(np.float64)
    adjacency[rng.random((n, n)) < 0.02] = 2.0
    adjacency *= adjacency <= 2.0
    mask = np.ones(n, dtype=bool)
    mask[n - 5 :] = False
    adjacency[n - 5 :, :] = 0.0
    adjacency[:, n - 5 :] = 0.0
    dense = normalized_adjacency(adjacency, mask)
    via_csr = normalized_adjacency_csr(adjacency, mask).toarray()
    np.testing.assert_allclose(via_csr, dense, atol=1e-8)
    # isolated-but-active node keeps its self-loop; padded rows stay 0
    assert via_csr[n - 1].sum() == 0.0


def test_fused_gcn_layer_bitwise_equals_composed():
    rng = np.random.default_rng(5)
    n, d, f = 17, 6, 4
    a = CSRMatrix(_random_csr(rng, n, n))
    x_data = rng.standard_normal((n, d))
    weight_data = rng.standard_normal((d, f))
    bias_data = rng.standard_normal((1, f))
    mask = (rng.random(n) < 0.8).astype(np.float64).reshape(n, 1)

    def composed():
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(weight_data, requires_grad=True)
        b = Tensor(bias_data, requires_grad=True)
        out = (csr_matmul(a, x @ w) + b).relu() * Tensor(mask)
        out.backward(np.ones_like(out.data))
        return out.data, x.grad, w.grad, b.grad

    def fused(workspace):
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(weight_data, requires_grad=True)
        b = Tensor(bias_data, requires_grad=True)
        out = gcn_layer(a, x, w, b, mask, workspace=workspace)
        out.backward(np.ones_like(out.data))
        return out.data, x.grad, w.grad, b.grad

    reference = composed()
    for workspace in (None, KernelWorkspace()):
        result = fused(workspace)
        for got, want in zip(result, reference):
            np.testing.assert_array_equal(got, want)


def test_fused_layer_drives_the_batched_path(small_sets):
    """embed_batch output must equal per-graph embeddings exactly."""
    train_set, _ = small_sets
    graphs = list(train_set)[:5]
    model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(2))
    batch = GraphBatch.from_graphs(graphs, a_hat_cache=model.a_hat_cache)
    z = model.embed_batch(batch)
    assert z._op == "gcn_layer"
    for i, graph in enumerate(graphs):
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        solo = model.embed(graph.adjacency, graph.features, mask)
        np.testing.assert_allclose(
            z.numpy()[batch.rows_of(i)], solo.numpy(), atol=1e-8
        )


# ----------------------------------------------------------------------
# workspace / buffer reuse
# ----------------------------------------------------------------------
def test_workspace_reuses_buffers_by_slot():
    ws = KernelWorkspace()
    a = ws.buffer("x", (4, 3), np.float64)
    b = ws.buffer("x", (4, 3), np.float64)
    assert a is b
    assert ws.hits == 1 and ws.allocations == 1
    assert ws.buffer("y", (4, 3), np.float64) is not a
    assert ws.buffer("x", (5, 3), np.float64) is not a
    assert ws.buffer("x", (4, 3), np.float32) is not a
    assert ws.owns(a) and not ws.owns(np.zeros(3))
    assert ws.nbytes > 0
    ws.clear()
    assert ws.nbytes == 0


def test_training_reuses_workspace_without_aliasing_grads(small_sets):
    train_set, _ = small_sets
    model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(0))
    packer = BatchPacker(train_set, a_hat_cache=model.a_hat_cache)
    optimizer = Adam(model.parameters(), lr=0.005)
    for _ in range(3):  # several epochs over the same workspace
        for batch in packer.batches(4):
            assert batch.workspace is packer.workspace
            optimizer.zero_grad()
            _, logits = model.forward_batch(batch)
            loss = cross_entropy_batch(logits, batch.labels)
            loss.backward()
            for param in model.parameters():
                assert param.grad is not None
                assert not packer.workspace.owns(param.grad)
            optimizer.step()
    # Buffers were actually recycled, not reallocated per step.
    assert packer.workspace.hits > packer.workspace.allocations


def test_workspace_training_is_bit_identical_to_reference(small_sets):
    """Buffer reuse and fused kernels must not change a single bit."""
    train_set, _ = small_sets
    losses = {}
    for mode in ("per_graph", "batched"):
        model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(4))
        history = train_gnn(
            model, train_set, epochs=4, batch_size=4, seed=1, mode=mode
        )
        losses[mode] = history.losses
    np.testing.assert_allclose(
        losses["batched"], losses["per_graph"], atol=1e-8
    )


def test_iter_batches_shares_one_workspace(small_sets):
    train_set, _ = small_sets
    batches = list(iter_batches(list(train_set), batch_size=2))
    assert len(batches) > 1
    assert all(b.workspace is batches[0].workspace for b in batches)


# ----------------------------------------------------------------------
# dtype control
# ----------------------------------------------------------------------
def test_compute_dtype_context_switches_and_restores():
    assert get_compute_dtype() is np.float64
    with compute_dtype(np.float32):
        assert get_compute_dtype() is np.float32
        assert Tensor(np.arange(3)).data.dtype == np.float32
    assert get_compute_dtype() is np.float64
    with pytest.raises(ValueError):
        with compute_dtype(np.int32):
            pass  # pragma: no cover


def test_float32_model_runs_float32_end_to_end(small_sets):
    train_set, _ = small_sets
    with compute_dtype(np.float32):
        model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(0))
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        batch = GraphBatch.from_graphs(
            list(train_set)[:4], a_hat_cache=model.a_hat_cache
        )
        assert batch.features.dtype == np.float32
        assert batch.a_hat.dtype == np.float32
        z, logits = model.forward_batch(batch)
        assert z.numpy().dtype == np.float32
        assert logits.numpy().dtype == np.float32


def test_float32_losses_track_float64_within_tolerance(small_sets):
    """The documented tolerance contract: ~1e-4 relative over short runs."""
    train_set, test_set = small_sets

    def run(dtype):
        with compute_dtype(dtype):
            model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(0))
        history = train_gnn(
            model, train_set, epochs=5, batch_size=4, seed=1, dtype=dtype
        )
        return np.asarray(history.losses), evaluate_accuracy(model, test_set)

    losses64, acc64 = run(np.float64)
    losses32, acc32 = run(np.float32)
    np.testing.assert_allclose(losses32, losses64, rtol=1e-3)
    assert abs(acc32 - acc64) <= 0.25


# ----------------------------------------------------------------------
# in-place Adam
# ----------------------------------------------------------------------
def _reference_adam_step(params, grads, state, lr, betas, eps, wd, step):
    beta1, beta2 = betas
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    for param, grad, (m, v) in zip(params, grads, state):
        if wd:
            grad = grad + wd * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_inplace_adam_is_bitwise_identical_to_reference(weight_decay):
    rng = np.random.default_rng(9)
    shapes = [(5, 3), (1, 3), (4,)]
    initial = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(p.copy(), requires_grad=True) for p in initial]
    optimizer = Adam(tensors, lr=0.01, weight_decay=weight_decay)
    reference = [p.copy() for p in initial]
    state = [(np.zeros_like(p), np.zeros_like(p)) for p in initial]
    for step in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        for tensor, grad in zip(tensors, grads):
            tensor.grad = grad.copy()
        optimizer.step()
        _reference_adam_step(
            reference, grads, state, 0.01, (0.9, 0.999), 1e-8,
            weight_decay, step,
        )
        for tensor, want in zip(tensors, reference):
            np.testing.assert_array_equal(tensor.data, want)


# ----------------------------------------------------------------------
# content keys
# ----------------------------------------------------------------------
def test_graph_content_keys_unify_with_raw_array_hashing(small_sets):
    train_set, _ = small_sets
    graph = train_set[0]
    cache = AHatCache()
    mask = np.zeros(graph.n, dtype=bool)
    mask[: graph.n_real] = True
    # Raw-array lookup populates; graph-keyed lookup must hit it.
    cache.get(graph.adjacency, mask)
    cache.get_csr(graph.adjacency, mask, key=graph.content_key())
    assert cache.cache_info().misses == 1
    assert cache.cache_info().hits == 1


def test_content_keys_invalidate_after_in_place_mutation(small_sets):
    train_set, _ = small_sets
    graph = train_set[0]
    before_content = graph.content_key()
    before_embed = graph.embed_key()
    assert graph.content_key() is before_content  # cached, not recomputed
    graph.features[0, 0] += 1.0
    graph.invalidate_content_keys()
    assert graph.embed_key() != before_embed
    # features don't enter the Â key, adjacency does
    assert graph.content_key() == before_content
    graph.adjacency[0, 0] = 1.0
    graph.invalidate_content_keys()
    assert graph.content_key() != before_content
    # restore for other module-scoped tests
    graph.features[0, 0] -= 1.0
    graph.adjacency[0, 0] = 0.0
    graph.invalidate_content_keys()


def test_csr_matrix_caches_casts_and_transposes():
    rng = np.random.default_rng(2)
    a = CSRMatrix(_random_csr(rng, 6, 6))
    assert a.astype(np.float64) is a.matrix
    f32 = a.astype(np.float32)
    assert f32.dtype == np.float32
    assert a.astype(np.float32) is f32
    t64 = a.transpose()
    assert a.transpose() is t64
    t32 = a.transpose(np.float32)
    assert t32.dtype == np.float32
    np.testing.assert_allclose(
        t32.toarray(), a.matrix.toarray().T.astype(np.float32), atol=0
    )

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
* one dtype — tensors, packed batches, perturbation batches and the
  graph-derived Â come out float64 whatever the input dtype, and the
  in-place Adam update is bit-identical to the allocating formulation.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse as sp

from repro.acfg import ACFGDataset, FeatureScaler, train_test_split
from repro.gnn import GCNClassifier, train_gnn
from repro.gnn.batch import (
    BatchPacker,
    GraphBatch,
    iter_batches,
    iter_perturbation_batches,
)
from repro.gnn.normalize import block_normalized_csr
from repro.malgen import generate_corpus
from repro.nn import (
    Adam,
    CSRMatrix,
    KernelWorkspace,
    Tensor,
    cross_entropy_batch,
    csr_matmul,
    gcn_layer,
    segment_max,
    segment_starts,
    segment_sum,
)
from repro.nn import backend as kernels
from tests.reference_training import (
    dense_a_hat,
    dense_embed,
    normalized_adjacency_csr,
    train_per_graph,
)


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
    dense = dense_a_hat(adjacency, mask)
    via_csr = normalized_adjacency_csr(adjacency, mask).toarray()
    np.testing.assert_allclose(via_csr, dense, atol=1e-8)
    # isolated-but-active node keeps its self-loop; padded rows stay 0
    assert via_csr[n - 1].sum() == 0.0


def _assert_csr_equal(got, want):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def _reference_csr(graph):
    return normalized_adjacency_csr(graph.adjacency, np.arange(graph.n) < graph.n_real)


def test_graph_csr_equals_reference_builder_bitwise(small_sets):
    """The edge-list Â is the scipy builder's, structure and values,
    padded or not."""
    train_set, test_set = small_sets
    for graph in [*train_set, *test_set]:
        unpadded = replace(
            graph,
            adjacency=graph.adjacency[: graph.n_real, : graph.n_real],
            features=graph.features[: graph.n_real],
        )
        for copy in (graph, unpadded):
            _assert_csr_equal(block_normalized_csr([copy]), _reference_csr(copy))


def test_packed_batch_csr_equals_reference_blocks_bitwise(small_sets):
    """A packed batch's Â is the reference blocks laid along the diagonal."""
    train_set, test_set = small_sets
    graphs = [*train_set, *test_set]
    batch = GraphBatch.from_graphs(graphs)
    want = sp.block_diag([_reference_csr(g) for g in graphs], format="csr")
    _assert_csr_equal(batch.a_hat.matrix, want)


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
    batch = GraphBatch.from_graphs(graphs)
    z = model.embed_batch(batch)
    assert z._op == "gcn_layer"
    for i, graph in enumerate(graphs):
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        solo = dense_embed(model, graph.adjacency, graph.features, mask)
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
    packer = BatchPacker(train_set)
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
    model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(4))
    batched = train_gnn(model, train_set, epochs=4, batch_size=4, seed=1).losses
    model = GCNClassifier(hidden=(8, 6), rng=np.random.default_rng(4))
    per_graph = train_per_graph(model, train_set, epochs=4, batch_size=4, seed=1)
    np.testing.assert_allclose(batched, per_graph, atol=1e-8)


def test_iter_batches_shares_one_workspace(small_sets):
    train_set, _ = small_sets
    batches = list(iter_batches(list(train_set), batch_size=2))
    assert len(batches) > 1
    assert all(b.workspace is batches[0].workspace for b in batches)


# ----------------------------------------------------------------------
# float64 contract
# ----------------------------------------------------------------------
NARROW_DTYPES = [np.int64, np.float32]


@pytest.mark.parametrize("dtype", NARROW_DTYPES)
def test_tensor_leaves_are_float64(dtype):
    assert Tensor(np.arange(6, dtype=dtype).reshape(2, 3)).data.dtype == np.float64


def _narrowed(graph, dtype):
    """A copy of ``graph`` whose arrays are ``dtype`` (bypassing the ACFG cast)."""
    copy = replace(graph)
    copy.adjacency = graph.adjacency.astype(dtype)
    copy.features = graph.features.astype(dtype)
    return copy


@pytest.mark.parametrize("dtype", NARROW_DTYPES)
@pytest.mark.parametrize("cached", [False, True])
def test_graph_batch_packs_float64(small_sets, dtype, cached):
    """Packing from a cold or an already memoized edge list."""
    train_set, _ = small_sets
    graphs = [_narrowed(g, dtype) for g in list(train_set)[:3]]
    if cached:
        for graph in graphs:
            graph.self_looped_edges()
    batch = GraphBatch.from_graphs(graphs)
    assert batch.features.dtype == np.float64
    assert batch.a_hat.dtype == np.float64


@pytest.mark.parametrize("dtype", NARROW_DTYPES)
def test_perturbation_batches_are_float64(small_sets, dtype):
    graph = _narrowed(small_sets[0][0], dtype)
    kept = [np.arange(graph.n_real), np.arange(graph.n_real // 2)]
    for batch in iter_perturbation_batches(graph, kept):
        assert batch.features.dtype == np.float64
        assert batch.a_hat.dtype == np.float64


@pytest.mark.parametrize("dtype", NARROW_DTYPES)
def test_graph_csr_is_float64(small_sets, dtype):
    graph = _narrowed(small_sets[0][0], dtype)
    assert graph.self_looped_edges()[2].dtype == np.float64
    csr = CSRMatrix(block_normalized_csr([graph]))
    assert csr.dtype == np.float64
    assert csr.transpose().dtype == np.float64


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
# memos
# ----------------------------------------------------------------------
def test_memos_invalidate_after_in_place_mutation(small_sets):
    train_set, _ = small_sets
    graph = train_set[0]
    before_edges = graph.self_looped_edges()
    before_embed = graph.embed_key()
    assert graph.self_looped_edges() is before_edges  # memoized, not recomputed
    graph.features[0, 0] += 1.0
    graph.invalidate_memos()
    assert graph.embed_key() != before_embed
    # features don't enter the edge list, adjacency does
    for got, want in zip(graph.self_looped_edges(), before_edges):
        assert np.array_equal(got, want)
    graph.adjacency[0, 0] = 1.0
    graph.invalidate_memos()
    assert graph.self_looped_edges()[2][0] == before_edges[2][0] + 1.0
    # restore for other module-scoped tests
    graph.features[0, 0] -= 1.0
    graph.adjacency[0, 0] = 0.0
    graph.invalidate_memos()


def test_csr_matrix_caches_transpose():
    rng = np.random.default_rng(2)
    a = CSRMatrix(_random_csr(rng, 6, 6))
    t = a.transpose()
    assert a.transpose() is t
    np.testing.assert_array_equal(t.toarray(), a.matrix.toarray().T)

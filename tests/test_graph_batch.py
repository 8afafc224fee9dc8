"""Batched block-diagonal engine: equivalence, caches, training parity.

The contract under test: packing graphs into a :class:`GraphBatch` and
running the batched engine is *numerically identical* (within 1e-8; in
practice ~1e-12) to the per-graph dense path, for mixed graph sizes,
single-node graphs and padded graphs.
"""

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.gnn import (
    EmbeddingCache,
    GCNClassifier,
    GraphBatch,
    evaluate_accuracy,
    iter_batches,
    train_gnn,
)
from repro.gnn.normalize import block_normalized_csr
from repro.nn import Tensor, cross_entropy, cross_entropy_batch, no_grad
from tests.reference_training import (
    dense_a_hat,
    dense_forward,
    dense_predict,
    train_per_graph,
)

TOLERANCE = 1e-8


def make_graph(n, n_real, label=0, seed=0, d=12):
    """A random ACFG with ``n - n_real`` padding rows."""
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    for i in range(n_real - 1):
        adjacency[i, i + 1] = float(rng.choice([1.0, 2.0]))
    if n_real > 2:
        adjacency[n_real - 1, 0] = 1.0  # a back edge for cycles
    features = np.zeros((n, d))
    features[:n_real] = rng.uniform(0, 1, size=(n_real, d))
    return ACFG(adjacency, features, label=label, family="Bagle", n_real=n_real)


@pytest.fixture
def mixed_batch_graphs():
    """Mixed sizes, including a single-node graph and heavy padding."""
    return [
        make_graph(9, 6, label=1, seed=0),
        make_graph(1, 1, label=3, seed=1),  # single node, no padding
        make_graph(12, 3, label=7, seed=2),  # mostly padding
        make_graph(5, 5, label=2, seed=3),  # no padding
        make_graph(4, 1, label=0, seed=4),  # single real node + padding
    ]


class TestBatchedForwardEquivalence:
    def test_batched_matches_per_graph(self, mixed_batch_graphs):
        """Logits, embeddings and pooled readout agree within 1e-8."""
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(0))
        batch = GraphBatch.from_graphs(mixed_batch_graphs)
        with no_grad():
            z_batch, logits_batch = model.forward_batch(batch)
            probs_batch = logits_batch.softmax(axis=-1)
        for i, graph in enumerate(mixed_batch_graphs):
            with no_grad():
                z, probs = dense_forward(model, graph)
                logits = model.logits(z)
            np.testing.assert_allclose(
                z_batch.numpy()[batch.rows_of(i)], z.numpy(), atol=TOLERANCE
            )
            np.testing.assert_allclose(
                logits_batch.numpy()[i], logits.numpy(), atol=TOLERANCE
            )
            np.testing.assert_allclose(
                probs_batch.numpy()[i], probs.numpy(), atol=TOLERANCE
            )

    def test_predict_batch_matches_predict(self, mixed_batch_graphs):
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(1))
        batched = model.predict_batch(mixed_batch_graphs, batch_size=2)
        per_graph = [dense_predict(model, g) for g in mixed_batch_graphs]
        np.testing.assert_array_equal(batched, per_graph)

    def test_batched_loss_matches_per_graph_sum(self, mixed_batch_graphs):
        """The mini-batch loss equals the mean of per-graph losses."""
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(2))
        batch = GraphBatch.from_graphs(mixed_batch_graphs)
        with no_grad():
            _, logits = model.forward_batch(batch)
            batched = cross_entropy_batch(logits, batch.labels).item()
            per_graph = np.mean(
                [
                    cross_entropy(
                        model.logits(dense_forward(model, g)[0]), g.label
                    ).item()
                    for g in mixed_batch_graphs
                ]
            )
        np.testing.assert_allclose(batched, per_graph, atol=TOLERANCE)

    def test_batched_gradients_match_per_graph(self, mixed_batch_graphs):
        """One batched backward produces the per-graph loop's gradients."""
        model_a = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(3))
        model_b = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(3))

        batch = GraphBatch.from_graphs(mixed_batch_graphs)
        _, logits = model_a.forward_batch(batch)
        cross_entropy_batch(logits, batch.labels).backward()

        loss = None
        for graph in mixed_batch_graphs:
            z, _ = dense_forward(model_b, graph)
            term = cross_entropy(model_b.logits(z), graph.label)
            loss = term if loss is None else loss + term
        (loss * (1.0 / len(mixed_batch_graphs))).backward()

        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_allclose(pa.grad, pb.grad, atol=TOLERANCE)

    def test_training_histories_identical_across_modes(self, mixed_batch_graphs):
        """Same seeds, same losses as the per-graph loop: batching
        changes wall-clock, not math."""
        from repro.acfg.dataset import ACFGDataset

        graphs = [g.padded(12) for g in mixed_batch_graphs]
        dataset = ACFGDataset(graphs)
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(4))
        batched = train_gnn(model, dataset, epochs=3, batch_size=2, seed=0).losses
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(4))
        per_graph = train_per_graph(model, dataset, epochs=3, batch_size=2, seed=0)
        np.testing.assert_allclose(batched, per_graph, atol=TOLERANCE)


class TestGraphBatchStructure:
    def test_layout(self, mixed_batch_graphs):
        batch = GraphBatch.from_graphs(mixed_batch_graphs)
        sizes = [g.n for g in mixed_batch_graphs]
        assert batch.num_graphs == len(mixed_batch_graphs)
        assert batch.total_nodes == sum(sizes)
        np.testing.assert_array_equal(np.diff(batch.offsets), sizes)
        np.testing.assert_array_equal(
            batch.labels, [g.label for g in mixed_batch_graphs]
        )
        assert batch.a_hat.shape == (sum(sizes), sum(sizes))
        # Segment ids are sorted and match the per-graph row counts.
        np.testing.assert_array_equal(
            np.bincount(batch.segment_ids, minlength=len(sizes)), sizes
        )
        # Active mask marks exactly the real rows of each graph.
        for i, graph in enumerate(mixed_batch_graphs):
            mask = batch.active_mask[batch.rows_of(i)]
            assert mask.sum() == graph.n_real

    def test_block_diagonal_isolation(self, mixed_batch_graphs):
        """No nonzero of the packed Â crosses a graph boundary."""
        batch = GraphBatch.from_graphs(mixed_batch_graphs)
        dense = batch.a_hat.toarray()
        for i in range(batch.num_graphs):
            rows = batch.rows_of(i)
            outside = dense[rows].copy()
            outside[:, rows] = 0.0
            assert np.all(outside == 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="zero graphs"):
            GraphBatch.from_graphs([])

    def test_iter_batches_respects_order(self, mixed_batch_graphs):
        order = np.array([4, 2, 0, 1, 3])
        batches = list(iter_batches(mixed_batch_graphs, 2, order=order))
        assert [b.num_graphs for b in batches] == [2, 2, 1]
        flat = [g for b in batches for g in b.graphs]
        assert [g.label for g in flat] == [
            mixed_batch_graphs[int(i)].label for i in order
        ]


class TestGraphAHat:
    def test_dense_and_csr_agree(self, mixed_batch_graphs):
        graph = mixed_batch_graphs[0]
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        np.testing.assert_allclose(
            dense_a_hat(graph.adjacency, mask),
            block_normalized_csr([graph]).toarray(),
            atol=1e-15,
        )


class TestEmbeddingCache:
    def test_populate_then_forward_hits(self, mixed_batch_graphs):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        cache = EmbeddingCache(model)
        cache.populate(mixed_batch_graphs, batch_size=2)
        assert len(cache) == len(mixed_batch_graphs)
        for graph in mixed_batch_graphs:
            entry = cache.forward(graph)
            assert entry.predicted_class == model.predict(graph)
        assert cache.cache_info().misses == 0

    def test_cached_embeddings_match_direct_forward(self, mixed_batch_graphs):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        cache = EmbeddingCache(model)
        cache.populate(mixed_batch_graphs, batch_size=3)
        for graph in mixed_batch_graphs:
            with no_grad():
                z, probs = dense_forward(model, graph)
            entry = cache.forward(graph)
            np.testing.assert_allclose(entry.z, z.numpy(), atol=TOLERANCE)
            np.testing.assert_allclose(entry.probs, probs.numpy(), atol=TOLERANCE)

    def test_miss_computes_and_stores(self, mixed_batch_graphs):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        cache = EmbeddingCache(model)
        entry = cache.forward(mixed_batch_graphs[0])
        assert cache.cache_info().misses == 1
        again = cache.forward(mixed_batch_graphs[0])
        assert again is entry
        assert cache.cache_info().hits == 1

    def test_precompute_embeddings_reuses_shared_cache(self, mixed_batch_graphs):
        from repro.acfg.dataset import ACFGDataset
        from repro.core.training import precompute_embeddings

        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        dataset = ACFGDataset([g.padded(12) for g in mixed_batch_graphs])
        cache = EmbeddingCache(model)
        cache.populate(dataset)
        populated = len(cache)
        cached = precompute_embeddings(model, dataset, embedding_cache=cache)
        assert len(cached) == len(dataset)
        assert len(cache) == populated, "explainer training re-embedded graphs"
        assert cache.cache_info().misses == 0


class TestBatchedEvaluation:
    def test_evaluate_accuracy_matches_per_graph(self, mixed_batch_graphs):
        from repro.acfg.dataset import ACFGDataset

        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(5))
        dataset = ACFGDataset([g.padded(12) for g in mixed_batch_graphs])
        batched = evaluate_accuracy(model, dataset, batch_size=2)
        per_graph = np.mean(
            [model.predict(g) == g.label for g in dataset]
        )
        np.testing.assert_allclose(batched, per_graph, atol=1e-15)

"""Tests for adjacency normalization and the GCN classifier.

``dense_a_hat`` is the dense normalization the tests keep as a
reference (``tests/reference_training.py``); the classifier's own Â
comes from ``repro.gnn.normalize``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acfg import ACFG, ACFGDataset, FeatureScaler, train_test_split
from repro.gnn import GCNClassifier, GraphBatch, evaluate_accuracy, train_gnn
from repro.gnn.normalize import normalized_edges
from repro.malgen import generate_corpus
from repro.nn import no_grad
from tests.reference_training import dense_a_hat


class TestNormalizedAdjacency:
    def test_symmetric_output(self):
        adjacency = np.array([[0, 1, 0], [0, 0, 2], [0, 0, 0]], dtype=float)
        a_hat = dense_a_hat(adjacency)
        np.testing.assert_allclose(a_hat, a_hat.T)

    def test_isolated_active_node_keeps_self_loop(self):
        a_hat = dense_a_hat(np.zeros((2, 2)))
        np.testing.assert_allclose(a_hat, np.eye(2))

    def test_masked_node_fully_inert(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = 1
        mask = np.array([True, True, False])
        a_hat = dense_a_hat(adjacency, mask)
        np.testing.assert_array_equal(a_hat[2], np.zeros(3))
        np.testing.assert_array_equal(a_hat[:, 2], np.zeros(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            dense_a_hat(np.zeros((2, 3)))

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError, match="mask shape"):
            dense_a_hat(np.zeros((2, 2)), np.ones(3, dtype=bool))

    def test_call_weight_preserved(self):
        adjacency = np.array([[0, 2], [0, 0]], dtype=float)
        a_hat = dense_a_hat(adjacency)
        # degrees: node0 = 2+1, node1 = 2+1 -> entry = 2/3
        np.testing.assert_allclose(a_hat[0, 1], 2.0 / 3.0)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
    def test_property_rows_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        adjacency = rng.choice([0.0, 1.0, 2.0], size=(n, n), p=[0.7, 0.2, 0.1])
        a_hat = dense_a_hat(adjacency)
        assert np.all(a_hat >= 0)
        assert np.all(np.isfinite(a_hat))
        # Spectral radius of the normalized matrix is at most 1.
        eigenvalues = np.linalg.eigvalsh((a_hat + a_hat.T) / 2)
        assert eigenvalues.max() <= 1.0 + 1e-9


def small_acfg(n=6, n_real=4, label=0, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    for i in range(n_real - 1):
        adjacency[i, i + 1] = 1
    features = np.zeros((n, 12))
    features[:n_real] = rng.uniform(0, 1, size=(n_real, 12))
    return ACFG(adjacency, features, label=label, family="Bagle", n_real=n_real)


class TestGCNClassifier:
    def test_embedding_shape_and_nonnegative(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        graph = small_acfg()
        z = model.embed(
            *normalized_edges(graph),
            graph.features[: graph.n_real],
        )
        assert z.shape == (graph.n_real, 4)
        assert (z.numpy() >= 0).all(), "ReLU embeddings must be non-negative"
        probs = model.predict_proba(graph)
        assert probs.shape == (12,)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_padded_nodes_have_zero_embeddings(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        graph = small_acfg(n=6, n_real=4)
        with no_grad():
            z = model.embed_batch(GraphBatch.from_graphs([graph]))
        np.testing.assert_array_equal(z.numpy()[4:], np.zeros((2, 4)))

    def test_padding_does_not_change_prediction(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        graph = small_acfg(n=4, n_real=4)
        padded = graph.padded(16)
        np.testing.assert_allclose(
            model.predict_proba(graph), model.predict_proba(padded), atol=1e-12
        )

    def test_subgraph_proba_removed_node_equivalent_to_padding(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(1))
        graph = small_acfg(n=6, n_real=4)
        # Keeping all but node 3 must equal a graph where node 3 never existed.
        kept = np.array([0, 1, 2])
        probs_masked = model.subgraph_proba(graph, kept)
        reduced = ACFG(
            graph.adjacency.copy(),
            graph.features * np.isin(np.arange(6), kept)[:, None],
            label=0,
            family="Bagle",
            n_real=4,
        )
        reduced.adjacency[3, :] = 0
        reduced.adjacency[:, 3] = 0
        probs_manual = model.subgraph_proba(reduced, kept)
        np.testing.assert_allclose(probs_masked, probs_manual, atol=1e-12)

    def test_keeping_all_nodes_matches_full_prediction(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(2))
        graph = small_acfg(n=6, n_real=4)
        np.testing.assert_allclose(
            model.subgraph_proba(graph, np.arange(4)),
            model.predict_proba(graph),
            atol=1e-12,
        )

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            GCNClassifier(hidden=())

    def test_state_dict_roundtrip(self):
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(3))
        clone = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(99))
        graph = small_acfg()
        assert not np.allclose(model.predict_proba(graph), clone.predict_proba(graph))
        clone.load_state_dict(model.state_dict())
        np.testing.assert_allclose(
            model.predict_proba(graph), clone.predict_proba(graph)
        )


class TestTraining:
    @pytest.fixture(scope="class")
    def tiny_sets(self):
        corpus = generate_corpus(4, seed=11)
        dataset = ACFGDataset.from_corpus(corpus)
        train, test = train_test_split(dataset, 0.25, seed=0)
        scaler = FeatureScaler().fit(list(train))
        return train.scaled(scaler), test.scaled(scaler)

    def test_loss_decreases(self, tiny_sets):
        train_set, _ = tiny_sets
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(0))
        history = train_gnn(model, train_set, epochs=8, batch_size=8, lr=0.01, seed=0)
        assert history.losses[-1] < history.losses[0]

    def test_accuracy_better_than_chance_after_training(self, tiny_sets):
        train_set, _ = tiny_sets
        model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(0))
        train_gnn(model, train_set, epochs=25, batch_size=8, lr=0.01, seed=0)
        accuracy = evaluate_accuracy(model, train_set)
        assert accuracy > 3.0 / 12.0, f"train accuracy {accuracy} barely above chance"

    def test_eval_history_recorded(self, tiny_sets):
        train_set, test_set = tiny_sets
        model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
        history = train_gnn(
            model, train_set, epochs=3, batch_size=8, eval_set=test_set, seed=0
        )
        assert len(history.accuracies) == 3

    def test_invalid_params_raise(self, tiny_sets):
        train_set, _ = tiny_sets
        model = GCNClassifier(hidden=(8, 4))
        with pytest.raises(ValueError):
            train_gnn(model, train_set, epochs=0)

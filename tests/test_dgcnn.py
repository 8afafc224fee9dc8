"""Tests for the DGCNN-style (MAGIC-family) classifier."""

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.core import CFGExplainerModel, interpret, train_cfgexplainer
from repro.gnn import DGCNNClassifier, evaluate_accuracy, train_gnn


def small_acfg(n=8, n_real=6, label=0, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    for i in range(n_real - 1):
        adjacency[i, i + 1] = 1
    adjacency[0, 2] = 2
    features = np.zeros((n, 12))
    features[:n_real] = rng.uniform(0, 1, (n_real, 12))
    return ACFG(adjacency, features, label=label, family="Bagle", n_real=n_real)


class TestDGCNNModel:
    def test_embedding_shape_is_channel_concat(self):
        model = DGCNNClassifier(conv_channels=(8, 8, 4), sort_k=4,
                                rng=np.random.default_rng(0))
        graph = small_acfg()
        z, probs = model.forward_acfg(graph)
        assert z.shape == (graph.n, 8 + 8 + 4)
        assert probs.shape == (12,)
        np.testing.assert_allclose(probs.numpy().sum(), 1.0, atol=1e-9)

    def test_embeddings_nonnegative(self):
        model = DGCNNClassifier(conv_channels=(8, 4), sort_k=4,
                                rng=np.random.default_rng(1))
        graph = small_acfg()
        z, _ = model.forward_acfg(graph)
        assert (z.numpy() >= 0).all()

    def test_padded_rows_zero(self):
        model = DGCNNClassifier(conv_channels=(8, 4), sort_k=4,
                                rng=np.random.default_rng(1))
        graph = small_acfg(n=8, n_real=6)
        z, _ = model.forward_acfg(graph)
        np.testing.assert_array_equal(z.numpy()[6:], np.zeros((2, 12)))

    def test_padding_invariance(self):
        model = DGCNNClassifier(conv_channels=(8, 4), sort_k=4,
                                rng=np.random.default_rng(2))
        graph = small_acfg(n=6, n_real=6)
        np.testing.assert_allclose(
            model.predict_proba(graph),
            model.predict_proba(graph.padded(12)),
            atol=1e-12,
        )

    def test_small_graph_padded_to_sort_k(self):
        model = DGCNNClassifier(conv_channels=(4,), sort_k=10,
                                rng=np.random.default_rng(3))
        graph = small_acfg(n=4, n_real=3)
        probs = model.predict_proba(graph)
        assert np.isfinite(probs).all()

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            DGCNNClassifier(conv_channels=())
        with pytest.raises(ValueError):
            DGCNNClassifier(sort_k=0)


class TestDGCNNTrainingAndExplaining:
    @pytest.fixture(scope="class")
    def trained_dgcnn(self, small_dataset):
        train_set, _ = small_dataset
        model = DGCNNClassifier(conv_channels=(16, 8), sort_k=12,
                                rng=np.random.default_rng(0))
        train_gnn(model, train_set, epochs=30, batch_size=16, lr=0.005, seed=0)
        return model

    def test_trains_above_chance(self, trained_dgcnn, small_dataset):
        train_set, _ = small_dataset
        assert evaluate_accuracy(trained_dgcnn, train_set) > 2.0 / 12.0

    def test_cfgexplainer_is_model_agnostic(self, trained_dgcnn, small_dataset):
        """Θ trains against DGCNN embeddings and Algorithm 2 runs unchanged."""
        train_set, test_set = small_dataset
        theta = CFGExplainerModel(
            trained_dgcnn.embedding_size, 12, rng=np.random.default_rng(4)
        )
        history = train_cfgexplainer(
            theta, trained_dgcnn, train_set, num_epochs=15, minibatch_size=8, seed=0
        )
        assert all(np.isfinite(history.losses))
        explanation = interpret(theta, trained_dgcnn, test_set.graphs[0], step_size=20)
        graph = test_set.graphs[0]
        assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))

    def test_baselines_accept_dgcnn(self, trained_dgcnn, small_dataset):
        from repro.baselines import GNNExplainerBaseline, SubgraphXBaseline

        _, test_set = small_dataset
        graph = test_set.graphs[1]
        for explainer in (
            GNNExplainerBaseline(trained_dgcnn, epochs=3),
            SubgraphXBaseline(trained_dgcnn, mcts_iterations=3, shapley_samples=2),
        ):
            explanation = explainer.explain(graph, step_size=50)
            assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))

    def test_mask_explainers_match_dense_oracle(self, trained_dgcnn, small_dataset):
        """GNNExplainer and CFExplainer reach DGCNN through its
        ``weighted_edge_proba`` and match their dense bodies."""
        from repro.baselines import GNNExplainerBaseline
        from repro.explain import CFExplainer
        from tests.test_edge_masks import (
            assert_counterfactual_matches,
            assert_mask_matches,
        )

        _, test_set = small_dataset
        graph = test_set.graphs[1]
        assert_mask_matches(GNNExplainerBaseline(trained_dgcnn, epochs=4), graph)
        assert_counterfactual_matches(CFExplainer(trained_dgcnn, iterations=6), graph)

    def test_subgraph_metrics_run_on_dgcnn(self, trained_dgcnn, small_dataset):
        """The batched-scoring metrics accept any Φ with the same contract."""
        from repro.baselines.simple import DegreeExplainer
        from repro.explain.metrics import necessity, sufficiency, sweep_accuracy_curve

        _, test_set = small_dataset
        graph = test_set.graphs[0]
        kept_sets = [np.arange(graph.n_real // 2), np.array([], dtype=int)]
        np.testing.assert_array_equal(
            trained_dgcnn.subgraph_proba_batch(graph, kept_sets),
            np.vstack([trained_dgcnn.subgraph_proba(graph, k) for k in kept_sets]),
        )
        explanations = [
            DegreeExplainer(trained_dgcnn).explain(g) for g in test_set.graphs[:3]
        ]
        fractions, accuracies = sweep_accuracy_curve(trained_dgcnn, explanations)
        assert fractions.shape == accuracies.shape == (10,)
        assert accuracies[-1] == 1.0
        assert 0.0 <= sufficiency(trained_dgcnn, explanations, 0.2) <= 1.0
        assert 0.0 <= necessity(trained_dgcnn, explanations, 0.2) <= 1.0

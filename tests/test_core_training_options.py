"""Tests for Algorithm 1's training options (the sparsity and faithfulness terms)."""

import numpy as np

from repro.core import CFGExplainerModel, train_cfgexplainer
from repro.core.training import precompute_embeddings
from tests.reference_training import dense_embed


class TestPrecomputeEmbeddings:
    def test_one_sample_per_graph_by_default(self, trained_gnn, small_dataset):
        train_set, _ = small_dataset
        cached = precompute_embeddings(trained_gnn, train_set)
        assert len(cached) == len(train_set)


class TestTrainingOptions:
    def _train(self, gnn, train_set, **kwargs):
        theta = CFGExplainerModel(
            gnn.embedding_size, 12, rng=np.random.default_rng(3)
        )
        history = train_cfgexplainer(
            theta, gnn, train_set, num_epochs=10, minibatch_size=8, seed=0, **kwargs
        )
        return theta, history

    def test_literal_algorithm1_runs(self, trained_gnn, small_dataset):
        """All extensions off = the paper's bare loss; must still train."""
        train_set, _ = small_dataset
        _, history = self._train(
            trained_gnn,
            train_set,
            sparsity_weight=0.0,
            faithfulness_weight=0.0,
        )
        assert len(history.losses) == 10
        assert all(np.isfinite(history.losses))

    def test_faithfulness_does_not_update_gnn(self, trained_gnn, small_dataset):
        train_set, _ = small_dataset
        before = [p.data.copy() for p in trained_gnn.parameters()]
        self._train(trained_gnn, train_set, faithfulness_weight=1.0)
        for original, after in zip(before, trained_gnn.parameters()):
            np.testing.assert_array_equal(original, after.data)

    def test_sparsity_pushes_scores_down(self, trained_gnn, small_dataset):
        train_set, _ = small_dataset
        theta_free, _ = self._train(
            trained_gnn, train_set, sparsity_weight=0.0, faithfulness_weight=0.0
        )
        theta_sparse, _ = self._train(
            trained_gnn, train_set, sparsity_weight=5.0, faithfulness_weight=0.0
        )
        graph = train_set[0]
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        from repro.nn import no_grad

        with no_grad():
            z = dense_embed(trained_gnn, graph.adjacency, graph.features, mask)
        free = theta_free.node_scores(z, graph.n_real).mean()
        sparse = theta_sparse.node_scores(z, graph.n_real).mean()
        assert sparse < free

    def test_score_logits_match_sigmoid_scores(self, trained_theta, trained_gnn, small_dataset):
        train_set, _ = small_dataset
        graph = train_set[0]
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        from repro.nn import no_grad

        with no_grad():
            z = dense_embed(trained_gnn, graph.adjacency, graph.features, mask)
            logits = trained_theta.scorer.score_logits(z).numpy()
            scores = trained_theta.scorer(z).numpy()
        np.testing.assert_allclose(1 / (1 + np.exp(-logits)), scores, atol=1e-10)

"""Tests for the baseline explainers."""

import numpy as np
import pytest

from repro.baselines import (
    GNNExplainerBaseline,
    GradientExplainer,
    PGExplainerBaseline,
    SubgraphXBaseline,
)
from repro.baselines.gnnexplainer import edge_mass_node_scores
from repro.baselines.subgraphx import shapley_score


class TestGNNExplainer:
    def test_mask_on_edge_support_only(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explainer = GNNExplainerBaseline(trained_gnn, epochs=10)
        mask = explainer.optimize_mask(graph)
        from tests.reference_training import dense_a_hat

        active = np.zeros(graph.n, dtype=bool)
        active[: graph.n_real] = True
        support = dense_a_hat(graph.adjacency, active) > 0
        assert mask.shape == (int(support.sum()),)  # one entry per edge of Â
        assert (mask >= 0).all() and (mask <= 1).all()

    def test_explanation_is_valid(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[1]
        explainer = GNNExplainerBaseline(trained_gnn, epochs=10)
        explanation = explainer.explain(graph)
        assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))
        assert explanation.explainer_name == "GNNExplainer"

    def test_size_regularizer_shrinks_mask(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[2]
        light = GNNExplainerBaseline(trained_gnn, epochs=25, size_weight=0.0)
        heavy = GNNExplainerBaseline(trained_gnn, epochs=25, size_weight=0.5)
        assert heavy.optimize_mask(graph).sum() < light.optimize_mask(graph).sum()

    def test_invalid_epochs_raise(self, trained_gnn):
        with pytest.raises(ValueError):
            GNNExplainerBaseline(trained_gnn, epochs=0)

    def test_edge_mass_scores(self):
        rows, cols = np.array([0, 2, 2]), np.array([1, 1, 2])
        scores = edge_mass_node_scores(rows, cols, np.array([0.9, 0.4, 0.25]), n_real=4)
        np.testing.assert_allclose(scores, [0.9, 1.3, 0.9, 0.0])


class TestPGExplainer:
    @pytest.fixture(scope="class")
    def fitted(self, trained_gnn, small_dataset):
        train_set, _ = small_dataset
        explainer = PGExplainerBaseline(trained_gnn, epochs=4, seed=3)
        history = explainer.fit(train_set)
        return explainer, history

    def test_training_loss_finite_and_recorded(self, fitted):
        _, history = fitted
        assert len(history.losses) == 4
        assert np.isfinite(history.final_loss)

    def test_unfitted_explainer_raises(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        explainer = PGExplainerBaseline(trained_gnn)
        with pytest.raises(RuntimeError, match="fit"):
            explainer.explain(test_set.graphs[0])

    def test_explanation_is_valid(self, fitted, small_dataset):
        explainer, _ = fitted
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explanation = explainer.explain(graph)
        assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))

    def test_global_model_shared_across_graphs(self, fitted, small_dataset):
        """Unlike GNNExplainer, explaining must not mutate the predictor."""
        explainer, _ = fitted
        _, test_set = small_dataset
        before = [p.data.copy() for p in explainer.predictor.parameters()]
        explainer.explain(test_set.graphs[0])
        explainer.explain(test_set.graphs[1])
        after = [p.data for p in explainer.predictor.parameters()]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_deterministic_explanations(self, fitted, small_dataset):
        explainer, _ = fitted
        _, test_set = small_dataset
        graph = test_set.graphs[2]
        order1, _ = explainer.rank_nodes(graph)
        order2, _ = explainer.rank_nodes(graph)
        np.testing.assert_array_equal(order1, order2)

    def test_cold_graphs_leave_embedding_cache_size(self, fitted, small_dataset):
        """Explaining graphs the cache lacks computes them without storing."""
        from repro.gnn import EmbeddingCache

        explainer, _ = fitted
        train_set, test_set = small_dataset
        cold = EmbeddingCache(explainer.model)
        cold.populate(train_set)
        warm = EmbeddingCache(explainer.model)
        warm.populate(test_set)
        size = len(cold)
        for graph in test_set.graphs[:4]:
            explainer.embedding_cache = cold
            from_cold = explainer.rank_nodes(graph)
            explainer.embedding_cache = warm
            from_warm = explainer.rank_nodes(graph)
            for cold_part, warm_part in zip(from_cold, from_warm):
                np.testing.assert_array_equal(cold_part, warm_part)
        explainer.embedding_cache = None
        assert len(cold) == size


class TestGradient:
    """Vanilla saliency: one forward+backward, the serving fallback rung."""

    def test_explanation_is_valid(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explanation = GradientExplainer(trained_gnn).explain(graph)
        assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))
        assert explanation.explainer_name == "Gradient"

    def test_scores_finite_and_nonnegative(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[1]
        order, scores = GradientExplainer(trained_gnn).rank_nodes(graph)
        assert scores.shape == (graph.n_real,)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0)  # gradient L2 norms
        # The ranking is the stable descending sort of the scores.
        np.testing.assert_array_equal(
            scores[order], np.sort(scores)[::-1]
        )

    def test_deterministic(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[2]
        explainer = GradientExplainer(trained_gnn)
        first_order, first_scores = explainer.rank_nodes(graph)
        second_order, second_scores = explainer.rank_nodes(graph)
        np.testing.assert_array_equal(first_order, second_order)
        np.testing.assert_array_equal(first_scores, second_scores)

    def test_does_not_mutate_model(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        before = [p.data.copy() for p in trained_gnn.parameters()]
        GradientExplainer(trained_gnn).explain(graph)
        for b, a in zip(before, trained_gnn.parameters()):
            np.testing.assert_array_equal(b, a.data)


class TestSubgraphX:
    def test_shapley_of_everything_is_high_for_target(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        target = trained_gnn.predict(graph)
        rng = np.random.default_rng(0)
        full = frozenset(range(graph.n_real))
        score = shapley_score(trained_gnn, graph, full, target, rng, samples=4)
        # The whole graph's marginal over the empty coalition must be
        # positive: it contains all the evidence for the prediction.
        assert score > 0

    def test_explanation_is_valid(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[1]
        explainer = SubgraphXBaseline(
            trained_gnn, mcts_iterations=10, shapley_samples=3, seed=1
        )
        explanation = explainer.explain(graph)
        assert sorted(explanation.node_order.tolist()) == list(range(graph.n_real))
        assert explanation.explainer_name == "SubgraphX"

    def test_invalid_params_raise(self, trained_gnn):
        with pytest.raises(ValueError):
            SubgraphXBaseline(trained_gnn, mcts_iterations=0)

    def test_deterministic_per_seed(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[2]
        first = SubgraphXBaseline(trained_gnn, mcts_iterations=8, shapley_samples=2, seed=9)
        second = SubgraphXBaseline(trained_gnn, mcts_iterations=8, shapley_samples=2, seed=9)
        np.testing.assert_array_equal(
            first.rank_nodes(graph)[0], second.rank_nodes(graph)[0]
        )

    def test_mcts_explores_tree(self, trained_gnn, small_dataset):
        """More iterations must visit more distinct subgraph states."""
        _, test_set = small_dataset
        graph = test_set.graphs[3]
        explainer = SubgraphXBaseline(
            trained_gnn, mcts_iterations=12, shapley_samples=2, seed=0
        )
        # Instrument via the reward cache: each cached key is a distinct
        # evaluated subgraph.
        import repro.baselines.subgraphx as sx

        original = sx.shapley_score
        seen = set()

        def spy(model, g, kept, target, rng, samples):
            seen.add(kept)
            return original(model, g, kept, target, rng, samples)

        sx.shapley_score = spy
        try:
            explainer.rank_nodes(graph)
        finally:
            sx.shapley_score = original
        assert len(seen) > 3

"""Tests for Explanation objects, the ladder builder, and metrics."""

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.explain import (
    Explanation,
    accuracy_auc,
    fidelity_minus_acc,
    fidelity_plus_acc,
    sparsity,
    subgraph_accuracy,
    sweep_accuracy_curve,
)
from repro.explain.base import ladder_from_order, level_fractions
from repro.baselines import DegreeExplainer, RandomExplainer


def make_graph(n_real=8, n=10, label=0):
    rng = np.random.default_rng(42)
    adjacency = np.zeros((n, n))
    for i in range(n_real - 1):
        adjacency[i, i + 1] = 1
    adjacency[0, n_real - 1] = 2
    features = np.zeros((n, 12))
    features[:n_real] = rng.uniform(0, 1, (n_real, 12))
    return ACFG(adjacency, features, label=label, family="Bagle", n_real=n_real, name=f"g{label}")


class TestLevelFractions:
    def test_step_10(self):
        fractions = level_fractions(10)
        assert fractions == [i / 10 for i in range(1, 11)]

    def test_step_25(self):
        assert level_fractions(25) == [0.25, 0.5, 0.75, 1.0]

    def test_step_100(self):
        assert level_fractions(100) == [1.0]

    @pytest.mark.parametrize("bad", [0, -5, 101, 30, 7])
    def test_invalid_steps_raise(self, bad):
        with pytest.raises(ValueError):
            level_fractions(bad)


class TestLadder:
    def test_ladder_sizes_monotone(self):
        graph = make_graph()
        order = np.arange(graph.n_real)
        levels = ladder_from_order(graph, order, 20)
        sizes = [level.kept_nodes.size for level in levels]
        assert sizes == sorted(sizes)
        assert sizes[-1] == graph.n_real

    def test_ladder_nested(self):
        graph = make_graph()
        order = np.random.default_rng(0).permutation(graph.n_real)
        levels = ladder_from_order(graph, order, 10)
        for smaller, larger in zip(levels[:-1], levels[1:]):
            assert set(smaller.kept_nodes) <= set(larger.kept_nodes)

    def test_ladder_adjacency_zeroed_outside(self):
        graph = make_graph()
        order = np.arange(graph.n_real)
        levels = ladder_from_order(graph, order, 50)
        small = levels[0]
        adjacency = graph.subgraph_adjacency(small.kept_nodes)
        removed = set(range(graph.n)) - set(small.kept_nodes.tolist())
        for node in removed:
            assert adjacency[node].sum() == 0
            assert adjacency[:, node].sum() == 0


class TestExplanationObject:
    def make_explanation(self):
        graph = make_graph()
        order = np.array([3, 1, 0, 2, 4, 5, 6, 7])
        return Explanation(
            graph=graph,
            explainer_name="test",
            predicted_class=0,
            node_order=order,
            levels=ladder_from_order(graph, order, 25),
        )

    def test_top_nodes(self):
        explanation = self.make_explanation()
        np.testing.assert_array_equal(explanation.top_nodes(0.25), [3, 1])
        np.testing.assert_array_equal(explanation.top_nodes(1.0), explanation.node_order)

    def test_top_nodes_at_least_one(self):
        explanation = self.make_explanation()
        assert explanation.top_nodes(0.01).size == 1

    def test_top_nodes_bad_fraction(self):
        explanation = self.make_explanation()
        with pytest.raises(ValueError):
            explanation.top_nodes(0.0)

    def test_level_at_picks_nearest(self):
        explanation = self.make_explanation()
        assert explanation.level_at(0.2).fraction == 0.25
        assert explanation.level_at(0.9).fraction == 1.0

    def test_rejects_duplicate_order(self):
        graph = make_graph()
        with pytest.raises(ValueError, match="duplicates"):
            Explanation(graph, "x", 0, np.array([0, 0, 1, 2, 3, 4, 5, 6]))

    def test_rejects_non_permutation(self):
        graph = make_graph()
        with pytest.raises(ValueError, match="permutation"):
            Explanation(graph, "x", 0, np.array([0, 1, 2]))


class TestMetrics:
    @pytest.fixture()
    def setup(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        explainer = DegreeExplainer(trained_gnn)
        explanations = [explainer.explain(g) for g in test_set.graphs[:6]]
        return trained_gnn, explanations

    def test_accuracy_in_unit_interval(self, setup):
        model, explanations = setup
        for fraction in (0.1, 0.5, 1.0):
            value = subgraph_accuracy(model, explanations, fraction)
            assert 0.0 <= value <= 1.0

    def test_full_graph_accuracy_is_one_against_prediction(self, setup):
        model, explanations = setup
        # Keeping 100% of nodes reproduces the original prediction exactly.
        assert subgraph_accuracy(model, explanations, 1.0) == 1.0

    def test_sweep_curve_shapes(self, setup):
        model, explanations = setup
        fractions, accuracies = sweep_accuracy_curve(model, explanations)
        assert fractions.shape == accuracies.shape == (10,)
        assert accuracies[-1] == 1.0

    def test_auc_bounds_and_anchor(self):
        fractions = np.array([0.5, 1.0])
        assert accuracy_auc(fractions, np.array([1.0, 1.0])) == pytest.approx(0.75)
        assert accuracy_auc(fractions, np.array([0.0, 0.0])) == 0.0

    def test_auc_rejects_empty(self):
        with pytest.raises(ValueError):
            accuracy_auc(np.array([]), np.array([]))

    def test_fidelity_minus_zero_at_full_graph(self, setup):
        model, explanations = setup
        assert fidelity_minus_acc(model, explanations, 1.0) == pytest.approx(0.0)

    def test_fidelity_plus_bounded(self, setup):
        model, explanations = setup
        value = fidelity_plus_acc(model, explanations, 0.2)
        assert -1.0 <= value <= 1.0

    def test_sparsity(self, setup):
        _, explanations = setup
        explanation = explanations[0]
        assert sparsity(explanation, 1.0) == pytest.approx(0.0)
        assert 0.0 < sparsity(explanation, 0.2) < 1.0

    def test_empty_explanations_raise(self, setup):
        model, _ = setup
        with pytest.raises(ValueError):
            subgraph_accuracy(model, [], 0.5)


class TestSimpleBaselines:
    def test_random_is_deterministic_per_graph(self, trained_gnn):
        graph = make_graph()
        explainer = RandomExplainer(trained_gnn, seed=7)
        order1, _ = explainer.rank_nodes(graph)
        order2, _ = explainer.rank_nodes(graph)
        np.testing.assert_array_equal(order1, order2)

    def test_degree_orders_by_degree(self, trained_gnn):
        graph = make_graph()
        explainer = DegreeExplainer(trained_gnn)
        order, scores = explainer.rank_nodes(graph)
        assert scores[order[0]] == scores.max()
        # Descending scores along the ordering.
        ordered = scores[order]
        assert (np.diff(ordered) <= 0).all()

    def test_explain_produces_full_ladder(self, trained_gnn):
        graph = make_graph()
        explanation = DegreeExplainer(trained_gnn).explain(graph, step_size=20)
        assert len(explanation.levels) == 5
        assert explanation.explainer_name == "Degree"

"""CFExplainer counterfactual search, CFF metrics and keep-count fixes."""

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.explain import (
    CFExplainer,
    CounterfactualResult,
    edit_size,
    kept_count,
    necessity,
    sufficiency,
)
from repro.explain.explanation import Explanation, SubgraphLevel
from repro.explain.metrics import fidelity_plus_acc, sweep_accuracy_curve


def edgeless_graph(n=6, n_real=3):
    features = np.zeros((n, 12))
    features[:n_real] = 0.5
    return ACFG(np.zeros((n, n)), features, label=0, family="Bagle", n_real=n_real)


def single_node_graph(n=4):
    features = np.zeros((n, 12))
    features[0] = 1.0
    return ACFG(np.zeros((n, n)), features, label=0, family="Bagle", n_real=1)


def disconnected_graph(n=8, n_real=5):
    """Three weak components: chain 0→1, chain 2→3, isolated node 4."""
    adjacency = np.zeros((n, n))
    adjacency[0, 1] = 1.0
    adjacency[2, 3] = 2.0
    features = np.zeros((n, 12))
    features[:n_real] = np.linspace(0.1, 1.0, n_real)[:, None]
    return ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real)


# ----------------------------------------------------------------------
# the counterfactual search
# ----------------------------------------------------------------------
class TestCounterfactualSearch:
    def test_flips_at_least_90_percent_of_eval_split(
        self, trained_gnn, small_dataset
    ):
        """The acceptance bar: ≥90% prediction flips at default budget,
        verified honestly on the actually-edited adjacency."""
        _, test_set = small_dataset
        explainer = CFExplainer(trained_gnn)
        results = [explainer.counterfactual(g) for g in test_set.graphs]
        flipped = [r for r in results if r.flipped]
        assert len(flipped) / len(results) >= 0.9

        for graph, result in zip(test_set.graphs, results):
            assert isinstance(result, CounterfactualResult)
            assert result.original_class == trained_gnn.predict(graph)
            if not result.flipped:
                continue
            assert result.counterfactual_class != result.original_class
            assert result.edit_size >= 1
            edited = graph.adjacency.copy()
            for i, j in result.deleted_edges:
                assert 0 <= i < j < graph.n_real
                edited[i, j] = 0.0
                edited[j, i] = 0.0
            rebuilt = ACFG(
                edited,
                graph.features.copy(),
                label=graph.label,
                family=graph.family,
                n_real=graph.n_real,
            )
            assert trained_gnn.predict(rebuilt) == result.counterfactual_class

    def test_deterministic_across_calls(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explainer = CFExplainer(trained_gnn)
        first = explainer.counterfactual(graph)
        second = explainer.counterfactual(graph)
        assert first.deleted_edges == second.deleted_edges
        assert first.flipped == second.flipped
        np.testing.assert_array_equal(first.node_scores, second.node_scores)

    def test_ranking_matches_deletion_scores(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        explainer = CFExplainer(trained_gnn, iterations=10)
        explanation = explainer.explain(test_set.graphs[0], step_size=20)
        scores = np.asarray(explanation.node_scores, dtype=float)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)
        ranked = scores[explanation.node_order]
        assert np.all(np.diff(ranked) <= 1e-12)


class TestCounterfactualFailureModes:
    def test_edgeless_graph_degrades_without_raising(self, trained_gnn):
        result = CFExplainer(trained_gnn).counterfactual(edgeless_graph())
        assert isinstance(result, CounterfactualResult)
        assert result.flipped is False
        assert result.counterfactual_class is None
        assert result.deleted_edges == ()
        assert result.edit_size == 0
        assert result.iterations_run == 0
        np.testing.assert_array_equal(result.node_scores, np.zeros(3))

    def test_single_node_graph_degrades(self, trained_gnn):
        result = CFExplainer(trained_gnn).counterfactual(single_node_graph())
        assert result.flipped is False
        assert result.node_scores.shape == (1,)

    def test_tiny_budget_returns_typed_result(self, trained_gnn, small_dataset):
        """An exhausted budget is a degraded result, never an exception."""
        _, test_set = small_dataset
        explainer = CFExplainer(trained_gnn, iterations=1, lr=0.0)
        for graph in test_set.graphs[:3]:
            result = explainer.counterfactual(graph)
            assert isinstance(result, CounterfactualResult)
            assert result.iterations_run == 1
            if not result.flipped:
                assert result.counterfactual_class is None
                assert result.deleted_edges == ()

    def test_disconnected_graph(self, trained_gnn):
        graph = disconnected_graph()
        explanation = CFExplainer(trained_gnn, iterations=5).explain(
            graph, step_size=50
        )
        assert sorted(explanation.node_order.tolist()) == list(range(5))
        assert np.all(np.isfinite(np.asarray(explanation.node_scores)))

    def test_empty_graph_rejected(self, trained_gnn):
        graph = ACFG(np.zeros((3, 3)), np.zeros((3, 12)), 0, "Bagle", n_real=0)
        with pytest.raises(ValueError):
            CFExplainer(trained_gnn).counterfactual(graph)

    def test_invalid_hyperparameters_rejected(self, trained_gnn):
        with pytest.raises(ValueError):
            CFExplainer(trained_gnn, iterations=0)
        with pytest.raises(ValueError):
            CFExplainer(trained_gnn, tau=0.0)


# ----------------------------------------------------------------------
# kept_count — the one keep-count formula
# ----------------------------------------------------------------------
class TestKeptCount:
    def test_half_up_not_bankers(self):
        # round() would give 2 for both of these (banker's rounding).
        assert kept_count(0.1, 25) == 3
        assert kept_count(0.5, 5) == 3

    def test_float_representation_of_half(self):
        # 0.3 * 5 == 1.4999999999999998: the epsilon must rescue it.
        assert kept_count(0.3, 5) == 2

    def test_exact_and_boundary_values(self):
        assert kept_count(0.2, 25) == 5
        assert kept_count(1.0, 7) == 7
        assert kept_count(0.01, 5) == 1  # clamps up to one node
        assert kept_count(0.999, 3) == 3  # clamps down to n

    def test_validation(self):
        with pytest.raises(ValueError):
            kept_count(0.0, 5)
        with pytest.raises(ValueError):
            kept_count(1.5, 5)
        with pytest.raises(ValueError):
            kept_count(0.2, 0)

    def test_every_ladder_site_agrees(self, trained_gnn, small_dataset):
        """top_nodes and the ladder rungs must use the same counts."""
        _, test_set = small_dataset
        explainer = CFExplainer(trained_gnn, iterations=2)
        explanation = explainer.explain(test_set.graphs[0], step_size=20)
        for level in explanation.levels:
            expected = kept_count(level.fraction, explanation.graph.n_real)
            assert level.kept_nodes.size == expected
            assert (
                explanation.top_nodes(level.fraction).size == expected
            )


# ----------------------------------------------------------------------
# ladder-mismatch guard + fidelity denominator
# ----------------------------------------------------------------------
def _explanation_with_fractions(graph, fractions):
    order = np.arange(graph.n_real)
    levels = [
        SubgraphLevel(
            fraction=f,
            kept_nodes=order[: kept_count(f, graph.n_real)],
        )
        for f in fractions
    ]
    return Explanation(
        graph=graph,
        explainer_name="synthetic",
        predicted_class=0,
        node_order=order,
        levels=levels,
    )


class TestLadderGuard:
    def test_float_drift_between_lifted_and_unlifted_accepted(
        self, trained_gnn, small_dataset
    ):
        """Lifted explanations rebuild fractions with float drift
        (0.1 + 0.2 != 0.3 exactly); the guard must compare canonically."""
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        exact = _explanation_with_fractions(graph, [0.1, 0.2, 0.3])
        drifted = _explanation_with_fractions(graph, [0.1, 0.2, 0.1 + 0.2])
        assert drifted.fractions != exact.fractions  # the old guard's trap
        fractions, accuracies = sweep_accuracy_curve(
            trained_gnn, [exact, drifted]
        )
        assert fractions.shape == accuracies.shape == (3,)

    def test_true_mismatch_still_rejected(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        a = _explanation_with_fractions(graph, [0.1, 0.2])
        b = _explanation_with_fractions(graph, [0.1, 0.3])
        with pytest.raises(ValueError, match="mismatched ladder"):
            sweep_accuracy_curve(trained_gnn, [a, b])


class TestFidelityPlusDenominator:
    def test_fully_kept_explanation_scores_removal_as_incorrect(
        self, trained_gnn, small_dataset
    ):
        """At fraction=1.0 the complement is empty: the explanation must
        stay in the denominator with removal counted incorrect, so
        fidelity+ equals the full-graph accuracy exactly."""
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explanation = _explanation_with_fractions(graph, [1.0])
        full = float(trained_gnn.predict(graph) == graph.label)
        assert fidelity_plus_acc(
            trained_gnn, [explanation], 1.0
        ) == pytest.approx(full)


# ----------------------------------------------------------------------
# sufficiency / necessity / edit size
# ----------------------------------------------------------------------
class TestCounterfactualMetrics:
    @pytest.fixture()
    def explanations(self, trained_gnn, small_dataset):
        _, test_set = small_dataset
        explainer = CFExplainer(trained_gnn, iterations=10)
        return [
            explainer.explain(graph, step_size=20)
            for graph in test_set.graphs[:6]
        ]

    def test_bounded_rates(self, trained_gnn, explanations):
        for value in (
            sufficiency(trained_gnn, explanations, 0.2),
            necessity(trained_gnn, explanations, 0.2),
            edit_size(explanations, 0.2),
        ):
            assert 0.0 <= value <= 1.0

    def test_full_keep_is_sufficient_and_necessary(
        self, trained_gnn, explanations
    ):
        # Keeping every node reproduces the prediction (sufficiency 1)
        # and leaves an empty residual, which counts as lost.
        assert sufficiency(trained_gnn, explanations, 1.0) == 1.0
        assert necessity(trained_gnn, explanations, 1.0) == 1.0
        assert edit_size(explanations, 1.0) == pytest.approx(1.0)

    def test_edgeless_graph_contributes_zero_edit(self):
        explanation = _explanation_with_fractions(edgeless_graph(), [0.5])
        assert edit_size([explanation], 0.5) == 0.0

    def test_empty_list_rejected(self, trained_gnn):
        with pytest.raises(ValueError):
            sufficiency(trained_gnn, [], 0.2)
        with pytest.raises(ValueError):
            necessity(trained_gnn, [], 0.2)
        with pytest.raises(ValueError):
            edit_size([], 0.2)


# ----------------------------------------------------------------------
# the eval-report counterfactual table
# ----------------------------------------------------------------------
class TestCounterfactualTable:
    def test_build_and_format(self, trained_gnn, small_dataset):
        from repro.eval.sweep import FamilySweep
        from repro.eval.tables import (
            build_counterfactual_table,
            format_counterfactual_table,
        )

        _, test_set = small_dataset
        graph = test_set.graphs[0]
        explanation = _explanation_with_fractions(graph, [0.2, 0.4])
        sweeps = {
            graph.family: {
                "CFExplainer": FamilySweep(
                    family=graph.family,
                    explainer_name="CFExplainer",
                    fractions=np.array([0.2, 0.4]),
                    accuracies=np.array([1.0, 1.0]),
                    explanations=[explanation],
                )
            }
        }
        rows = build_counterfactual_table(trained_gnn, sweeps, fraction=0.2)
        assert [r.explainer for r in rows] == ["CFExplainer"]
        assert 0.0 <= rows[0].sufficiency <= 1.0
        assert 0.0 <= rows[0].necessity <= 1.0
        assert 0.0 <= rows[0].edit_size <= 1.0
        text = format_counterfactual_table(rows, fraction=0.2)
        assert "CFExplainer" in text
        assert "Sufficiency@20%" in text


# ----------------------------------------------------------------------
# the bench payload the robustness drill commits
# ----------------------------------------------------------------------
class TestCounterfactualBenchPayload:
    def test_payload_shape(self, trained_gnn, small_dataset, tmp_path):
        from types import SimpleNamespace

        from repro.eval.robustness import (
            counterfactual_bench_payload,
            write_counterfactual_bench,
        )

        _, test_set = small_dataset
        artifacts = SimpleNamespace(
            gnn=trained_gnn,
            test_set=test_set,
            explainers={"CFExplainer": CFExplainer(trained_gnn, iterations=5)},
        )
        payload = counterfactual_bench_payload(
            artifacts, graphs_per_family=1, step_size=20
        )
        cell = payload["CFExplainer"]
        for key in (
            "sufficiency",
            "necessity",
            "edit_size",
            "flip_rate",
            "mean_deleted_edges",
        ):
            assert key in cell, key
        assert 0.0 <= cell["flip_rate"] <= 1.0

        path = write_counterfactual_bench(
            payload, tmp_path / "BENCH_counterfactual.json"
        )
        import json

        assert json.loads(path.read_text()) == payload

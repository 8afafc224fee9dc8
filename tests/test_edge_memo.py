"""Each ACFG scans its dense real block once: the memoized edge list.

``ACFG.self_looped_edges`` is the one owner of graph → edges; every Â
(batch packing, ``predict``, perturbation scoring, Algorithm 2, the
explainers, the metrics) is derived from it.  These tests pin the memo's
contract — computed once, read-only, fresh on every copy, dropped by
``invalidate_memos`` — and the hot path's shape: explaining one graph
with all five explainers and scoring it scans its adjacency once.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.acfg.graph as graph_module
from repro.baselines import GNNExplainerBaseline, PGExplainerBaseline, SubgraphXBaseline
from repro.core import CFGExplainer
from repro.explain import CFExplainer
from repro.explain.metrics import necessity, sufficiency, sweep_accuracy_curve
from repro.harden.fuzz import _corrupt_payload
from tests.reference_training import dense_predict_proba


@pytest.fixture
def scans(monkeypatch):
    """Counts the dense real-block scans behind every edge-list memo."""
    calls = []
    scan = graph_module._real_edges

    def counting(adjacency, n_real):
        calls.append(n_real)
        return scan(adjacency, n_real)

    monkeypatch.setattr(graph_module, "_real_edges", counting)
    return calls


def fresh(graph):
    """A copy with its own arrays and an empty memo."""
    return replace(graph, adjacency=graph.adjacency.copy(), features=graph.features.copy())


def test_edge_list_is_computed_once_and_read_only(small_dataset, trained_gnn, scans):
    graph = fresh(small_dataset[1][0])
    edges = graph.self_looped_edges()
    trained_gnn.predict(graph)
    trained_gnn.predict_proba_batch([graph, graph])
    trained_gnn.subgraph_proba(graph, np.arange(graph.n_real // 2))
    assert graph.self_looped_edges() is edges
    assert scans == [graph.n_real]
    for array in edges:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_replace_and_padded_start_with_a_fresh_memo(small_dataset, scans):
    graph = fresh(small_dataset[1][0])
    edges = graph.self_looped_edges()
    copies = [replace(graph), graph.padded(graph.n + 3)]
    for copy in copies:
        got = copy.self_looped_edges()
        assert got is not edges
        for part, want in zip(got, edges):
            assert np.array_equal(part, want)
    assert len(scans) == 1 + len(copies)
    assert graph.padded(graph.n) is graph  # no copy, so the memo is shared


def test_fuzzer_corruption_reaches_edges_and_predict(small_dataset, trained_gnn):
    """After ``adj_bad_value`` and ``invalidate_memos``, Â carries the 7."""
    for seed in range(200):
        graph = fresh(small_dataset[1][0])
        before = trained_gnn.predict_proba(graph)  # memoizes the clean edges
        if _corrupt_payload(graph, np.random.default_rng(seed)) != "adj_bad_value":
            continue
        ((row, col),) = np.argwhere(graph.adjacency == 7.0)
        if row != col:
            break
    else:
        pytest.fail("no seed corrupts an off-diagonal adjacency entry")
    rows, cols, weights = graph.self_looped_edges()
    at = np.flatnonzero((rows == row) & (cols == col))
    assert weights[at].tolist() == [7.0]
    probs = trained_gnn.predict_proba(graph)
    assert not np.array_equal(probs, before)
    np.testing.assert_allclose(probs, dense_predict_proba(trained_gnn, graph), rtol=0, atol=1e-12)


def test_explaining_and_scoring_scans_the_real_block_once(
    small_dataset, trained_gnn, trained_theta, scans
):
    train_set, test_set = small_dataset
    pg = PGExplainerBaseline(trained_gnn, epochs=1)
    pg.fit(train_set)
    explainers = [
        CFGExplainer(trained_gnn, trained_theta),
        GNNExplainerBaseline(trained_gnn, epochs=3),
        SubgraphXBaseline(trained_gnn, mcts_iterations=3, shapley_samples=1),
        pg,
        CFExplainer(trained_gnn, iterations=3),
    ]
    graph = fresh(test_set[0])
    assert graph.n > graph.n_real  # padded, as the benchmark's graphs are
    scans.clear()
    for explainer in explainers:
        explanation = explainer.explain(graph)
        sweep_accuracy_curve(trained_gnn, [explanation])
        sufficiency(trained_gnn, [explanation], 0.2)
        necessity(trained_gnn, [explanation], 0.2)
    assert scans == [graph.n_real]

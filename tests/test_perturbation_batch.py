"""Batched perturbation scoring: equivalence with the dense per-call path.

``GCNClassifier.subgraph_proba_batch`` scores many node-masked copies of
one graph in block-diagonal sparse passes whose Â is derived from the
graph's edge list.  The oracle below is the dense per-call body it
replaced: zero the removed rows/columns of A and X, normalize the dense
matrix, run the per-graph forward.  Contract: max |Δp| ≤ 1e-12 and the
same argmax, for every chunk layout and edge case, and no
traffic through the model's Â cache.
"""

import numpy as np

import repro.gnn.batch as batch_module
from repro.acfg import ACFG
from repro.baselines.subgraphx import SubgraphXBaseline, shapley_score, shapley_scores
from repro.explain.metrics import (
    fidelity_plus_acc,
    necessity,
    sufficiency,
    sweep_accuracy_curve,
)
from repro.gnn import GCNClassifier
from repro.gnn.normalize import masked_normalized_csr, self_looped_edges
from repro.nn import no_grad
from tests.reference_training import dense_embed, normalized_adjacency_csr

TOLERANCE = 1e-12


def dense_subgraph_proba(model, graph, kept_nodes):
    """The per-call dense body ``subgraph_proba`` used to run."""
    kept_nodes = np.asarray(kept_nodes, dtype=int)
    adjacency = graph.subgraph_adjacency(kept_nodes)
    features = graph.masked_features(kept_nodes)
    mask = np.zeros(graph.n, dtype=bool)
    mask[kept_nodes] = True
    mask[graph.n_real :] = False
    with no_grad():
        z = dense_embed(model, adjacency, features, mask)
        probs = model.classify(z)
    return probs.numpy().copy()


def random_graph(rng, n_real, padding, self_loops=False):
    """A padded ACFG with jump (1) and call (2) edges, optionally self-loops."""
    n = n_real + padding
    adjacency = np.zeros((n, n))
    draw = rng.random((n_real, n_real))
    real = np.where(draw < 0.08, 1.0, np.where(draw < 0.12, 2.0, 0.0))
    if not self_loops:
        np.fill_diagonal(real, 0.0)
    adjacency[:n_real, :n_real] = real
    features = np.zeros((n, 12))
    features[:n_real] = rng.uniform(0, 1, size=(n_real, 12))
    return ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real)


def assert_matches_oracle(model, graph, kept_sets):
    batched = model.subgraph_proba_batch(graph, kept_sets)
    assert batched.shape == (len(kept_sets), model.num_classes)
    for row, kept in zip(batched, kept_sets):
        reference = dense_subgraph_proba(model, graph, kept)
        assert np.max(np.abs(row - reference)) <= TOLERANCE
        assert np.argmax(row) == np.argmax(reference)


def test_random_keep_masks_match_dense_oracle():
    rng = np.random.default_rng(7)
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(1))
    for _ in range(6):
        graph = random_graph(rng, int(rng.integers(2, 40)), int(rng.integers(0, 12)))
        kept_sets = [
            np.flatnonzero(rng.random(graph.n_real) < rng.random())
            for _ in range(9)
        ]
        assert_matches_oracle(model, graph, kept_sets)


def test_edge_cases_match_dense_oracle():
    rng = np.random.default_rng(3)
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(2))
    graph = random_graph(rng, 20, 6, self_loops=True)
    assert np.any(np.diag(graph.adjacency)), "fixture must carry self-loops"
    assert np.any(graph.adjacency == 2.0), "fixture must carry call edges"
    kept_sets = [
        np.array([], dtype=int),  # empty kept set
        np.array([0, 3, 21, 25]),  # indices in the padding
        np.array([4, 4, 5, 5, 5, 9]),  # duplicate indices
        np.arange(graph.n),  # everything, padding included
        np.arange(graph.n_real)[::-1],  # unsorted
        np.array([7]),  # a single node
    ]
    assert_matches_oracle(model, graph, kept_sets)


def test_all_padding_graph_matches_dense_oracle():
    model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(4))
    for conv in model.convs:
        conv.bias.data[...] = 0.1  # a bias leak from an active padding row shows
    graph = ACFG(np.zeros((5, 5)), np.zeros((5, 12)), label=0, family="Bagle", n_real=0)
    assert_matches_oracle(model, graph, [np.array([], dtype=int), np.array([0, 1, 2])])


def test_no_sets_gives_empty_matrix():
    model = GCNClassifier(hidden=(8, 4), rng=np.random.default_rng(0))
    graph = random_graph(np.random.default_rng(0), 6, 2)
    assert model.subgraph_proba_batch(graph, []).shape == (0, model.num_classes)


def test_chunks_equal_per_set_calls(monkeypatch):
    rng = np.random.default_rng(11)
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(5))
    graph = random_graph(rng, 30, 4)
    kept_sets = [np.flatnonzero(rng.random(graph.n) < 0.5) for _ in range(23)]
    # A 100-row budget holds three 30-row copies: 23 sets need 8 chunks.
    monkeypatch.setattr(batch_module, "PERTURBATION_ROW_BUDGET", 100)
    chunks = list(batch_module.iter_perturbation_batches(graph, kept_sets))
    assert [c.num_graphs for c in chunks] == [3] * 7 + [2]
    assert all(c.total_nodes <= 100 for c in chunks)
    batched = model.subgraph_proba_batch(graph, kept_sets)
    singles = np.vstack([model.subgraph_proba(graph, kept) for kept in kept_sets])
    np.testing.assert_allclose(batched, singles, rtol=0, atol=TOLERANCE)
    np.testing.assert_array_equal(batched.argmax(axis=1), singles.argmax(axis=1))


def test_masked_csr_blocks_equal_csr_builder():
    """Every block is the CSR builder's Â of that subgraph, bit for bit."""
    rng = np.random.default_rng(9)
    graph = random_graph(rng, 25, 5, self_loops=True)
    edges = self_looped_edges(graph.adjacency, graph.n_real)
    keep = rng.random((4, graph.n_real)) < 0.6
    stacked = masked_normalized_csr(edges, keep).toarray()
    for k in range(4):
        kept = np.flatnonzero(keep[k])
        mask = np.zeros(graph.n, dtype=bool)
        mask[kept] = True
        reference = normalized_adjacency_csr(graph.subgraph_adjacency(kept), mask)
        rows = slice(k * graph.n_real, (k + 1) * graph.n_real)
        np.testing.assert_array_equal(
            stacked[rows, rows], reference.toarray()[: graph.n_real, : graph.n_real]
        )


def test_real_complement_matches_set_loop():
    graph = random_graph(np.random.default_rng(1), 12, 3)
    for nodes in ([], [0, 5, 5, 11], frozenset({3, 4}), np.array([2, 13, 14]), range(12)):
        important = set(int(i) for i in nodes)
        expected = [i for i in range(graph.n_real) if i not in important]
        assert graph.real_complement(nodes).tolist() == expected


def test_shapley_scores_equal_sequential_calls():
    rng = np.random.default_rng(2)
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(6))
    graph = random_graph(rng, 15, 3)
    players = [frozenset({i}) for i in range(graph.n_real)] + [frozenset(range(graph.n_real))]
    batched = shapley_scores(model, graph, players, 3, np.random.default_rng(4), samples=3)
    sequential_rng = np.random.default_rng(4)
    sequential = [
        shapley_score(model, graph, player, 3, sequential_rng, samples=3)
        for player in players
    ]
    np.testing.assert_allclose(batched, sequential, rtol=0, atol=TOLERANCE)


def test_scoring_leaves_a_hat_cache_untouched():
    """Sweep, CFF metrics and SubgraphX never add Â cache entries."""
    rng = np.random.default_rng(8)
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(7))
    graph = random_graph(rng, 30, 10)
    model.predict(graph)  # the one full-graph Â every caller shares
    before = model.a_hat_cache.cache_info()
    explainer = SubgraphXBaseline(model, mcts_iterations=6, shapley_samples=2)
    explanation = explainer.explain(graph)
    sweep_accuracy_curve(model, [explanation])
    sufficiency(model, [explanation], 0.2)
    necessity(model, [explanation], 0.2)
    fidelity_plus_acc(model, [explanation], 0.2)
    after = model.a_hat_cache.cache_info()
    assert (after.size, after.misses) == (before.size, before.misses)

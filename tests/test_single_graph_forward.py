"""The classifier's one single-graph forward against the dense reference.

``GCNClassifier.embed`` runs Φ_e over a graph's real rows with Â as an
edge list; ``predict`` is a one-graph batch.  The oracles below are the
padded dense bodies they replaced (``tests/reference_training.py``):
Gradient's saliency through a dense forward, and PGExplainer's offline
training and explanation with the edge mask scattered into an ``[N, N]``
Â.  Contract, on the tier-1 test graphs and the edge cases: identical
predicted classes, scores within 1e-12 and identical node orders.

A forward on a graph with few real nodes and much padding must not
allocate anything of the padded size squared: one ``[N, N]`` float64 is
what the dense engine cost per call.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.baselines import GradientExplainer, PGExplainerBaseline
from repro.baselines.gradient import max_pool_ties_evenly
from repro.explain.base import rank_by_score
from repro.gnn import GCNClassifier
from repro.gnn.normalize import normalized_edges
from repro.nn import Tensor, nll_loss_from_probs, no_grad
from tests.reference_training import (
    dense_embed_a_hat,
    dense_forward,
    dense_predict,
    graph_a_hat,
    scatter2d,
)
from tests.test_algorithm2_oracle import EDGE_CASES

TOLERANCE = 1e-12


def dense_gradient_scores(model, graph):
    """Gradient's dense body: saliency through the padded forward."""
    x = Tensor(np.asarray(graph.features, dtype=np.float64), requires_grad=True)
    active = np.arange(graph.n) < graph.n_real
    z = dense_embed_a_hat(model, graph_a_hat(model, graph), x, active)
    logits = model.classifier(max_pool_ties_evenly(z[: graph.n_real])).reshape(-1)
    seed = np.zeros_like(logits.numpy())
    seed[int(np.argmax(logits.numpy()))] = 1.0
    logits.backward(seed)
    return np.linalg.norm(x.grad[: graph.n_real], axis=1)


class DensePGExplainer(PGExplainerBaseline):
    """PGExplainer's dense body: the edge mask scattered into ``[N, N]`` Â."""

    def _cache_graph(self, graph):
        active = np.arange(graph.n) < graph.n_real
        a_hat = graph_a_hat(self.model, graph)
        edges = np.argwhere((a_hat > 0) & ~np.eye(graph.n, dtype=bool))
        with no_grad():
            z = dense_embed_a_hat(self.model, a_hat, graph.features, active).numpy()
        return SimpleNamespace(
            a_hat=a_hat,
            edges=edges,
            edge_embeddings=np.concatenate([z[edges[:, 0]], z[edges[:, 1]]], axis=1),
            active=active,
            target=dense_predict(self.model, graph),
            features=graph.features,
        )

    def _graph_loss(self, cache, tau, rng):
        logits = self.predictor(Tensor(cache.edge_embeddings)).reshape(-1)
        uniform = rng.uniform(1e-6, 1.0 - 1e-6, size=logits.shape)
        noise = np.log(uniform) - np.log(1.0 - uniform)
        soft_mask = ((logits + Tensor(noise)) * (1.0 / tau)).sigmoid()
        rows, cols = cache.edges[:, 0], cache.edges[:, 1]
        off_edges = cache.a_hat.copy()
        off_edges[rows, cols] = 0.0
        edge_weights = Tensor(cache.a_hat[rows, cols]) * soft_mask
        masked = Tensor(off_edges) + scatter2d(edge_weights, cache.a_hat.shape, rows, cols)
        z = dense_embed_a_hat(self.model, masked, cache.features, cache.active)
        probs = self.model.classify(z)
        prediction_loss = nll_loss_from_probs(probs, cache.target, eps=1e-12)
        size_loss = soft_mask.sum() * self.size_weight
        probs_edges = logits.sigmoid()
        entropy = -(
            probs_edges * probs_edges.log(eps=1e-12)
            + (1.0 - probs_edges) * (1.0 - probs_edges).log(eps=1e-12)
        ).mean()
        return prediction_loss + size_loss + entropy * self.entropy_weight

    def rank_nodes(self, graph):
        cache = self._cache_graph(graph)
        weights = np.zeros((graph.n, graph.n))
        if cache.edges.shape[0] > 0:
            with no_grad():
                logits = self.predictor(Tensor(cache.edge_embeddings)).numpy()
            probabilities = 1.0 / (1.0 + np.exp(-logits.reshape(-1)))
            weights[cache.edges[:, 0], cache.edges[:, 1]] = probabilities
        scores = (weights.sum(axis=0) + weights.sum(axis=1))[: graph.n_real]
        return rank_by_score(scores), scores


@pytest.fixture(scope="module")
def graphs(small_dataset):
    _, test_set = small_dataset
    return list(test_set.graphs) + [EDGE_CASES[case]() for case in sorted(EDGE_CASES)]


def assert_scores_match(scores, expected):
    np.testing.assert_allclose(scores, expected, rtol=0, atol=TOLERANCE)
    np.testing.assert_array_equal(rank_by_score(scores), rank_by_score(expected))


def test_predict_matches_dense_reference(trained_gnn, graphs):
    for graph in graphs:
        with no_grad():
            _, probs = dense_forward(trained_gnn, graph)
        np.testing.assert_allclose(
            trained_gnn.predict_proba(graph), probs.numpy(), rtol=0, atol=TOLERANCE
        )
        assert trained_gnn.predict(graph) == int(np.argmax(probs.numpy()))


def test_gradient_matches_dense_reference(trained_gnn, graphs):
    explainer = GradientExplainer(trained_gnn)
    for graph in graphs:
        order, scores = explainer.rank_nodes(graph)
        assert_scores_match(scores, dense_gradient_scores(trained_gnn, graph))


def test_pgexplainer_matches_dense_reference(trained_gnn, small_dataset, graphs):
    train_set, _ = small_dataset
    sparse = PGExplainerBaseline(trained_gnn, epochs=4, seed=3)
    dense = DensePGExplainer(trained_gnn, epochs=4, seed=3)
    np.testing.assert_allclose(
        sparse.fit(train_set).losses, dense.fit(train_set).losses, rtol=0, atol=TOLERANCE
    )
    for graph in graphs:
        order, scores = sparse.rank_nodes(graph)
        expected_order, expected = dense.rank_nodes(graph)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_array_equal(order, expected_order)


def test_padding_edges_leave_both_forwards_alike(trained_gnn):
    """Both forwards read only the real block of Â.  Edges in the padding
    rows (the verifier's ``padding_nonzero``, reachable with verification
    off) change neither ``predict`` nor ``embed``: the graph classifies as
    its clean copy, and the two forwards agree on it."""
    adjacency = np.zeros((8, 8))
    adjacency[[0, 1, 2, 3], [1, 2, 3, 4]] = 1.0
    clean_adjacency = adjacency.copy()
    adjacency[4, 6] = adjacency[6, 7] = 1.0
    features = np.zeros((8, 12))
    features[:5] = np.random.default_rng(4).random((5, 12))
    graph = ACFG(adjacency, features, label=0, family="toy", n_real=5)
    clean = ACFG(clean_adjacency, features, label=0, family="toy", n_real=5)
    probs = trained_gnn.predict_proba(graph)
    assert np.array_equal(probs, trained_gnn.predict_proba(clean))
    with no_grad():
        z = trained_gnn.embed(*normalized_edges(adjacency, 5), features[:5])
        via_embed = trained_gnn.classify(z).numpy()
    np.testing.assert_allclose(probs, via_embed, rtol=0, atol=TOLERANCE)


def test_tied_max_pool_splits_gradient_evenly():
    """Rows within 1e-12 of a column's maximum share its gradient."""
    z = Tensor(np.array([[1.0, 0.5], [1.0 + 2e-16, 0.2], [0.3, 0.5 - 1e-9]]), requires_grad=True)
    pooled = max_pool_ties_evenly(z)
    np.testing.assert_array_equal(pooled.numpy(), [[1.0 + 2e-16, 0.5]])
    pooled.backward(np.array([[4.0, 6.0]]))
    np.testing.assert_array_equal(z.grad, [[2.0, 6.0], [2.0, 0.0], [0.0, 0.0]])


def padded_chain(n_real=17, n=3000, seed=5):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    adjacency[np.arange(n_real - 1), np.arange(1, n_real)] = 1.0
    adjacency[0, n_real - 1] = 2.0
    features = np.zeros((n, 12))
    features[:n_real] = rng.random((n_real, 12))
    return ACFG(adjacency, features, label=0, family="toy", n_real=n_real)


def test_padded_forward_allocates_less_than_one_dense_matrix():
    """17 real nodes padded to 3,000: no call may peak at one [N, N] float64
    (69 MB); the dense engine allocated one or more per call."""
    model = GCNClassifier(rng=np.random.default_rng(0))
    pg = PGExplainerBaseline(model, epochs=2)
    pg.fit([padded_chain(n=17, seed=seed) for seed in range(3)])
    calls = {
        "predict": model.predict,
        "Gradient": GradientExplainer(model).explain,
        "PGExplainer": pg.explain,
    }
    limit = 3000 * 3000 * 8
    for name, call in calls.items():
        graph = padded_chain()  # cold: no content key, no cached Â
        model.a_hat_cache.clear()
        tracemalloc.start()
        try:
            call(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{name} peaked at {peak / 2**20:.1f} MiB"

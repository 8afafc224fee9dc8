"""Algorithm 2 on the edge list: the dense oracle.

``interpret`` re-embeds every pruned rung on the real rows, with Â
built from the graph's edge list and filled dense.  The oracle below is
the padded dense body it replaced, verbatim in arithmetic: a dense
adjacency copy whose pruned rows and columns are zeroed, one
``gnn.embed`` per rung through the Â cache, the full-graph rung from
the embedding cache (stored on a miss), and one N×N snapshot per rung.
Contract: ``node_order``, ``node_scores``, every level's ``kept_nodes``
and ``predicted_class`` are ``np.array_equal`` — no tolerance — with
and without an embedding cache, on padded and unpadded graphs and the
edge cases (self-jump blocks, weight-2 call edges, edgeless, single
node, disconnected), without feature masking, and for a DGCNN.
"""

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.core import CFGExplainer, CFGExplainerModel, interpret
from repro.core.interpret import rung_a_hat
from repro.explain.base import level_fractions
from repro.explain.explanation import kept_count
from repro.gnn import DGCNNClassifier, EmbeddingCache
from repro.gnn.normalize import normalized_adjacency_csr, self_looped_edges
from repro.nn import Tensor, no_grad
from repro.obs import tracing


# ----------------------------------------------------------------------
# the dense oracle
# ----------------------------------------------------------------------
def dense_interpret(
    explainer, gnn, graph, step_size=10, mask_features=True, embedding_cache=None
):
    """Algorithm 2's padded dense body: ``(explanation fields, snapshots)``.

    Snapshot *k* is the [N, N] adjacency of ladder rung *k*, smallest
    first, as the explanations used to store it.
    """
    fractions = level_fractions(step_size)
    n_real = graph.n_real

    adjacency = graph.adjacency.copy()
    features = np.asarray(graph.features, dtype=np.float64).copy()
    remaining = list(range(n_real))
    removal_order = []
    snapshots = []

    active_mask = np.zeros(graph.n, dtype=bool)
    active_mask[:n_real] = True

    first_pass_scores = None
    target_sizes = [kept_count(f, n_real) for f in fractions]
    for next_target in reversed([0] + target_sizes[:-1]):
        snapshots.append(adjacency.copy())
        if next_target >= len(remaining):
            continue
        if embedding_cache is not None and not removal_order:
            z = Tensor(embedding_cache.forward(graph).z)
        else:
            with no_grad():
                z = gnn.embed(adjacency, features, active_mask)
        scores = explainer.node_scores(z, n_real)
        if first_pass_scores is None:
            first_pass_scores = scores.copy()
        if next_target == 0:
            break
        prune_count = len(remaining) - next_target
        remaining.sort(key=lambda i: scores[i])
        pruned, remaining = remaining[:prune_count], remaining[prune_count:]
        for node in sorted(pruned, key=lambda i: scores[i]):
            removal_order.append(node)
            adjacency[node, :] = 0.0
            adjacency[:, node] = 0.0
            if mask_features:
                features[node, :] = 0.0

    with no_grad():
        z = gnn.embed(adjacency, features, active_mask)
    final_scores = explainer.node_scores(z, n_real)
    survivors = sorted(remaining, key=lambda i: final_scores[i], reverse=True)
    node_order = np.array(survivors + list(reversed(removal_order)), dtype=int)
    snapshots.reverse()
    predicted_class = (
        embedding_cache.forward(graph).predicted_class
        if embedding_cache is not None
        else gnn.predict(graph)
    )
    kept = [node_order[:size] for size in target_sizes]
    return {
        "node_order": node_order,
        "node_scores": first_pass_scores,
        "kept": kept,
        "predicted_class": predicted_class,
    }, snapshots


def assert_matches_oracle(theta, gnn, graph, cache=None, **kwargs):
    """``interpret`` equals the oracle exactly; returns the oracle's snapshots.

    ``interpret`` runs first so that a cold ``cache`` is still cold for
    it; the oracle then stores the graph, as the replaced body did.
    """
    explanation = interpret(theta, gnn, graph, embedding_cache=cache, **kwargs)
    expected, snapshots = dense_interpret(
        theta, gnn, graph, embedding_cache=cache, **kwargs
    )
    assert np.array_equal(explanation.node_order, expected["node_order"])
    assert np.array_equal(explanation.node_scores, expected["node_scores"])
    assert len(explanation.levels) == len(expected["kept"])
    for level, kept in zip(explanation.levels, expected["kept"]):
        assert np.array_equal(level.kept_nodes, kept)
    assert explanation.predicted_class == expected["predicted_class"]
    return explanation, snapshots


# ----------------------------------------------------------------------
# hand-built graphs
# ----------------------------------------------------------------------
def _graph(adjacency, n_real=None, seed=0, pad=0):
    """An ACFG over ``adjacency`` with random features, ``pad`` padded rows."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n_real = adjacency.shape[0] if n_real is None else n_real
    n = adjacency.shape[0] + pad
    padded = np.zeros((n, n))
    padded[: adjacency.shape[0], : adjacency.shape[0]] = adjacency
    features = np.zeros((n, 12))
    features[:n_real] = np.random.default_rng(seed).random((n_real, 12))
    return ACFG(padded, features, label=0, family="toy", n_real=n_real)


def _chain(n, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = 1.0
    for _ in range(n // 2):  # a few extra jumps and weight-2 calls
        i, j = rng.integers(0, n, size=2)
        adjacency[i, j] = float(rng.choice([1.0, 2.0]))
    return adjacency


def _self_jumps(n, seed=1):
    adjacency = _chain(n, seed)
    loops = np.arange(0, n, 3)
    adjacency[loops, loops] = 1.0
    return adjacency


def _disconnected(n, seed=2):
    half = n // 2
    adjacency = np.zeros((n, n))
    adjacency[:half, :half] = _chain(half, seed)
    adjacency[half:, half:] = _chain(n - half, seed + 1)
    return adjacency


EDGE_CASES = {
    "chain": lambda: _graph(_chain(14)),
    "chain_padded": lambda: _graph(_chain(14), pad=9),
    "self_jumps": lambda: _graph(_self_jumps(17), pad=4),
    "call_edges": lambda: _graph(2.0 * (_chain(11, seed=5) > 0)),
    "edgeless": lambda: _graph(np.zeros((9, 9)), pad=3),
    "single_node": lambda: _graph(np.zeros((1, 1)), pad=5),
    "single_self_jump": lambda: _graph(np.ones((1, 1))),
    "disconnected": lambda: _graph(_disconnected(16), pad=2),
}


@pytest.fixture(scope="module")
def warm_cache(trained_gnn, small_dataset):
    train_set, test_set = small_dataset
    cache = EmbeddingCache(trained_gnn)
    cache.populate(train_set)
    cache.populate(test_set)
    return cache


class TestOracle:
    def test_test_split_without_cache(self, trained_gnn, trained_theta, small_dataset):
        _, test_set = small_dataset
        for graph in test_set.graphs:
            assert_matches_oracle(trained_theta, trained_gnn, graph)

    def test_test_split_with_warm_cache(
        self, trained_gnn, trained_theta, small_dataset, warm_cache
    ):
        _, test_set = small_dataset
        for graph in test_set.graphs:
            assert_matches_oracle(trained_theta, trained_gnn, graph, cache=warm_cache)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, trained_gnn, trained_theta, case):
        graph = EDGE_CASES[case]()
        assert_matches_oracle(trained_theta, trained_gnn, graph)
        assert_matches_oracle(
            trained_theta, trained_gnn, graph, cache=EmbeddingCache(trained_gnn)
        )

    @pytest.mark.parametrize("step_size", [20, 25, 50, 100])
    def test_step_sizes(self, trained_gnn, trained_theta, small_dataset, step_size):
        _, test_set = small_dataset
        graph = test_set.graphs[0]
        assert_matches_oracle(trained_theta, trained_gnn, graph, step_size=step_size)
        assert_matches_oracle(
            trained_theta, trained_gnn, graph,
            cache=EmbeddingCache(trained_gnn), step_size=step_size,
        )

    def test_without_feature_masking(self, trained_gnn, trained_theta, small_dataset):
        _, test_set = small_dataset
        for graph in [*test_set.graphs[:4], EDGE_CASES["self_jumps"]()]:
            assert_matches_oracle(
                trained_theta, trained_gnn, graph, mask_features=False
            )

    def test_dgcnn(self, small_dataset):
        _, test_set = small_dataset
        model = DGCNNClassifier(
            conv_channels=(8, 8, 4), sort_k=4, rng=np.random.default_rng(0)
        )
        theta = CFGExplainerModel(
            model.embedding_size, 12, rng=np.random.default_rng(1)
        )
        for graph in [*test_set.graphs[:3], EDGE_CASES["self_jumps"]()]:
            assert_matches_oracle(theta, model, graph)
            assert_matches_oracle(theta, model, graph, cache=EmbeddingCache(model))

    def test_snapshots_are_subgraph_adjacency(
        self, trained_gnn, trained_theta, small_dataset
    ):
        """Rung k's matrix is ``graph.subgraph_adjacency(levels[k].kept_nodes)``."""
        _, test_set = small_dataset
        for graph in [*test_set.graphs, EDGE_CASES["self_jumps"]()]:
            explanation, snapshots = assert_matches_oracle(
                trained_theta, trained_gnn, graph
            )
            assert len(snapshots) == len(explanation.levels)
            for level, snapshot in zip(explanation.levels, snapshots):
                assert np.array_equal(
                    graph.subgraph_adjacency(level.kept_nodes), snapshot
                )


class TestRungAHat:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_equals_csr_normalization(self, case):
        """Pruned rows zeroed, every real node active, real block only."""
        graph = EDGE_CASES[case]()
        n_real = graph.n_real
        edges = self_looped_edges(graph.adjacency, n_real)
        active = np.arange(graph.n) < n_real
        rng = np.random.default_rng(0)
        for _ in range(5):
            keep = rng.random(n_real) < 0.6
            kept = np.flatnonzero(keep)
            reference = normalized_adjacency_csr(
                graph.subgraph_adjacency(kept), active
            ).toarray()[:n_real, :n_real]
            assert np.array_equal(rung_a_hat(edges, keep), reference)


class TestCaches:
    def test_leaves_a_hat_cache_alone(
        self, trained_gnn, trained_theta, small_dataset, warm_cache
    ):
        _, test_set = small_dataset
        before = trained_gnn.a_hat_cache.cache_info()
        for graph in test_set.graphs:
            interpret(trained_theta, trained_gnn, graph, embedding_cache=warm_cache)
        after = trained_gnn.a_hat_cache.cache_info()
        assert (after.size, after.misses) == (before.size, before.misses)

    def test_cold_requests_leave_embedding_cache_size(
        self, serve_engine, trained_gnn, trained_theta, small_dataset
    ):
        from repro.malgen import generate_corpus
        from repro.serve import InferenceEngine

        train_set, _ = small_dataset
        cache = EmbeddingCache(trained_gnn)
        cache.populate(train_set)
        engine = InferenceEngine(
            gnn=trained_gnn,
            scaler=serve_engine.scaler,
            explainers={
                "CFGExplainer": CFGExplainer(
                    trained_gnn, trained_theta, embedding_cache=cache
                )
            },
            families=serve_engine.families,
        )
        size = len(cache)
        responses = [engine.submit(s) for s in generate_corpus(2, seed=77)[:20]]
        assert len(cache) == size
        oracle_cache = EmbeddingCache(trained_gnn)
        for response in responses:
            assert not response.cached
            graph = response.explanation.graph
            expected, _ = dense_interpret(
                trained_theta, trained_gnn, graph, embedding_cache=oracle_cache
            )
            assert np.array_equal(
                response.explanation.node_scores, expected["node_scores"]
            )
            assert np.array_equal(
                response.explanation.node_order, expected["node_order"]
            )


def test_iterations_count_scoring_passes(trained_gnn, trained_theta):
    """A 5-node graph skips rungs: five scoring passes, not ten."""
    graph = _graph(_chain(5), pad=3)
    explainer = CFGExplainer(trained_gnn, trained_theta)
    with tracing() as tracer:
        explainer.explain(graph, step_size=10)
    counters = tracer.aggregate()["explain.CFGExplainer"].counters
    assert counters["explain.iterations"] == 5

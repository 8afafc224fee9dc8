"""Relabelling a graph's nodes relabels its explanation.

Every other oracle compares two implementations that share one node
numbering, so a padding leak or an index mix-up common to both goes
unseen.  Here each graph's real nodes are permuted at random (padding
stays last), both graphs are explained, and the permuted graph's
scores are mapped back: the deterministic explainers — Gradient,
PGExplainer and CFGExplainer (Algorithm 2's first-pass scores), and
the dense Algorithm 2 oracle with its full-graph rung read from an
embedding cache's batched forward — must give every node the same score
within 1e-12.

Only scores are compared.  Node orders may differ where
``rank_by_score`` breaks a 12-decimal tie by node index, which is a
property of the ranking, not of the scores.

Gradient is checked on every graph, those whose max pooling ties two
nodes included (tier-1 test graph ``lmir_12304004`` ties column 7): its
read-out splits a tied column's gradient over every node within 1e-12
of the maximum, so the one-ulp gap a renumbering opens between them
does not matter.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.baselines import GradientExplainer, PGExplainerBaseline
from repro.core import CFGExplainer
from repro.gnn import EmbeddingCache
from repro.gnn.normalize import normalized_edges
from repro.nn import no_grad
from tests.test_algorithm2_oracle import EDGE_CASES, dense_interpret

TOLERANCE = 1e-12


def relabelled(graph, permutation):
    """``graph`` with real node ``permutation[i]`` renamed ``i``."""
    order = np.concatenate([permutation, np.arange(graph.n_real, graph.n)])
    return replace(
        graph,
        adjacency=graph.adjacency[np.ix_(order, order)],
        features=graph.features[order],
        block_tags=tuple(graph.block_tags[i] for i in permutation)
        if graph.block_tags
        else (),
    )


def unpadded(graph):
    n_real = graph.n_real
    return replace(
        graph,
        adjacency=graph.adjacency[:n_real, :n_real],
        features=graph.features[:n_real],
    )


class CacheFedOracle:
    """The dense Algorithm 2 oracle, its full-graph rung read from an
    embedding cache (the batched forward)."""

    name = "CFGExplainer oracle (embedding cache)"

    def __init__(self, gnn, theta):
        self.gnn, self.theta = gnn, theta
        self.cache = EmbeddingCache(gnn)

    def explain(self, graph):
        fields, _ = dense_interpret(self.theta, self.gnn, graph, embedding_cache=self.cache)
        return SimpleNamespace(node_scores=fields["node_scores"])


@pytest.fixture(scope="module")
def explainers(trained_gnn, trained_theta, small_dataset):
    """Each explainer on its edge-list forward and, where it has one, on the
    batched forward an embedding cache gives it (as in the pipeline)."""
    train_set, _ = small_dataset
    pgs = [
        PGExplainerBaseline(trained_gnn, epochs=4, seed=3, embedding_cache=cache)
        for cache in (None, EmbeddingCache(trained_gnn))
    ]
    for pg in pgs:
        pg.fit(train_set)
    return [
        GradientExplainer(trained_gnn),
        *pgs,
        CFGExplainer(trained_gnn, trained_theta),
        CacheFedOracle(trained_gnn, trained_theta),
    ]


def assert_scores_equivariant(explainers, graph, seed):
    permutation = np.random.default_rng(seed).permutation(graph.n_real)
    moved = relabelled(graph, permutation)
    for index, explainer in enumerate(explainers):
        scores = explainer.explain(graph).node_scores
        moved_scores = explainer.explain(moved).node_scores
        np.testing.assert_allclose(
            moved_scores, scores[permutation], rtol=0, atol=TOLERANCE,
            err_msg=f"explainers[{index}] ({explainer.name}) on {graph.name}",
        )


def assert_split_equivariant(explainers, graphs):
    for seed, graph in enumerate(graphs):
        assert_scores_equivariant(explainers, graph, seed)


def test_padded_test_split(explainers, small_dataset):
    _, test_set = small_dataset
    padded = [g for g in test_set.graphs if g.n_real < g.n]
    assert padded
    assert_split_equivariant(explainers, padded)


def test_unpadded_test_split(explainers, small_dataset):
    _, test_set = small_dataset
    assert_split_equivariant(explainers, [unpadded(g) for g in test_set.graphs])


@pytest.mark.parametrize("case", ["edgeless", "disconnected"])
def test_edge_cases(explainers, case):
    graph = EDGE_CASES[case]()
    real = graph.features[: graph.n_real]
    assert len(np.unique(real, axis=0)) == graph.n_real  # no two rows alike
    assert_scores_equivariant(explainers, graph, seed=0)


def test_gradient_scores_mirror_a_symmetric_chain(trained_gnn):
    """Reversing a chain with mirrored features maps it onto itself, so
    mirrored nodes must score alike.  Their embeddings sum the same terms
    in opposite orders and tie for column maxima only to within an ulp;
    an exact-tie read-out hands one of them the whole gradient."""
    k = 2
    features = np.random.default_rng(1).random((k + 1, 12))
    adjacency = np.eye(2 * k + 1, k=1)
    graph = ACFG(adjacency, np.vstack([features, features[:k][::-1]]), label=0, family="toy")
    with no_grad():
        z = trained_gnn.embed(
            *normalized_edges(adjacency, graph.n_real), graph.features
        ).numpy()
    assert not np.array_equal(z, z[::-1])  # the ulp gap is there
    scores = GradientExplainer(trained_gnn).explain(graph).node_scores
    np.testing.assert_allclose(scores, scores[::-1], rtol=0, atol=TOLERANCE)

"""Relabelling a graph's nodes relabels its explanation.

Every other oracle compares two implementations that share one node
numbering, so a padding leak or an index mix-up common to both goes
unseen.  Here each graph's real nodes are permuted at random (padding
stays last), both graphs are explained, and the permuted graph's
scores are mapped back: the deterministic explainers — Gradient,
PGExplainer and CFGExplainer (Algorithm 2's first-pass scores) — must
give every node the same score within 1e-12.

Only scores are compared.  Node orders may differ where
``rank_by_score`` breaks a 12-decimal tie by node index, which is a
property of the ranking, not of the scores.

Gradient is left out on a graph whose max pooling is tied (see
:func:`max_pool_tied`): there its scores do depend on the numbering.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import GradientExplainer, PGExplainerBaseline
from repro.core import CFGExplainer
from repro.gnn import EmbeddingCache
from repro.nn import no_grad
from tests.test_algorithm2_oracle import EDGE_CASES

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


def max_pool_tied(gnn, graph):
    """Whether two real nodes share a positive column maximum of Z.

    Max pooling's backward splits the gradient evenly over nodes that
    tie *exactly* for a column's maximum.  Renumbering reorders the
    sums behind Z, so two tied embeddings can come apart by one ulp, and
    then one node takes the whole gradient: Gradient's input saliency
    changes by far more than 1e-12 though Z itself stays within 1e-15.
    (A maximum of 0 is a dead ReLU column and passes no gradient.)
    """
    active = np.arange(graph.n) < graph.n_real
    with no_grad():
        z = gnn.embed(graph.adjacency, graph.features, active).numpy()
    z = z[: graph.n_real]
    top = z.max(axis=0)
    near = (np.abs(z - top) <= TOLERANCE).sum(axis=0)
    return bool(np.any((top > 0) & (near > 1)))


@pytest.fixture(scope="module")
def explainers(trained_gnn, trained_theta, small_dataset):
    """Each explainer on its dense path and, where it has one, on the
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
        CFGExplainer(
            trained_gnn, trained_theta, embedding_cache=EmbeddingCache(trained_gnn)
        ),
    ]


def assert_scores_equivariant(explainers, graph, seed):
    """Checks every explainer on ``graph``; returns how many it checked."""
    permutation = np.random.default_rng(seed).permutation(graph.n_real)
    moved = relabelled(graph, permutation)
    checked = 0
    for index, explainer in enumerate(explainers):
        if explainer.name == "Gradient" and max_pool_tied(explainer.model, graph):
            continue
        scores = explainer.explain(graph).node_scores
        moved_scores = explainer.explain(moved).node_scores
        np.testing.assert_allclose(
            moved_scores, scores[permutation], rtol=0, atol=TOLERANCE,
            err_msg=f"explainers[{index}] ({explainer.name}) on {graph.name}",
        )
        checked += 1
    return checked


def assert_split_equivariant(explainers, graphs):
    checked = sum(
        assert_scores_equivariant(explainers, graph, seed)
        for seed, graph in enumerate(graphs)
    )
    # Gradient is left out on tied graphs only, not on most of them.
    assert checked > (len(explainers) - 0.5) * len(graphs)


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
    assert assert_scores_equivariant(explainers, graph, seed=0) == len(explainers)

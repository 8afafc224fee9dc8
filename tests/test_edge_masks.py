"""Edge-space masks for GNNExplainer and CFExplainer: the dense oracle.

Both explainers learn one weight per stored entry of the real-node Â and
run every step through ``weighted_edge_proba``.  The oracles below are
the dense ``[N, N]`` bodies they replaced, verbatim in arithmetic, on
the dense reference forward (``tests/reference_training.py``): the
same seeded draws, the same Adam trajectory, the same clipping.
Contract: GNNExplainer mask probabilities and CFExplainer node scores
within 1e-9, GNNExplainer node scores within 1e-12, identical
counterfactual edits and node orders, on padded
and unpadded graphs and on the edge cases (edgeless, single node,
disconnected, self-jump blocks, weight-2 call edges).
"""

import zlib

import numpy as np
import pytest

from repro.acfg import ACFG
from repro.baselines import GNNExplainerBaseline, SubgraphXBaseline
from repro.explain import CFExplainer, CounterfactualResult
from repro.explain.base import rank_by_score
from repro.explain.counterfactual import RenormalizedEdges
from repro.gnn import GCNClassifier
from repro.gnn.normalize import normalized_edges
from repro.nn import Adam, Tensor, edge_spmm, nll_loss_from_probs, no_grad
from repro.nn.guards import NumericalError, clip_grad_norm
from tests.reference_training import (
    dense_a_hat,
    dense_embed_a_hat,
    dense_predict,
    dense_predict_proba,
)

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# the dense oracles
# ----------------------------------------------------------------------
def dense_optimize_mask(explainer: GNNExplainerBaseline, graph: ACFG) -> np.ndarray:
    """GNNExplainer's dense body: ``[N, N]`` logits over the padded Â."""
    model = explainer.model
    rng = np.random.default_rng(explainer.seed)
    n = graph.n
    active = np.zeros(n, dtype=bool)
    active[: graph.n_real] = True
    a_hat = dense_a_hat(graph.adjacency, active)
    support = a_hat > 0
    target = dense_predict(model, graph)
    logits = Tensor(rng.normal(1.0, 0.1, size=(n, n)), requires_grad=True)
    support_tensor = Tensor(support.astype(np.float64))
    a_hat_tensor = Tensor(a_hat)
    optimizer = Adam([logits], lr=explainer.lr)
    denominator = max(float(support.sum()), 1.0)
    for _ in range(explainer.epochs):
        optimizer.zero_grad()
        mask = logits.sigmoid() * support_tensor
        z = dense_embed_a_hat(model, a_hat_tensor * mask, graph.features, active)
        probs = model.classify(z)
        probs_all = logits.sigmoid()
        entropy = -(
            probs_all * probs_all.log(eps=1e-12)
            + (1.0 - probs_all) * (1.0 - probs_all).log(eps=1e-12)
        )
        loss = (
            nll_loss_from_probs(probs, target, eps=1e-12)
            + mask.sum() * explainer.size_weight
            + (entropy * support_tensor).sum()
            * (1.0 / denominator)
            * explainer.entropy_weight
        )
        loss.backward()
        optimizer.step()
    return 1.0 / (1.0 + np.exp(-logits.numpy())) * support


def _dense_classify_deleted(model, graph, pairs, active):
    edited = graph.adjacency.copy()
    for i, j in pairs:
        edited[i, j] = 0.0
        edited[j, i] = 0.0
    with no_grad():
        z = dense_embed_a_hat(
            model, Tensor(dense_a_hat(edited, active)), graph.features, active
        )
        return int(np.argmax(model.classify(z).numpy()))


def dense_counterfactual(explainer: CFExplainer, graph: ACFG) -> CounterfactualResult:
    """CFExplainer's dense body: symmetric ``[N, N]`` logits, dense Â."""
    model = explainer.model
    n, n_real = graph.n, graph.n_real
    active = np.zeros(n, dtype=bool)
    active[:n_real] = True
    original = dense_predict(model, graph)
    sym = np.maximum(graph.adjacency, graph.adjacency.T)
    iu, ju = np.nonzero(np.triu(sym[:n_real, :n_real], k=1))
    if iu.size == 0:
        return CounterfactualResult(
            graph.name, False, original, None, (), 0, np.zeros(n_real)
        )
    support = np.zeros((n, n))
    support[iu, ju] = 1.0
    support[ju, iu] = 1.0
    const = sym * (1.0 - support) + np.diag(active.astype(np.float64))
    guard = Tensor((~active).astype(np.float64)[:, None])
    rng = np.random.default_rng(
        (explainer.seed, zlib.crc32(graph.name.encode("utf-8")))
    )
    logits = Tensor(np.full((n, n), 3.0), requires_grad=True)
    sym_t, support_t, const_t = Tensor(sym), Tensor(support), Tensor(const)
    optimizer = Adam([logits], lr=explainer.lr)

    def keep_probs():
        probs = 1.0 / (1.0 + np.exp(-logits.numpy()))
        return (probs + probs.T) * 0.5

    best = None
    iterations_run = 0
    try:
        for _ in range(explainer.iterations):
            optimizer.zero_grad()
            u = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, n))
            noise = np.log(u) - np.log1p(-u)
            noise = (noise + noise.T) * 0.5
            sym_logits = (logits + logits.T) * 0.5
            keep = ((sym_logits + Tensor(noise)) * (1.0 / explainer.tau)).sigmoid()
            with_loops = sym_t * keep * support_t + const_t
            inv_sqrt = (with_loops.sum(axis=1, keepdims=True) + guard) ** -0.5
            a_hat = with_loops * inv_sqrt * inv_sqrt.T
            probs = model.classify(dense_embed_a_hat(model, a_hat, graph.features, active))
            p_original = probs.reshape(-1)[original : original + 1]
            loss = -((1.0 - p_original).log(eps=1e-12).sum()) + explainer.l1_weight * (
                ((1.0 - keep) * support_t).sum() * 0.5
            )
            loss.backward()
            clip_grad_norm([logits], explainer.grad_clip)
            optimizer.step()
            iterations_run += 1
            probs_now = keep_probs()
            pairs = [(int(i), int(j)) for i, j in zip(iu, ju) if probs_now[i, j] < 0.5]
            if pairs and (best is None or len(pairs) < len(best[0])):
                flipped_to = _dense_classify_deleted(model, graph, pairs, active)
                if flipped_to != original:
                    best = (pairs, flipped_to)
    except NumericalError:
        pass

    probs_now = keep_probs()
    order = sorted(
        ((int(i), int(j)) for i, j in zip(iu, ju)), key=lambda p: probs_now[p[0], p[1]]
    )
    limit = len(best[0]) - 1 if best is not None else len(order)
    for k in range(1, limit + 1):
        flipped_to = _dense_classify_deleted(model, graph, order[:k], active)
        if flipped_to != original:
            best = (order[:k], flipped_to)
            break
    deletion = (1.0 - probs_now) * support
    scores = (deletion.sum(axis=0) + deletion.sum(axis=1))[:n_real].copy()
    if best is None:
        return CounterfactualResult(
            graph.name, False, original, None, (), iterations_run, scores
        )
    return CounterfactualResult(
        graph.name,
        True,
        original,
        best[1],
        tuple(sorted(best[0])),
        iterations_run,
        scores,
    )


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def unpadded(graph: ACFG) -> ACFG:
    k = graph.n_real
    return ACFG(
        graph.adjacency[:k, :k].copy(),
        graph.features[:k].copy(),
        label=graph.label,
        family=graph.family,
        n_real=k,
        name=graph.name,
    )


def edge_case_graphs():
    """Edgeless, single node, disconnected, self-jumps and call edges."""
    rng = np.random.default_rng(7)
    graphs = []

    def make(adjacency, n_real, name):
        n = adjacency.shape[0]
        features = np.zeros((n, 12))
        features[:n_real] = rng.uniform(0, 1, size=(n_real, 12))
        graphs.append(
            ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real, name=name)
        )

    make(np.zeros((6, 6)), 3, "edgeless")
    make(np.zeros((4, 4)), 1, "single")
    disconnected = np.zeros((9, 9))
    disconnected[0, 1] = 1.0
    disconnected[2, 3] = 2.0
    disconnected[3, 2] = 1.0
    make(disconnected, 6, "disconnected")
    for index in range(3):
        n_real = 14
        adjacency = np.zeros((n_real + 5, n_real + 5))
        draw = rng.random((n_real, n_real))
        adjacency[:n_real, :n_real] = np.where(
            draw < 0.12, 1.0, np.where(draw < 0.2, 2.0, 0.0)
        )
        adjacency[np.arange(0, n_real, 3), np.arange(0, n_real, 3)] = 1.0
        make(adjacency, n_real, f"self-jumps-{index}")
    return graphs


@pytest.fixture(scope="module")
def oracle_graphs(small_dataset):
    _, test_set = small_dataset
    graphs = list(test_set.graphs[:4])
    return graphs + [unpadded(g) for g in graphs[:2]]


# ----------------------------------------------------------------------
# the new op
# ----------------------------------------------------------------------
def finite_diff(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[index] += eps
        down[index] -= eps
        grad[index] = (fn(up) - fn(down)) / (2 * eps)
    return grad


class TestEdgeSpmm:
    rows = np.array([2, 0, 1, 2, 0, 2, 0])
    cols = np.array([1, 0, 2, 1, 3, 2, 0])  # (2,1) and (0,0) twice

    def _loss(self, w, x):
        probe = np.linspace(-1.0, 1.0, 3 * 2).reshape(3, 2)
        out = edge_spmm(self.rows, self.cols, w, x, 3)
        return (out * out * Tensor(probe)).sum()

    def test_forward_sums_duplicates(self):
        rng = np.random.default_rng(0)
        w, x = rng.normal(size=7), rng.normal(size=(4, 2))
        dense = np.zeros((3, 4))
        np.add.at(dense, (self.rows, self.cols), w)
        out = edge_spmm(self.rows, self.cols, Tensor(w), Tensor(x), 3)
        np.testing.assert_allclose(out.numpy(), dense @ x, atol=1e-14)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        w0, x0 = rng.normal(size=7), rng.normal(size=(4, 2))
        w, x = Tensor(w0, requires_grad=True), Tensor(x0, requires_grad=True)
        self._loss(w, x).backward()
        numeric_w = finite_diff(lambda a: self._loss(Tensor(a), Tensor(x0)).item(), w0)
        numeric_x = finite_diff(lambda a: self._loss(Tensor(w0), Tensor(a)).item(), x0)
        np.testing.assert_allclose(w.grad, numeric_w, atol=1e-7, rtol=1e-6)
        np.testing.assert_allclose(x.grad, numeric_x, atol=1e-7, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            edge_spmm(self.rows, self.cols[:-1], Tensor(np.ones(7)), Tensor(np.ones((4, 2))), 3)


# ----------------------------------------------------------------------
# the shared forward and the renormalized Â
# ----------------------------------------------------------------------
def test_weighted_edge_proba_at_unit_mask_equals_forward_acfg(small_dataset):
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(3))
    _, test_set = small_dataset
    for graph in list(test_set.graphs[:3]) + edge_case_graphs():
        rows, cols, a_hat = normalized_edges(graph.adjacency, graph.n_real)
        with no_grad():
            probs = model.weighted_edge_proba(graph, rows, cols, Tensor(a_hat)).numpy()
        assert np.max(np.abs(probs - dense_predict_proba(model, graph))) <= 1e-12


def test_renormalized_edges_at_all_keep_equal_normalized_adjacency(small_dataset):
    _, test_set = small_dataset
    for graph in list(test_set.graphs[:3]) + edge_case_graphs():
        edges = RenormalizedEdges(graph.adjacency, graph.n_real)
        dense = np.zeros((graph.n_real, graph.n_real))
        dense[edges.rows, edges.cols] = edges.a_hat(Tensor(np.ones(edges.count))).numpy()
        active = np.zeros(graph.n, dtype=bool)
        active[: graph.n_real] = True
        reference = dense_a_hat(graph.adjacency, active)
        np.testing.assert_allclose(
            dense, reference[: graph.n_real, : graph.n_real], rtol=0, atol=1e-15
        )


def test_renormalized_edges_follow_triu_order():
    graph = edge_case_graphs()[3]
    edges = RenormalizedEdges(graph.adjacency, graph.n_real)
    real = graph.adjacency[: graph.n_real, : graph.n_real]
    iu, ju = np.nonzero(np.triu(np.maximum(real, real.T), k=1))
    np.testing.assert_array_equal(edges.iu, iu)
    np.testing.assert_array_equal(edges.ju, ju)
    off = edges.rows != edges.cols
    lo = np.minimum(edges.rows, edges.cols)[off]
    hi = np.maximum(edges.rows, edges.cols)[off]
    np.testing.assert_array_equal(edges.iu[edges.slot[off]], lo)
    np.testing.assert_array_equal(edges.ju[edges.slot[off]], hi)
    assert np.all(edges.slot[~off] == edges.count)


# ----------------------------------------------------------------------
# equivalence with the dense oracles
# ----------------------------------------------------------------------
def assert_mask_matches(explainer, graph):
    sparse = explainer.optimize_mask(graph)
    dense = dense_optimize_mask(explainer, graph)
    rows, cols, _ = normalized_edges(graph.adjacency, graph.n_real)
    np.testing.assert_array_equal(np.argwhere(dense > 0), np.stack([rows, cols], axis=1))
    assert np.max(np.abs(sparse - dense[rows, cols]), initial=0.0) <= TOLERANCE
    order, scores = explainer.rank_nodes(graph)
    dense_scores = (dense.sum(axis=0) + dense.sum(axis=1))[: graph.n_real]
    assert np.max(np.abs(scores - dense_scores), initial=0.0) <= 1e-12
    np.testing.assert_array_equal(order, rank_by_score(dense_scores))


def assert_counterfactual_matches(explainer, graph):
    sparse = explainer.counterfactual(graph)
    dense = dense_counterfactual(explainer, graph)
    assert sparse.flipped == dense.flipped
    assert sparse.deleted_edges == dense.deleted_edges
    assert sparse.counterfactual_class == dense.counterfactual_class
    assert sparse.original_class == dense.original_class
    assert sparse.iterations_run == dense.iterations_run
    assert np.max(np.abs(sparse.node_scores - dense.node_scores), initial=0.0) <= TOLERANCE
    np.testing.assert_array_equal(
        rank_by_score(sparse.node_scores), rank_by_score(dense.node_scores)
    )


def test_gnnexplainer_matches_dense_oracle(trained_gnn, oracle_graphs):
    explainer = GNNExplainerBaseline(trained_gnn, epochs=15, seed=3)
    for graph in oracle_graphs:
        assert_mask_matches(explainer, graph)


def test_gnnexplainer_edge_cases_match_dense_oracle(trained_gnn):
    explainer = GNNExplainerBaseline(trained_gnn, epochs=10)
    for graph in edge_case_graphs():
        assert_mask_matches(explainer, graph)


def test_cfexplainer_matches_dense_oracle(trained_gnn, oracle_graphs):
    explainer = CFExplainer(trained_gnn, iterations=40)
    results = []
    for graph in oracle_graphs:
        assert_counterfactual_matches(explainer, graph)
        results.append(explainer.counterfactual(graph))
    # The comparison covers both outcomes and the greedy-prefix rescue.
    assert any(r.flipped for r in results)


def test_cfexplainer_clips_like_the_dense_oracle(trained_gnn, oracle_graphs):
    """A tight clip and a large step exercise the √2 norm scaling."""
    explainer = CFExplainer(trained_gnn, iterations=12, lr=0.8, grad_clip=0.05)
    for graph in oracle_graphs[:3]:
        assert_counterfactual_matches(explainer, graph)


def test_cfexplainer_edge_cases_match_dense_oracle(trained_gnn):
    explainer = CFExplainer(trained_gnn, iterations=20)
    for graph in edge_case_graphs():
        assert_counterfactual_matches(explainer, graph)


# ----------------------------------------------------------------------
# one tie-break for every ranking
# ----------------------------------------------------------------------
def test_rank_by_score_ignores_sub_tolerance_noise():
    rng = np.random.default_rng(11)
    scores = np.round(rng.uniform(0, 1, size=200), 3)  # many exact ties
    order = rank_by_score(scores)
    for _ in range(5):
        jitter = rng.choice([-1e-15, 1e-15], size=scores.size)
        np.testing.assert_array_equal(rank_by_score(scores + jitter), order)
    ranked = scores[order]
    assert np.all(np.diff(ranked) <= 0)
    ties = np.diff(ranked) == 0
    assert np.all(np.diff(order)[ties] > 0)  # tied scores: ascending index


def test_subgraphx_orders_agree_between_dense_and_batched_scoring(
    trained_gnn, small_dataset, monkeypatch
):
    """Shapley values that tie within 1e-17 rank by node index, so the
    per-call dense scorer and the batched scorer give one order."""
    from tests.test_perturbation_batch import dense_subgraph_proba

    _, test_set = small_dataset
    graphs = test_set.graphs[:6]
    explainer = SubgraphXBaseline(trained_gnn, mcts_iterations=4, shapley_samples=2)
    batched = [explainer.rank_nodes(g)[0] for g in graphs]

    def per_call(graph, kept_sets):
        return np.array([dense_subgraph_proba(trained_gnn, graph, k) for k in kept_sets])

    monkeypatch.setattr(trained_gnn, "subgraph_proba_batch", per_call)
    dense = [explainer.rank_nodes(g)[0] for g in graphs]
    for a, b in zip(batched, dense):
        np.testing.assert_array_equal(a, b)


def test_subgraphx_survivor_ties_within_6e18_rank_by_index(
    trained_gnn, small_dataset, monkeypatch
):
    """Survivors with no effect get Shapley values of about ±6e-18 whose
    signs depend on summation order (dense per-call versus batched
    scoring); two such draws must give one order."""
    import repro.baselines.subgraphx as subgraphx

    _, test_set = small_dataset
    explainer = SubgraphXBaseline(trained_gnn, mcts_iterations=4, shapley_samples=2)
    real_scores = subgraphx.shapley_scores
    orders = []
    for draw in range(2):
        rng = np.random.default_rng(draw)

        def jittered(*args, **kwargs):
            values = real_scores(*args, **kwargs)
            tied = np.arange(values.size) % 2 == 0
            values = np.where(tied, 0.0, values)
            return values + np.where(tied, rng.choice([-6e-18, 6e-18], values.size), 0.0)

        monkeypatch.setattr(subgraphx, "shapley_scores", jittered)
        orders.append([explainer.rank_nodes(g)[0] for g in test_set.graphs[:4]])
    for a, b in zip(*orders):
        np.testing.assert_array_equal(a, b)

"""Algorithm 2 — the interpretation stage of CFGExplainer.

Starting from the full graph, the trained scorer Θ_s is probed
iteratively: at each step the ``step_size`` percent lowest-scoring
remaining nodes lose their edges (and, by default, their features),
the embeddings are recomputed through the frozen Φ_e on the pruned
graph, and the loop repeats until only ``step_size`` percent of nodes
remain.  The removal order, reversed, is the node importance ordering
``V_ordered``; the subgraph ladder is its prefixes.  Every rung, the
full graph included, runs on the real rows with Â as an edge list,
through the classifier's one single-graph forward (DESIGN.md,
"Algorithm 2 on the edge list").
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.core.model import CFGExplainerModel
from repro.explain.base import (
    RANK_DECIMALS,
    Explainer,
    ladder_from_order,
    level_fractions,
)
from repro.explain.explanation import Explanation, kept_count
from repro.gnn.model import GCNClassifier
from repro.gnn.normalize import normalized_values, self_looped_edges
from repro.nn import Tensor, no_grad
from repro.obs import add_counter, span as obs_span

__all__ = ["interpret", "CFGExplainer"]


def rung_a_hat(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the real-node Â of the rung keeping ``keep``.

    Edges with a pruned endpoint are dropped; a pruned node stays active
    with a self-loop of weight 1 (its row, self-jump included, is zeroed).
    """
    rows, cols, weights = edges
    loop = rows == cols
    alive = (keep[rows] & keep[cols]) | loop
    weights = np.where(loop & ~keep[rows], 1.0, weights)
    rows, cols, weights = rows[alive], cols[alive], weights[alive]
    return rows, cols, normalized_values(rows, cols, weights, keep.size)


def interpret(
    explainer: CFGExplainerModel,
    gnn: GCNClassifier,
    graph: ACFG,
    step_size: int = 10,
    mask_features: bool = True,
) -> Explanation:
    """Run Algorithm 2 on one ACFG.

    Follows the paper with two departures:

    * The paper assumes ``step_size`` divides the graph evenly; here
      per-iteration prune counts come from per-level target sizes
      ``round(level% × N_real)`` so any graph size works and every
      ladder rung holds exactly its advertised share of nodes.
    * With ``mask_features=True`` the features of pruned nodes are
      zeroed alongside their edges when re-scoring (the paper's
      pseudocode only masks ``A``).  The subgraph the evaluation
      classifies has both masked, so this keeps the re-scored
      embeddings on the distribution the scores are used against;
      pass ``False`` for the literal Algorithm 2.

    Every rung, the full graph included, is one ``gnn.embed`` call; the
    full graph's Z also gives the predicted class through Φ_c.
    """
    if graph.n_real == 0:
        raise ValueError("cannot interpret a graph with no real nodes")
    n_real = graph.n_real

    edges = self_looped_edges(graph.adjacency, n_real)
    features = np.asarray(graph.features[:n_real], dtype=np.float64).copy()
    keep = np.ones(n_real, dtype=bool)

    def embed() -> np.ndarray:
        with no_grad():
            return gnn.embed(*rung_a_hat(edges, keep), features).numpy()

    # The full graph: its Z is the first rung's and gives the prediction.
    z = embed()
    passes = 1  # embeddings computed; graphs under 10 nodes skip rungs
    with no_grad():
        predicted_class = int(np.argmax(gnn.logits(Tensor(z)).numpy()))

    remaining = list(range(n_real))
    removal_order: list[int] = []
    first_pass_scores: np.ndarray | None = None

    # Walk the ladder top-down: 100%, 100-step, ..., step.
    target_sizes = [kept_count(f, n_real) for f in level_fractions(step_size)]
    for next_target in reversed([0] + target_sizes[:-1]):
        if next_target >= len(remaining):
            continue
        if removal_order:  # a pruned rung: re-embed
            z = embed()
            passes += 1
        # Θ_s scores Z padded back to N rows (zero, as the batched
        # forward leaves padding): its BLAS rounding depends on the row
        # count.
        padded = np.zeros((graph.n, z.shape[1]))
        padded[:n_real] = z
        scores = explainer.node_scores(Tensor(padded), n_real)
        if first_pass_scores is None:
            first_pass_scores = scores.copy()
        if next_target == 0:
            break  # the smallest rung is scored; no need to prune further
        prune_count = len(remaining) - next_target
        # Lines 8-18: repeatedly drop the lowest-scoring remaining node.
        # Scores compare on rank_by_score's key: summation-order noise
        # cannot reorder nodes, and a stable sort keeps ties in order.
        key = np.round(scores, RANK_DECIMALS)
        remaining.sort(key=lambda i: key[i])
        pruned, remaining = remaining[:prune_count], remaining[prune_count:]
        for node in pruned:
            removal_order.append(node)
            keep[node] = False
            if mask_features:
                features[node, :] = 0.0

    # Line 19: removal order reversed = importance order (most important
    # first).  Nodes never pruned (the final rung) are the most
    # important of all; order them by the final rung's scores.
    final_key = np.round(scores, RANK_DECIMALS)
    survivors = sorted(remaining, key=lambda i: final_key[i], reverse=True)
    node_order = np.array(survivors + list(reversed(removal_order)), dtype=int)

    add_counter("explain.iterations", passes)
    return Explanation(
        graph=graph,
        explainer_name="CFGExplainer",
        predicted_class=predicted_class,
        node_order=node_order,
        # Line 20: the ladder, smallest subgraph first.
        levels=ladder_from_order(graph, node_order, step_size),
        node_scores=first_pass_scores,
    )


class CFGExplainer(Explainer):
    """The paper's explainer behind the common :class:`Explainer` API."""

    name = "CFGExplainer"

    def __init__(self, model: GCNClassifier, theta: CFGExplainerModel):
        super().__init__(model)
        self.theta = theta

    def explain(self, graph: ACFG, step_size: int = 10) -> Explanation:
        with obs_span("explain.CFGExplainer") as explain_span:
            # interpret credits one ``explain.iterations`` per embedding.
            explanation = interpret(self.theta, self.model, graph, step_size)
            explain_span.add("explain.graphs", 1)
            return explanation

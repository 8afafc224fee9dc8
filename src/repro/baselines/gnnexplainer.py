"""GNNExplainer (Ying et al., 2019) — per-graph edge-mask optimization.

For every graph to be explained, a soft mask over the existing edges is
optimized so that the masked graph still yields the GNN's original
prediction (maximizing mutual information between the two), with the
standard size and element-entropy regularizers pushing the mask toward
a small, near-discrete explanation.  Node importance is the incident
masked-edge mass, which is how an edge mask converts into the equisized
node subgraphs the paper's evaluation compares.

This is a *local* explainer: the optimization restarts from scratch for
each graph and uses no information from other graphs.
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.base import RankingExplainer, rank_by_score
from repro.gnn.model import GCNClassifier
from repro.gnn.normalize import normalized_edges
from repro.nn import Adam, Tensor, nll_loss_from_probs

__all__ = ["GNNExplainerBaseline", "edge_mass_node_scores"]


def edge_mass_node_scores(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n_real: int
) -> np.ndarray:
    """Node scores = total mask weight on incident edges (in + out).

    ``weights[e]`` is the mask weight of the edge ``rows[e] → cols[e]``
    between real nodes; a self-loop counts twice, as in and as out.
    """
    return np.bincount(cols, weights, minlength=n_real) + np.bincount(
        rows, weights, minlength=n_real
    )


class GNNExplainerBaseline(RankingExplainer):
    """Edge-mask optimization explainer.

    Parameters
    ----------
    model:
        The frozen, pre-trained GNN classifier to explain.
    epochs:
        Optimization steps per graph (the original uses a few hundred).
    lr:
        Adam learning rate for the mask logits.
    size_weight, entropy_weight:
        Regularizer coefficients from the original objective.
    """

    name = "GNNExplainer"

    def __init__(
        self,
        model: GCNClassifier,
        epochs: int = 100,
        lr: float = 0.1,
        size_weight: float = 0.005,
        entropy_weight: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(model)
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.epochs = epochs
        self.lr = lr
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        self.seed = seed

    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        rows, cols, _ = graph.self_looped_edges()
        scores = edge_mass_node_scores(
            rows, cols, self.optimize_mask(graph), graph.n_real
        )
        return rank_by_score(scores), scores

    def optimize_mask(self, graph: ACFG) -> np.ndarray:
        """Learn the soft edge mask for one graph.

        Returns one sigmoid mask probability per stored entry of the
        real-node Â, self-loops included, in the order of
        :func:`repro.gnn.normalize.normalized_edges`.  Every step is a
        sparse forward over the real rows
        (:meth:`GCNClassifier.weighted_edge_proba`).  The initial logits
        are gathered from the same ``[N, N]`` draw the dense
        parameterization used, so a seed gives the same mask.
        """
        rng = np.random.default_rng(self.seed)
        rows, cols, a_hat = normalized_edges(graph)
        a_hat = Tensor(a_hat)
        target = self.model.predict(graph)

        # Mask logits start slightly positive: begin from (almost) the
        # full graph and let the size term prune.
        logits = Tensor(
            rng.normal(1.0, 0.1, size=(graph.n, graph.n))[rows, cols],
            requires_grad=True,
        )
        optimizer = Adam([logits], lr=self.lr)

        for _ in range(self.epochs):
            optimizer.zero_grad()
            mask = logits.sigmoid()
            probs = self.model.weighted_edge_proba(graph, rows, cols, a_hat * mask)
            prediction_loss = nll_loss_from_probs(probs, target, eps=1e-12)
            size_loss = mask.sum() * self.size_weight
            entropy_loss = self._mask_entropy(mask) * self.entropy_weight
            loss = prediction_loss + size_loss + entropy_loss
            loss.backward()
            optimizer.step()

        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    @staticmethod
    def _mask_entropy(probs: Tensor) -> Tensor:
        """Mean binary entropy of the mask (pushes entries toward 0/1)."""
        entropy = -(
            probs * probs.log(eps=1e-12)
            + (1.0 - probs) * (1.0 - probs).log(eps=1e-12)
        )
        return entropy.sum() * (1.0 / max(entropy.size, 1))

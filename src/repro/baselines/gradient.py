"""Gradient saliency explainer — the serving degradation rung.

One forward + one backward pass through the frozen GCN: nodes are
ranked by the L2 norm of ∂logit_c/∂x_i, the input-feature gradient of
the predicted class's logit (vanilla saliency, Simonyan et al. 2014,
on graph inputs).  Orders of magnitude cheaper than CFGExplainer's
per-graph optimization loop, which is the point: when the serving
deadline is nearly spent or the heavy explainer is faulting, the
resilience ladder falls back here before giving up on explanation
entirely.
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.base import RankingExplainer, rank_by_score
from repro.nn.tensor import Tensor

__all__ = ["GradientExplainer"]


class GradientExplainer(RankingExplainer):
    """Rank nodes by input-gradient saliency of the predicted logit."""

    name = "Gradient"

    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        n_real = graph.n_real
        n = graph.adjacency.shape[0]
        mask = np.arange(n) < n_real
        x = Tensor(np.asarray(graph.features, dtype=np.float64), requires_grad=True)
        z = self.model.embed(
            graph.adjacency, x, active_mask=mask, key=graph.content_key()
        )
        logits = self.model.logits(z)
        target = int(np.argmax(logits.numpy()))
        seed = np.zeros_like(logits.numpy())
        seed[target] = 1.0
        logits.backward(seed)
        if x.grad is None:
            scores = np.zeros(n_real, dtype=np.float64)
        else:
            scores = np.linalg.norm(
                np.asarray(x.grad, dtype=np.float64)[:n_real], axis=1
            )
        return rank_by_score(scores), scores

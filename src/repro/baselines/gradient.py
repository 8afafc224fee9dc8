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
from repro.gnn.normalize import normalized_edges
from repro.nn.tensor import Tensor

__all__ = ["GradientExplainer", "max_pool_ties_evenly"]

#: Nodes within this distance of a column's maximum tie for it.
TIE_TOLERANCE = 1e-12


def max_pool_ties_evenly(z: Tensor) -> Tensor:
    """Column maximum ``[1, f]`` of ``z``, with a tolerant backward.

    Each column's gradient is split evenly over every row within
    :data:`TIE_TOLERANCE` of its maximum.  Two nodes that tie for a
    maximum differ by an ulp or two of summation order, which a
    renumbering of the graph changes; an exact-tie rule would then hand
    one of them the whole gradient.
    """
    top = z.data.max(axis=0, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        near = (z.data >= top - TIE_TOLERANCE).astype(np.float64)
        z._accumulate_owned(near * (grad / near.sum(axis=0, keepdims=True)))

    return Tensor._from_op(top, (z,), backward, "max_pool_ties_evenly")


class GradientExplainer(RankingExplainer):
    """Rank nodes by input-gradient saliency of the predicted logit."""

    name = "Gradient"

    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        n_real = graph.n_real
        x = Tensor(
            np.asarray(graph.features[:n_real], dtype=np.float64), requires_grad=True
        )
        z = self.model.embed(*normalized_edges(graph), x)
        logits = self.model.classifier(max_pool_ties_evenly(z)).reshape(-1)
        seed = np.zeros_like(logits.numpy())
        seed[int(np.argmax(logits.numpy()))] = 1.0
        logits.backward(seed)
        if x.grad is None:  # called under no_grad: no saliency to read
            scores = np.zeros(n_real, dtype=np.float64)
        else:
            scores = np.linalg.norm(x.grad, axis=1)
        return rank_by_score(scores), scores

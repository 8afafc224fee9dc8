"""CFExplainer — counterfactual edge-deletion explanations.

The factual explainers answer "which subgraph *keeps* the prediction";
this one answers the dual question from CF-GNNExplainer (Lucic et al.,
2022) and CFF: **which minimal set of control-flow edges, when deleted,
makes the predicted malware family disappear?**

For one classified ACFG, a keep-probability is learned per undirected
edge of the symmetrized real-node adjacency.  Each step samples a
binary-concrete relaxation of the mask (symmetric logistic noise over
symmetric logits, temperature ``tau``), rebuilds the *renormalized*
propagation matrix ``Â = D^{-1/2}(M ⊙ A_sym + I_active)D^{-1/2}``
differentiably — the degree renormalization matters: deleting edges
boosts the survivors' weights, and a relaxation that ignores it
optimizes the wrong model — and descends

    loss = -log(1 - p_original) + l1_weight * (soft deletion mass)

so the mask is pushed until the original class loses probability with
as few deletions as possible.  After every step the mask is hardened at
0.5 and the *actual* edited graph (both edge directions zeroed, Â
recomputed from scratch) is classified; the smallest deletion set that
flips the prediction is kept.  A final greedy pass walks the edges in
ascending keep-probability and takes the shortest flipping prefix,
which both rescues graphs whose mask never crosses the threshold and
shrinks the edit (the relaxation over-deletes; prefixes of its ordering
usually flip much earlier).

The node ranking — what slots this into the ``Explanation`` ladder and
every existing sweep — scores each real node by the *deletion mass of
its incident edges* (1 - keep probability, summed over both incident
directions): nodes whose edges the counterfactual must cut are the
nodes the prediction hinges on.

Failure modes degrade, never raise: an edgeless (or fully disconnected)
graph, an exhausted iteration budget, or a :class:`~repro.nn.guards.
NumericalError` mid-descent all produce a :class:`CounterfactualResult`
with ``flipped=False`` and whatever soft scores were learned — the
fuzzer's "typed result or bust" invariant holds on hostile inputs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.base import RankingExplainer, rank_by_score
from repro.gnn.model import GCNClassifier
from repro.nn import Adam, Tensor, no_grad, segment_sum
from repro.nn.guards import NumericalError, clip_grad_norm

__all__ = ["CFExplainer", "CounterfactualResult", "RenormalizedEdges"]


@dataclass(frozen=True)
class CounterfactualResult:
    """Outcome of one counterfactual search.

    ``deleted_edges`` lists undirected real-node pairs ``(i, j)`` with
    ``i < j``; deleting both directions of exactly these edges changes
    the model's prediction from ``original_class`` to
    ``counterfactual_class``.  When no flip was found inside the budget
    (``flipped=False``) the edit set is empty, ``counterfactual_class``
    is None, and the soft ``node_scores`` still rank nodes by how hard
    the optimizer tried to cut their edges.
    """

    graph_name: str
    flipped: bool
    original_class: int
    counterfactual_class: int | None
    deleted_edges: tuple[tuple[int, int], ...]
    iterations_run: int
    node_scores: np.ndarray

    @property
    def edit_size(self) -> int:
        """Number of undirected edges the counterfactual deletes."""
        return len(self.deleted_edges)


class CFExplainer(RankingExplainer):
    """Counterfactual edge-deletion explainer.

    Parameters
    ----------
    model:
        The frozen, pre-trained GNN classifier to explain.
    iterations:
        Optimization steps per graph.  The default holds a wide margin
        over the ~80 steps the hardest synthetic-corpus graphs need.
    lr:
        Adam learning rate for the mask logits.
    l1_weight:
        Coefficient of the soft deletion-mass penalty (edit sparsity).
    tau:
        Binary-concrete temperature; lower is closer to discrete.
    grad_clip:
        Global-norm gradient clip guarding the descent.
    seed:
        Base seed; each graph derives a private stream from
        ``(seed, crc32(graph.name))`` so results are deterministic and
        independent of explanation order.
    """

    name = "CFExplainer"

    def __init__(
        self,
        model: GCNClassifier,
        iterations: int = 150,
        lr: float = 0.3,
        l1_weight: float = 0.002,
        tau: float = 1.0,
        grad_clip: float = 10.0,
        seed: int = 0,
    ):
        super().__init__(model)
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.iterations = iterations
        self.lr = lr
        self.l1_weight = l1_weight
        self.tau = tau
        self.grad_clip = grad_clip
        self.seed = seed

    # ------------------------------------------------------------------
    # RankingExplainer interface
    # ------------------------------------------------------------------
    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        scores = self.counterfactual(graph).node_scores
        return rank_by_score(scores), scores

    # ------------------------------------------------------------------
    # the counterfactual search
    # ------------------------------------------------------------------
    def counterfactual(self, graph: ACFG) -> CounterfactualResult:
        """Search for the minimal edge-deletion set that flips ``graph``."""
        if graph.n_real == 0:
            raise ValueError("cannot explain a graph with no real nodes")
        n, n_real = graph.n, graph.n_real
        original = self.model.predict(graph)

        edges = RenormalizedEdges(graph)
        if edges.count == 0:
            # Single-node or edgeless graph: there is nothing to delete,
            # so no counterfactual of this form exists.  Degrade.
            return CounterfactualResult(
                graph_name=graph.name,
                flipped=False,
                original_class=original,
                counterfactual_class=None,
                deleted_edges=(),
                iterations_run=0,
                node_scores=np.zeros(n_real),
            )

        rng = np.random.default_rng(
            (self.seed, zlib.crc32(graph.name.encode("utf-8")))
        )
        # Start from "keep everything" (sigmoid(3) ≈ 0.95): the search
        # walks from the intact graph toward the decision boundary.
        logits = Tensor(np.full(edges.count, 3.0), requires_grad=True)
        optimizer = Adam([logits], lr=self.lr)

        best: tuple[np.ndarray, int] | None = None
        iterations_run = 0
        try:
            for _ in range(self.iterations):
                optimizer.zero_grad()
                keep = self._sample_keep(logits, rng, n, edges)
                probs = self.model.weighted_edge_proba(
                    graph, edges.rows, edges.cols, edges.a_hat(keep)
                )
                p_original = probs.reshape(-1)[original : original + 1]
                flip_loss = -((1.0 - p_original).log(eps=1e-12).sum())
                deletion_mass = (1.0 - keep).sum()
                loss = flip_loss + self.l1_weight * deletion_mass
                loss.backward()
                # One logit stands for both directions of its edge, so
                # its gradient is their sum; halve it, and clip the norm
                # taken over both directions (√2 times this vector's).
                logits.grad *= 0.5
                clip_grad_norm([logits], self.grad_clip / math.sqrt(2.0))
                optimizer.step()
                iterations_run += 1

                deleted = np.flatnonzero(self._keep_probs(logits) < 0.5)
                if deleted.size and (best is None or deleted.size < best[0].size):
                    flipped_to = self._classify_deleted(graph, edges, deleted)
                    if flipped_to != original:
                        best = (deleted, flipped_to)
        except NumericalError:
            # A poisoned gradient ends the search; whatever was learned
            # (and found) so far still stands.
            pass

        best = self._greedy_prefix(graph, edges, original, logits, best)
        scores = self._deletion_mass_scores(logits, edges, n_real)
        if best is None:
            return CounterfactualResult(
                graph_name=graph.name,
                flipped=False,
                original_class=original,
                counterfactual_class=None,
                deleted_edges=(),
                iterations_run=iterations_run,
                node_scores=scores,
            )
        deleted, flipped_to = best
        return CounterfactualResult(
            graph_name=graph.name,
            flipped=True,
            original_class=original,
            counterfactual_class=flipped_to,
            deleted_edges=tuple(sorted(edges.pairs(deleted))),
            iterations_run=iterations_run,
            node_scores=scores,
        )

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------
    def _sample_keep(
        self,
        logits: Tensor,
        rng: np.random.Generator,
        n: int,
        edges: "RenormalizedEdges",
    ) -> Tensor:
        """One symmetric binary-concrete sample of the per-edge keep mask.

        The noise is drawn as the ``[N, N]`` array the dense
        parameterization used, and each edge averages its two
        directions, so a seed walks the same trajectory.
        """
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, n))
        forward, backward = u[edges.iu, edges.ju], u[edges.ju, edges.iu]
        noise = (
            (np.log(forward) - np.log1p(-forward))
            + (np.log(backward) - np.log1p(-backward))
        ) * 0.5
        return ((logits + Tensor(noise)) * (1.0 / self.tau)).sigmoid()

    @staticmethod
    def _keep_probs(logits: Tensor) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    def _classify_deleted(
        self, graph: ACFG, edges: "RenormalizedEdges", deleted: np.ndarray
    ) -> int:
        """The model's honest prediction after deleting edges ``deleted``.

        Both directions are zeroed and Â is renormalized from the edited
        edge list; the graph and its memoized edge list stay untouched.
        """
        keep = np.ones(edges.count)
        keep[deleted] = 0.0
        with no_grad():
            probs = self.model.weighted_edge_proba(
                graph, edges.rows, edges.cols, edges.a_hat(Tensor(keep))
            )
        return int(np.argmax(probs.numpy()))

    def _greedy_prefix(
        self,
        graph: ACFG,
        edges: "RenormalizedEdges",
        original: int,
        logits: Tensor,
        best: tuple[np.ndarray, int] | None,
    ) -> tuple[np.ndarray, int] | None:
        """Shortest flipping prefix of the ascending-keep edge order."""
        order = np.argsort(self._keep_probs(logits), kind="stable")
        # Only prefixes strictly smaller than the current best can help.
        limit = best[0].size - 1 if best is not None else order.size
        for k in range(1, limit + 1):
            flipped_to = self._classify_deleted(graph, edges, order[:k])
            if flipped_to != original:
                return order[:k], flipped_to
        return best

    def _deletion_mass_scores(
        self, logits: Tensor, edges: "RenormalizedEdges", n_real: int
    ) -> np.ndarray:
        """Node score = soft deletion mass over incident edge directions."""
        deletion = 1.0 - self._keep_probs(logits)
        incident = np.bincount(
            edges.iu, weights=deletion, minlength=n_real
        ) + np.bincount(edges.ju, weights=deletion, minlength=n_real)
        # Each incident edge counts once per direction.
        return 2.0 * incident


class RenormalizedEdges:
    """CFExplainer's propagation matrix as a function of per-edge keeps.

    ``rows``/``cols``/``weights`` list ``max(A, Aᵀ) + I`` on the real
    nodes (:meth:`repro.acfg.graph.ACFG.self_looped_edges`).  The
    undirected edges ``(iu[e], ju[e])``, ``iu < ju``, are its
    off-diagonal entries in row-major (``np.triu``) order; ``slot`` maps
    every stored entry to its edge, or to ``count`` for the diagonal —
    the self-loop plus any self-jump weight, which stays constant.
    """

    def __init__(self, graph: ACFG):
        n_real = graph.n_real
        self.rows, self.cols, self.weights = graph.self_looped_edges()
        upper = self.rows < self.cols
        self.iu, self.ju = self.rows[upper], self.cols[upper]
        self.count = int(self.iu.size)
        self.n_real = n_real
        low = np.minimum(self.rows, self.cols)
        high = np.maximum(self.rows, self.cols)
        self.slot = np.searchsorted(self.iu * n_real + self.ju, low * n_real + high)
        self.slot[self.rows == self.cols] = self.count

    def a_hat(self, keep: Tensor) -> Tensor:
        """``D^{-1/2}(M ⊙ A_sym + I)D^{-1/2}`` entries for keep weights ``M``.

        Differentiable in ``keep``; the degree renormalization is a
        segment sum over the kept edge values.
        """
        constant = Tensor(np.ones(1))
        values = self.weights * Tensor.concatenate([keep, constant])[self.slot]
        degree = segment_sum(values, self.rows, self.n_real)
        inv_sqrt = degree**-0.5
        return values * inv_sqrt[self.rows] * inv_sqrt[self.cols]

    def pairs(self, edges: np.ndarray) -> list[tuple[int, int]]:
        """The undirected ``(i, j)`` node pairs of edge indices ``edges``."""
        return [(int(self.iu[e]), int(self.ju[e])) for e in edges]

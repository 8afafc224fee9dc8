"""Sanity baselines: random and degree-based node orderings.

Not part of the paper's comparison — used by the ablation benches to
show the learned explainers beat trivial heuristics.
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.base import RankingExplainer, rank_by_score
from repro.gnn.model import GCNClassifier

__all__ = ["RandomExplainer", "DegreeExplainer"]


class RandomExplainer(RankingExplainer):
    """Uniformly random node ordering (the floor any explainer must beat)."""

    name = "Random"

    def __init__(self, model: GCNClassifier, seed: int = 0):
        super().__init__(model)
        self.seed = seed

    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        # Derive a per-graph seed so different graphs get different
        # orders but the explainer stays deterministic overall.
        rng = np.random.default_rng(self.seed + hash(graph.name) % 100_000)
        order = rng.permutation(graph.n_real)
        scores = np.zeros(graph.n_real)
        scores[order] = np.arange(graph.n_real, 0, -1)
        return order, scores


class DegreeExplainer(RankingExplainer):
    """Order nodes by total degree (structural centrality heuristic)."""

    name = "Degree"

    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        real = graph.adjacency[: graph.n_real, : graph.n_real]
        degree = (real > 0).sum(axis=0) + (real > 0).sum(axis=1)
        scores = degree.astype(np.float64)
        return rank_by_score(scores), scores

"""Explanation result objects shared by all five explainers.

Mirrors the outputs of the paper's Algorithm 2: a node ordering
(``V_ordered``, most important first) plus a ladder of subgraphs at each
step-size level, smallest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.acfg.graph import ACFG

__all__ = ["SubgraphLevel", "Explanation", "kept_count"]


def kept_count(fraction: float, n: int) -> int:
    """How many of ``n`` real nodes a ``fraction`` keep retains.

    The single source of truth for every "top k%" computation —
    ``top_nodes``, the subgraph ladder, lifted explanations, stability's
    top-k and Algorithm 2's target sizes all call this, so they can
    never desynchronize.  Semantics are half-up ("top 10%" of 25 nodes
    keeps 3, not Python ``round``'s banker's 2), with a small epsilon so
    float representations of exact halves (0.3 * 5 = 1.4999...98) still
    round up, clamped to [1, n].
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if n < 1:
        raise ValueError("need at least one real node")
    count = int(math.floor(fraction * n + 0.5 + 1e-9))
    return max(1, min(count, n))


@dataclass(frozen=True)
class SubgraphLevel:
    """One rung of the subgraph ladder.

    ``fraction`` is the kept share of real nodes (0.1 = top 10%);
    ``kept_nodes`` are real-node indices.  The rung's [N, N] matrix
    (Algorithm 2's shape-preserving masking) is
    ``graph.subgraph_adjacency(kept_nodes)``.
    """

    fraction: float
    kept_nodes: np.ndarray


@dataclass
class Explanation:
    """Everything an explainer says about one classified ACFG."""

    graph: ACFG
    explainer_name: str
    predicted_class: int
    node_order: np.ndarray  # real-node indices, most important first
    levels: list[SubgraphLevel] = field(default_factory=list)
    node_scores: np.ndarray | None = None  # importance score per real node

    def __post_init__(self):
        self.node_order = np.asarray(self.node_order, dtype=int)
        order_set = set(self.node_order.tolist())
        if len(order_set) != len(self.node_order):
            raise ValueError("node_order contains duplicates")
        if order_set != set(range(self.graph.n_real)):
            raise ValueError(
                "node_order must be a permutation of the real node indices"
            )

    def top_nodes(self, fraction: float) -> np.ndarray:
        """The most important ``fraction`` of real nodes (at least one)."""
        return self.node_order[: kept_count(fraction, self.graph.n_real)].copy()

    def level_at(self, fraction: float) -> SubgraphLevel:
        """The ladder rung closest to ``fraction``."""
        if not self.levels:
            raise ValueError("explanation has no subgraph levels")
        return min(self.levels, key=lambda lvl: abs(lvl.fraction - fraction))

    @property
    def fractions(self) -> list[float]:
        return [level.fraction for level in self.levels]

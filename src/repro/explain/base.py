"""Abstract explainer interface.

Every explainer — CFGExplainer, the three attribution baselines and the
counterfactual CFExplainer — ultimately produces a node importance
ranking for one classified ACFG; the common machinery here turns a
ranking into the paper's subgraph ladder so the sweep harness and
metrics are written once.

``RankingExplainer`` covers the one-shot explainers (GNNExplainer,
PGExplainer, SubgraphX, CFExplainer and the sanity baselines) that
score nodes once.  CFGExplainer overrides :meth:`explain` with the
iterative re-scoring loop of Algorithm 2.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.explanation import Explanation, SubgraphLevel, kept_count
from repro.gnn.model import GCNClassifier
from repro.obs import span as obs_span

__all__ = [
    "Explainer",
    "RankingExplainer",
    "ladder_from_order",
    "level_fractions",
    "rank_by_score",
]

#: Scores equal to this many decimals count as tied in a ranking.
RANK_DECIMALS = 12


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Indices ordered by descending score; ties go to the lower index.

    Scores are compared rounded to :data:`RANK_DECIMALS` decimals, so
    two scores that differ only by summation order (dense versus sparse
    arithmetic, batched versus per-call scoring) rank the same way.
    Rounding is monotone: it can merge near-ties, never reorder
    distinct scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -np.round(scores, RANK_DECIMALS)))


def level_fractions(step_size: int) -> list[float]:
    """Ladder fractions for a percentage step size: step, 2*step, ..., 100."""
    if not 0 < step_size <= 100:
        raise ValueError("step_size must be in (0, 100]")
    if 100 % step_size != 0:
        raise ValueError("step_size must divide 100 (paper's constraint)")
    return [level / 100.0 for level in range(step_size, 101, step_size)]


def ladder_from_order(
    graph: ACFG, node_order: np.ndarray, step_size: int
) -> list[SubgraphLevel]:
    """Build the subgraph ladder for a fixed importance ordering."""
    return [
        SubgraphLevel(
            fraction=fraction,
            kept_nodes=np.asarray(
                node_order[: kept_count(fraction, graph.n_real)], dtype=int
            ),
        )
        for fraction in level_fractions(step_size)
    ]


class Explainer(abc.ABC):
    """Post-hoc explainer for a pre-trained GNN classifier."""

    #: Human-readable name used in tables and reports.
    name: str = "explainer"

    def __init__(self, model: GCNClassifier):
        self.model = model

    @abc.abstractmethod
    def explain(self, graph: ACFG, step_size: int = 10) -> Explanation:
        """Explain the model's prediction on ``graph``."""

    def explain_lifted(
        self,
        graph: ACFG,
        original: ACFG,
        lift_map,
        step_size: int = 10,
    ) -> Explanation:
        """Explain a *reduced* graph, then project onto the original.

        ``graph`` is what the model was trained on (reduced, padded);
        ``original`` is the unreduced ACFG and ``lift_map`` the
        :class:`repro.reduce.LiftMap` recorded when it was reduced.
        The returned explanation ranks original block indices and its
        ladder slices original structure, so every downstream metric is
        directly comparable with an unreduced run.
        """
        reduced = self.explain(graph, step_size=step_size)
        return lift_map.lift_explanation(reduced, original, step_size=step_size)

    def _empty_graph_explanation(self, graph: ACFG) -> Explanation | None:
        if graph.n_real == 0:
            raise ValueError("cannot explain a graph with no real nodes")
        return None


class RankingExplainer(Explainer):
    """Explainers that produce one static node ranking per graph."""

    @abc.abstractmethod
    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(node_order, node_scores)`` over real nodes.

        ``node_order`` lists real-node indices most-important-first;
        ``node_scores[i]`` is the importance score of real node ``i``
        (aligned with node index, not with the ordering).
        """

    def explain(self, graph: ACFG, step_size: int = 10) -> Explanation:
        self._empty_graph_explanation(graph)
        with obs_span(f"explain.{self.name}") as explain_span:
            node_order, node_scores = self.rank_nodes(graph)
            explain_span.add("explain.graphs", 1)
            return Explanation(
                graph=graph,
                explainer_name=self.name,
                predicted_class=self.model.predict(graph),
                node_order=node_order,
                levels=ladder_from_order(graph, node_order, step_size),
                node_scores=node_scores,
            )

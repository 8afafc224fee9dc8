"""Quality metrics for explanations.

``subgraph_accuracy`` and ``accuracy_auc`` are the paper's Section V-B
metrics (Figure 2 / Table III).  ``fidelity_minus_acc`` and
``fidelity_plus_acc`` follow the taxonomy survey [31] the paper cites
for its fidelity discussion, and ``sparsity`` completes that metric set.
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.explanation import Explanation
from repro.gnn.model import GCNClassifier

__all__ = [
    "subgraph_accuracy",
    "sweep_accuracy_curve",
    "accuracy_auc",
    "fidelity_minus_acc",
    "fidelity_plus_acc",
    "sparsity",
    "sufficiency",
    "necessity",
    "edit_size",
]


def _canonical_percents(fractions) -> list[int]:
    """Ladder fractions as integer percents (the lift-safe canonical form)."""
    return [int(round(100 * float(f))) for f in fractions]


def _target_class(graph: ACFG, model: GCNClassifier, against_prediction: bool) -> int:
    """What counts as 'correct' for a subgraph prediction.

    The paper measures whether the subgraph still yields the malware
    family identified for the full graph; using the GNN's own prediction
    keeps the metric about *explanation faithfulness* rather than model
    accuracy.  ``against_prediction=False`` compares to ground truth.
    """
    return model.predict(graph) if against_prediction else graph.label


def subgraph_accuracy(
    model: GCNClassifier,
    explanations: list[Explanation],
    fraction: float,
    against_prediction: bool = True,
) -> float:
    """Fraction of explanations whose top-``fraction`` subgraph classifies
    to the same class as the original graph."""
    if not explanations:
        raise ValueError("need at least one explanation")
    correct = 0
    for explanation in explanations:
        level = explanation.level_at(fraction)
        predicted = model.predict_subgraph(explanation.graph, level.kept_nodes)
        target = _target_class(explanation.graph, model, against_prediction)
        correct += int(predicted == target)
    return correct / len(explanations)


def sweep_accuracy_curve(
    model: GCNClassifier,
    explanations: list[Explanation],
    against_prediction: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy at every ladder fraction: the per-family Figure 2 curve.

    Returns ``(fractions, accuracies)`` sorted by fraction.
    """
    if not explanations:
        raise ValueError("need at least one explanation")
    fractions = explanations[0].fractions
    # Compare ladders in canonical integer-percent form: lifted
    # explanations rebuild their fractions via round(100 * f) / 100, so
    # a float-exact != would spuriously split e.g. 0.30000000000000004
    # from 0.3 when lifted and unlifted explanations mix in one sweep.
    canonical = _canonical_percents(fractions)
    if any(_canonical_percents(e.fractions) != canonical for e in explanations):
        raise ValueError("explanations have mismatched ladder fractions")
    # One batched call per explanation scores every ladder level, and
    # the target class is computed once per explanation, not per level.
    correct = np.zeros(len(fractions), dtype=int)
    for explanation in explanations:
        graph = explanation.graph
        kept_sets = [explanation.level_at(f).kept_nodes for f in fractions]
        predicted = np.argmax(model.subgraph_proba_batch(graph, kept_sets), axis=1)
        correct += predicted == _target_class(graph, model, against_prediction)
    return np.asarray(fractions), correct / len(explanations)


def accuracy_auc(fractions: np.ndarray, accuracies: np.ndarray) -> float:
    """Area under the accuracy-vs-size curve, x normalized to [0, 1].

    The paper anchors the curve at (0, 0) — an empty subgraph classifies
    nothing — so AUC ∈ [0, 1] and larger means smaller subgraphs retain
    more accuracy.
    """
    fractions = np.asarray(fractions, dtype=float)
    accuracies = np.asarray(accuracies, dtype=float)
    if fractions.shape != accuracies.shape or fractions.size == 0:
        raise ValueError("fractions and accuracies must be equal-length, nonempty")
    order = np.argsort(fractions)
    x = np.concatenate([[0.0], fractions[order]])
    y = np.concatenate([[0.0], accuracies[order]])
    return float(np.trapezoid(y, x))


def fidelity_minus_acc(
    model: GCNClassifier, explanations: list[Explanation], fraction: float
) -> float:
    """fidelity-^acc: accuracy drop from keeping ONLY the important part.

    ``full_acc - kept_acc`` — closer to 0 (or negative) is better: the
    explanation alone suffices to reproduce the prediction.
    """
    full = _full_accuracy(model, explanations)
    kept = subgraph_accuracy(model, explanations, fraction, against_prediction=False)
    return full - kept


def fidelity_plus_acc(
    model: GCNClassifier, explanations: list[Explanation], fraction: float
) -> float:
    """fidelity+^acc: accuracy drop from REMOVING the important part.

    ``full_acc - removed_acc`` — larger is better: the explanation is
    necessary for the prediction.
    """
    full = _full_accuracy(model, explanations)
    correct = 0
    for explanation in explanations:
        graph = explanation.graph
        complement = graph.real_complement(explanation.top_nodes(fraction))
        if complement.size == 0:
            # A fully-kept explanation leaves nothing to classify after
            # removal.  It stays in the denominator below and simply
            # never increments ``correct`` — i.e. removal is scored as
            # an incorrect prediction, not dropped from the metric.
            continue
        predicted = model.predict_subgraph(graph, complement)
        correct += int(predicted == graph.label)
    removed = correct / len(explanations)
    return full - removed


def sparsity(explanation: Explanation, fraction: float) -> float:
    """Share of nodes NOT in the explanation (1 - kept / real)."""
    kept = explanation.top_nodes(fraction).size
    return 1.0 - kept / explanation.graph.n_real


def sufficiency(
    model: GCNClassifier, explanations: list[Explanation], fraction: float
) -> float:
    """CFF's factual axis: does the explanation alone KEEP the class?

    Fraction of explanations whose top-``fraction`` subgraph still
    classifies to the explanation's own predicted class.  Higher is
    better — a sufficient explanation carries the evidence for the
    family call by itself.
    """
    if not explanations:
        raise ValueError("need at least one explanation")
    keeps = 0
    for explanation in explanations:
        kept = explanation.top_nodes(fraction)
        predicted = model.predict_subgraph(explanation.graph, kept)
        keeps += int(predicted == explanation.predicted_class)
    return keeps / len(explanations)


def necessity(
    model: GCNClassifier, explanations: list[Explanation], fraction: float
) -> float:
    """CFF's counterfactual axis: does removing the explanation LOSE the class?

    Fraction of explanations whose residual graph — everything except
    the top-``fraction`` nodes — no longer classifies to the predicted
    class.  Higher is better — a necessary explanation cannot be cut out
    without the family call disappearing.  An empty residual (the
    explanation kept every node) counts as lost: with no nodes left
    there is nothing to sustain the prediction.
    """
    if not explanations:
        raise ValueError("need at least one explanation")
    lost = 0
    for explanation in explanations:
        graph = explanation.graph
        complement = graph.real_complement(explanation.top_nodes(fraction))
        if complement.size == 0:
            lost += 1
            continue
        predicted = model.predict_subgraph(graph, complement)
        lost += int(predicted != explanation.predicted_class)
    return lost / len(explanations)


def edit_size(explanations: list[Explanation], fraction: float) -> float:
    """Mean share of undirected edges the ``necessity`` edit deletes.

    Cutting the top-``fraction`` nodes out of a graph severs every edge
    incident to them; this is that cut's size relative to the graph's
    undirected (symmetrized, off-diagonal) real-edge count, averaged
    over the explanations.  Lower is better: a small, surgical edit that
    still flips the prediction is the counterfactual ideal.  Edgeless
    graphs contribute 0.
    """
    if not explanations:
        raise ValueError("need at least one explanation")
    shares = []
    for explanation in explanations:
        graph = explanation.graph
        rows, cols, _ = graph.self_looped_edges()
        upper = rows < cols  # row-major, as np.triu lists them
        iu, ju = rows[upper], cols[upper]
        if iu.size == 0:
            shares.append(0.0)
            continue
        important = set(explanation.top_nodes(fraction).tolist())
        cut = sum(
            1 for i, j in zip(iu, ju) if int(i) in important or int(j) in important
        )
        shares.append(cut / iu.size)
    return float(np.mean(shares))


def _full_accuracy(model: GCNClassifier, explanations: list[Explanation]) -> float:
    if not explanations:
        raise ValueError("need at least one explanation")
    correct = sum(
        1 for e in explanations if model.predict(e.graph) == e.graph.label
    )
    return correct / len(explanations)

"""A4 — ablation: what each loss extension buys (DESIGN.md §decisions).

Compares three trainings of Θ on the same pipeline:

* the literal Algorithm 1 (bare NLL, degenerate Ψ ≈ 1 optimum),
* + score sparsity,
* + sparsity + the frozen-Φ faithfulness probe (repository default).

Reported per variant: the spread of the learned scores (the bare loss
saturates them) and the explanation AUC on held-out graphs.
"""

import pytest

pytestmark = pytest.mark.slow

import numpy as np

from repro.core import CFGExplainer, CFGExplainerModel, train_cfgexplainer
from repro.core.training import precompute_embeddings
from repro.explain import accuracy_auc, sweep_accuracy_curve
from repro.nn import Tensor


VARIANTS = {
    "literal Alg.1": dict(
        sparsity_weight=0.0, faithfulness_weight=0.0
    ),
    "+ sparsity": dict(
        sparsity_weight=0.3, faithfulness_weight=0.0
    ),
    "+ faithfulness": dict(
        sparsity_weight=0.3, faithfulness_weight=1.0
    ),
}


def test_bench_ablation_loss_terms(benchmark, artifacts):
    train_set = artifacts.train_set
    graphs = artifacts.test_set.graphs[:10]
    cached = precompute_embeddings(artifacts.gnn, artifacts.test_set)[:10]

    print()
    print(f"{'variant':16s} | {'Ψ spread (std)':>14s} | {'AUC':>6s}")
    print("-" * 45)
    results = {}
    for name, options in VARIANTS.items():
        theta = CFGExplainerModel(
            artifacts.gnn.embedding_size,
            artifacts.test_set.num_classes,
            rng=np.random.default_rng(7),
        )
        train_cfgexplainer(
            theta,
            artifacts.gnn,
            train_set,
            num_epochs=artifacts.config.explainer_epochs,
            minibatch_size=artifacts.config.explainer_minibatch,
            lr=artifacts.config.explainer_lr,
            seed=0,
            **options,
        )
        scores = np.concatenate(
            [
                theta.node_scores(
                    Tensor(sample.embeddings), int(sample.active_mask.sum())
                )
                for sample in cached
            ]
        )
        explainer = CFGExplainer(artifacts.gnn, theta)
        explanations = [explainer.explain(g) for g in graphs]
        fractions, accuracies = sweep_accuracy_curve(artifacts.gnn, explanations)
        auc = accuracy_auc(fractions, accuracies)
        results[name] = (scores.std(), auc)
        print(f"{name:16s} | {scores.std():>14.4f} | {auc:>6.3f}")

    # The full loss must not be materially worse than the literal one —
    # its value shows in the printed AUC column (and, at convergence, in
    # the saturation of the literal variant's scores; at bench-scale
    # epoch counts the literal variant may not have fully saturated yet).
    assert results["+ faithfulness"][1] >= results["literal Alg.1"][1] - 0.15

    # Benchmark one short training of the default variant.
    benchmark.pedantic(
        lambda: train_cfgexplainer(
            CFGExplainerModel(
                artifacts.gnn.embedding_size,
                artifacts.test_set.num_classes,
                rng=np.random.default_rng(8),
            ),
            artifacts.gnn,
            train_set,
            num_epochs=20,
            minibatch_size=16,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )

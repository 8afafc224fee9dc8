"""Algorithm 1 — the initial learning stage of CFGExplainer.

Jointly trains Θ_s and Θ_c with the negative log-likelihood loss
``-1/m Σ log(Y[C_i] + 1e-20)`` over mini-batches of GNN node embeddings,
where ``C_i`` is the class *the GNN predicted* (not the ground truth):
the explainer learns to explain the model, mistakes included.

The GNN Φ is frozen throughout — Algorithm 1 only reads Z = Φ_e(A, X)
and C = Φ_c(Z) — so embeddings are precomputed once per graph instead
of re-running Φ_e every epoch (lines 6-7 hoisted out of the loop; the
result is identical because Φ never changes).  The precomputation runs
through the batched block-diagonal engine and can share a
:class:`repro.gnn.EmbeddingCache` with the rest of the pipeline, so Z
computed during classifier evaluation is never recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acfg.dataset import ACFGDataset
from repro.core.model import CFGExplainerModel
from repro.gnn.cache import EmbeddingCache
from repro.gnn.model import GCNClassifier
from repro.nn import Adam, Tensor, nll_loss_from_probs, no_grad
from repro.obs import add_counter
from repro.obs import span as obs_span

__all__ = ["ExplainerTrainingHistory", "train_cfgexplainer", "precompute_embeddings"]

#: Temperature of the faithfulness probe's concrete relaxation, annealed
#: geometrically from the first value to the second over training.
_TAU_START, _TAU_END = 2.0, 0.2


@dataclass
class ExplainerTrainingHistory:
    """Loss per epoch plus the surrogate's final agreement with the GNN."""

    losses: list[float] = field(default_factory=list)
    surrogate_agreement: float = float("nan")

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


@dataclass(frozen=True)
class _EmbeddedSample:
    """Cached per-graph quantities for one training ACFG."""

    embeddings: np.ndarray
    gnn_class: int
    active_mask: np.ndarray


def precompute_embeddings(
    model: GCNClassifier,
    dataset: ACFGDataset,
    embedding_cache: EmbeddingCache | None = None,
    batch_size: int = 32,
) -> list[_EmbeddedSample]:
    """Run the frozen Φ over every graph once (lines 6-7 of Algorithm 1).

    Graphs are embedded in batched block-diagonal passes; when the
    pipeline passes its shared ``embedding_cache``, graphs already
    embedded during classifier evaluation are served from the cache
    instead of recomputed.
    """
    cache = embedding_cache if embedding_cache is not None else EmbeddingCache(model)
    cache.populate(dataset, batch_size=batch_size)

    samples = []
    for graph in dataset:
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        entry = cache.forward(graph)
        samples.append(
            _EmbeddedSample(
                embeddings=entry.z,
                gnn_class=entry.predicted_class,
                active_mask=mask,
            )
        )
    return samples


def train_cfgexplainer(
    explainer: CFGExplainerModel,
    gnn: GCNClassifier,
    train_set: ACFGDataset,
    num_epochs: int = 100,
    minibatch_size: int = 16,
    lr: float = 0.001,
    sparsity_weight: float = 0.3,
    faithfulness_weight: float = 1.0,
    seed: int = 0,
    embedding_cache: EmbeddingCache | None = None,
    verbose: bool = False,
) -> ExplainerTrainingHistory:
    """The initial learning stage (Algorithm 1).

    Parameters mirror the algorithm: ``num_epochs`` iterations, each
    drawing a random mini-batch D' of ``minibatch_size`` samples, with
    Adam adjusting Θ's weights from the batch NLL loss.

    Two documented additions to the paper's bare NLL objective make the
    learned scores well-posed (set both weights to 0 for the literal
    Algorithm 1):

    * ``sparsity_weight``: the bare objective has a degenerate optimum
      where Θ_s outputs Ψ ≈ 1 for every node — the surrogate then
      classifies unweighted embeddings and the ordering carries no
      signal.  A mean-score penalty forces Θ_s to spend its score
      budget only where classification needs it.
    * ``faithfulness_weight``: an auxiliary NLL of the *frozen* GNN
      classification head Φ_c on the same weighted embeddings
      ``Ψ ⊙ Z``.  Θ_c is a different network from Φ_c, so scores that
      merely satisfy Θ_c need not preserve the prediction of the model
      being explained; probing the frozen head ties Ψ to Φ itself, the
      same coupling the mask-based explainers get by construction.  Φ's
      weights receive no updates (the optimizer only holds Θ's).
    """
    if num_epochs <= 0 or minibatch_size <= 0:
        raise ValueError("num_epochs and minibatch_size must be positive")
    if explainer.embedding_size != gnn.embedding_size:
        raise ValueError(
            f"explainer expects embeddings of size {explainer.embedding_size}, "
            f"GNN produces {gnn.embedding_size}"
        )

    rng = np.random.default_rng(seed)
    with obs_span("train.explainer.embed"):
        cached = precompute_embeddings(
            gnn, train_set, embedding_cache=embedding_cache
        )
    add_counter("explainer.train.epochs", num_epochs)
    add_counter("explainer.train.samples", len(cached))
    optimizer = Adam(explainer.parameters(), lr=lr)
    history = ExplainerTrainingHistory()

    m = min(minibatch_size, len(cached))
    for epoch in range(num_epochs):
        batch_indices = rng.choice(len(cached), size=m, replace=False)
        optimizer.zero_grad()
        loss = None
        for index in batch_indices:
            sample = cached[int(index)]
            z = Tensor(sample.embeddings)
            psi, probs = explainer.forward(z, sample.active_mask)
            sample_loss = nll_loss_from_probs(probs, sample.gnn_class)
            if faithfulness_weight:
                # Faithfulness probe: sample an approximately discrete
                # keep-mask from the score logits (concrete relaxation:
                # logistic noise + annealed temperature), mask the node
                # embeddings with it and require the frozen Φ_c to
                # still predict its class.  Under the max-pooled head
                # masking an embedding directly suppresses that node's
                # participation in the pooled evidence.
                tau = _TAU_START * (_TAU_END / _TAU_START) ** (
                    epoch / max(num_epochs - 1, 1)
                )
                score_logits = explainer.scorer.score_logits(z)
                uniform = rng.uniform(1e-6, 1 - 1e-6, size=score_logits.shape)
                noise = np.log(uniform) - np.log(1.0 - uniform)
                keep = (
                    (score_logits + Tensor(noise)) * (1.0 / tau)
                ).sigmoid()  # [N, 1]
                phi_probs = gnn.classify(z * keep)
                sample_loss = sample_loss + faithfulness_weight * (
                    nll_loss_from_probs(phi_probs, sample.gnn_class)
                )
            if sparsity_weight:
                # Plain shrinkage of the mean real-node score toward 0.
                real = Tensor(
                    sample.active_mask.astype(np.float64).reshape(-1, 1)
                )
                count = max(float(sample.active_mask.sum()), 1.0)
                mean_score = (psi * real).sum() * (1.0 / count)
                sample_loss = sample_loss + mean_score * sparsity_weight
            loss = sample_loss if loss is None else loss + sample_loss
        loss = loss * (1.0 / m)
        loss.backward()
        optimizer.step()
        history.losses.append(loss.item())
        if verbose and (epoch + 1) % 10 == 0:
            print(f"epoch {epoch + 1:4d}  loss={history.losses[-1]:.4f}")

    history.surrogate_agreement = _surrogate_agreement(explainer, cached)
    return history


def _surrogate_agreement(
    explainer: CFGExplainerModel, cached: list[_EmbeddedSample]
) -> float:
    """How often Θ_c's argmax matches the GNN's prediction."""
    agree = 0
    for sample in cached:
        with no_grad():
            _, probs = explainer.forward(Tensor(sample.embeddings), sample.active_mask)
        agree += int(np.argmax(probs.numpy()) == sample.gnn_class)
    return agree / len(cached)

"""The CFGExplainer deep-learning model Θ = {Θ_s, Θ_c} (Section IV-A).

Θ_s scores each node embedding into [0, 1] through a 64→32→1 MLP with a
sigmoid output; Θ_c re-classifies the score-weighted embeddings through
a 64→32→16 MLP followed by a softmax output layer.  The two networks
are architecturally connected through ``Z_weighted = Ψ ⊙ Z`` so the
joint NLL training pushes Θ_s to give high scores to the embeddings
that matter for classification — the weights are tied to embeddings,
which is exactly the paper's argument for interpretable scores.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Dense, Module, Tensor

__all__ = ["NodeScorer", "SurrogateClassifier", "CFGExplainerModel"]


class NodeScorer(Module):
    """Θ_s: per-node importance scores Ψ ∈ [0, 1]^N from embeddings Z."""

    def __init__(
        self,
        embedding_size: int,
        hidden: tuple[int, ...] = (64, 32),
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        widths = (embedding_size, *hidden)
        self.layers = [
            Dense(w_in, w_out, activation="relu", rng=rng)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.output = Dense(widths[-1], 1, activation="sigmoid", rng=rng)
        self.embedding_size = embedding_size

    def _hidden(self, z: Tensor) -> Tensor:
        for layer in self.layers:
            z = layer(z)
        return z

    def __call__(self, z: Tensor) -> Tensor:
        """Scores of shape [N, 1] for embeddings of shape [N, f]."""
        return self.output(self._hidden(z))

    def score_logits(self, z: Tensor) -> Tensor:
        """Pre-sigmoid scores, shape [N, 1].

        Used by the concrete-relaxation faithfulness probe in training,
        which needs to add logistic noise *before* the squashing.
        """
        return self._hidden(z) @ self.output.weight + self.output.bias


class SurrogateClassifier(Module):
    """Θ_c: classify weighted node embeddings into family probabilities.

    Per-node MLP (64→32→16 by default) followed by masked per-dimension
    max pooling and a final softmax layer, per Section V-A's
    architecture.  Max pooling matches the pooling of the GNN being
    explained, so the surrogate's notion of "which nodes carry the
    evidence" lines up with Φ's.
    """

    def __init__(
        self,
        embedding_size: int,
        num_classes: int,
        hidden: tuple[int, ...] = (64, 32, 16),
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        widths = (embedding_size, *hidden)
        self.layers = [
            Dense(w_in, w_out, activation="relu", rng=rng)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.output = Dense(widths[-1], num_classes, activation="linear", rng=rng)
        self.embedding_size = embedding_size
        self.num_classes = num_classes

    def __call__(self, z_weighted: Tensor, active_mask: np.ndarray) -> Tensor:
        """Class probabilities Y of shape [C].

        ``active_mask`` keeps padded nodes from leaking per-node biases
        into the pooled representation.
        """
        mask = Tensor(
            np.asarray(active_mask, dtype=np.float64).reshape(-1, 1)
        )
        h = z_weighted
        for layer in self.layers:
            h = layer(h)
        pooled = (h * mask).max(axis=0, keepdims=True)
        return self.output(pooled).softmax(axis=-1).reshape(-1)


class CFGExplainerModel(Module):
    """Θ = {Θ_s, Θ_c} plus the weighting connection between them."""

    def __init__(
        self,
        embedding_size: int,
        num_classes: int,
        scorer_hidden: tuple[int, ...] = (64, 32),
        classifier_hidden: tuple[int, ...] = (64, 32, 16),
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        self.scorer = NodeScorer(embedding_size, scorer_hidden, rng=rng)
        self.surrogate = SurrogateClassifier(
            embedding_size, num_classes, classifier_hidden, rng=rng
        )
        self.embedding_size = embedding_size
        self.num_classes = num_classes

    def score(self, z: Tensor) -> Tensor:
        """Node scores Ψ, shape [N, 1]."""
        return self.scorer(z)

    def forward(
        self, z: Tensor, active_mask: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """(Ψ, Y): scores and surrogate class probabilities.

        Implements lines 8-12 of Algorithm 1: Ψ = Θ_s(Z);
        Z_weighted[j] = Ψ_j · Z[j]; Y = Θ_c(Z_weighted).
        """
        psi = self.scorer(z)
        z_weighted = z * psi  # broadcast [N,1] over [N,f]
        return psi, self.surrogate(z_weighted, active_mask)

    def node_scores(self, z: Tensor, n_real: int) -> np.ndarray:
        """Ψ for the real nodes only, as a flat numpy vector."""
        from repro.nn import no_grad

        with no_grad():
            psi = self.scorer(z)
        return psi.numpy().reshape(-1)[:n_real].copy()


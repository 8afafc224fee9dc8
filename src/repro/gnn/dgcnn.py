"""A DGCNN-style classifier (MAGIC's architecture family).

The GNN the paper actually explains is MAGIC [11], which is built on
DGCNN (Zhang et al., 2018): stacked graph convolutions with *tanh*
activations whose channel outputs are concatenated, followed by
*SortPooling* — nodes sorted by their last convolution channel, the
top-k kept as a fixed-size representation — and a dense head.

CFGExplainer claims to be model-agnostic: it only consumes node
embeddings.  This class provides a second Φ implementation with the
same interface as :class:`GCNClassifier`, so the claim is testable (see
``benchmarks/test_bench_model_agnostic.py``).

Simplifications vs the original DGCNN (documented):
* the 1-D convolutions over the sorted node sequence are replaced by a
  dense head on the flattened top-k rows — same information path,
  fewer moving parts;
* embeddings are shifted to be non-negative (``tanh + 1``) so the
  paper's ``Z ∈ R_{>=0}^{N×f}`` convention and the padding-stays-zero
  invariant both hold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acfg.graph import ACFG
from repro.gnn.normalize import normalized_adjacency
from repro.nn import Dense, GCNConv, Module, Tensor, no_grad

__all__ = ["DGCNNClassifier"]


class DGCNNClassifier(Module):
    """DGCNN-style Φ: tanh conv stack + SortPooling + dense head."""

    def __init__(
        self,
        in_features: int = 12,
        conv_channels: tuple[int, ...] = (32, 32, 16),
        sort_k: int = 24,
        num_classes: int = 12,
        rng: np.random.Generator | None = None,
    ):
        if not conv_channels:
            raise ValueError("need at least one convolution layer")
        if sort_k <= 0:
            raise ValueError("sort_k must be positive")
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        widths = (in_features, *conv_channels)
        self.convs = [
            GCNConv(w_in, w_out, activation="tanh", rng=rng)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.embedding_size = sum(conv_channels)
        self.sort_k = sort_k
        self.head = Dense(
            sort_k * self.embedding_size, num_classes, activation="linear", rng=rng
        )
        self.in_features = in_features
        self.num_classes = num_classes

    # ------------------------------------------------------------------
    # Φ_e — same signature as GCNClassifier
    # ------------------------------------------------------------------
    def embed(
        self,
        adjacency: np.ndarray,
        features: np.ndarray,
        active_mask: np.ndarray | None = None,
    ) -> Tensor:
        n = adjacency.shape[0]
        if active_mask is None:
            active_mask = np.ones(n, dtype=bool)
        a_hat = Tensor(normalized_adjacency(adjacency, active_mask))
        return self.embed_normalized(a_hat, features, active_mask)

    def embed_normalized(
        self,
        a_hat: Tensor,
        features: np.ndarray | Tensor,
        active_mask: np.ndarray,
    ) -> Tensor:
        """Concatenated per-layer channels, shifted non-negative."""
        n = int(a_hat.shape[0])
        mask = Tensor(np.asarray(active_mask, dtype=np.float64).reshape(n, 1))
        h = Tensor.ensure(features)
        outputs = []
        for conv in self.convs:
            h = conv(a_hat, h)
            # tanh ∈ [-1, 1]; shift into [0, 2] and re-zero inactive rows.
            outputs.append((h + 1.0) * mask)
            h = h * mask
        return Tensor.concatenate(outputs, axis=1)

    # ------------------------------------------------------------------
    # Φ_c — SortPooling + dense head
    # ------------------------------------------------------------------
    def classify(self, z: Tensor) -> Tensor:
        return self.logits(z).softmax(axis=-1)

    def logits(self, z: Tensor) -> Tensor:
        """SortPool: rank nodes by their last channel, keep top-k rows.

        The sort permutation is computed from values (constant w.r.t.
        the graph) and applied with differentiable indexing; graphs
        with fewer active rows than k are effectively zero-padded, as
        in the original.
        """
        n = int(z.shape[0])
        order = np.argsort(-z.numpy()[:, -1], kind="stable")
        k = min(self.sort_k, n)
        top = z[order[:k]]
        flat = top.reshape(1, -1)
        if k < self.sort_k:
            padding = Tensor(np.zeros((1, (self.sort_k - k) * self.embedding_size)))
            flat = Tensor.concatenate([flat, padding], axis=1)
        return self.head(flat).reshape(-1)

    # ------------------------------------------------------------------
    # shared conveniences (mirrors GCNClassifier's interface)
    # ------------------------------------------------------------------
    def forward_acfg(self, graph: ACFG) -> tuple[Tensor, Tensor]:
        mask = np.zeros(graph.n, dtype=bool)
        mask[: graph.n_real] = True
        z = self.embed(graph.adjacency, graph.features, mask)
        return z, self.classify(z)

    def predict(self, graph: ACFG) -> int:
        with no_grad():
            _, probs = self.forward_acfg(graph)
        return int(np.argmax(probs.numpy()))

    def predict_proba(self, graph: ACFG) -> np.ndarray:
        with no_grad():
            _, probs = self.forward_acfg(graph)
        return probs.numpy().copy()

    def weighted_edge_proba(
        self, graph: ACFG, rows: np.ndarray, cols: np.ndarray, values: Tensor
    ) -> Tensor:
        """Same contract as :meth:`GCNClassifier.weighted_edge_proba`.

        SortPooling ranks all ``N`` rows, so the edge values are
        scattered into the dense padded Â and the dense path runs.
        """
        active = np.zeros(graph.n, dtype=bool)
        active[: graph.n_real] = True
        a_hat = Tensor.ensure(values).scatter2d((graph.n, graph.n), rows, cols)
        return self.classify(self.embed_normalized(a_hat, graph.features, active))

    def predict_subgraph(self, graph: ACFG, kept_nodes: np.ndarray) -> int:
        return int(np.argmax(self.subgraph_proba(graph, kept_nodes)))

    def subgraph_proba(self, graph: ACFG, kept_nodes: np.ndarray) -> np.ndarray:
        return self.subgraph_proba_batch(graph, [kept_nodes])[0]

    def subgraph_proba_batch(
        self, graph: ACFG, kept_sets: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``[K, C]`` subgraph probabilities, one dense forward per set.

        Same contract as :meth:`GCNClassifier.subgraph_proba_batch`;
        SortPooling sorts each graph's rows on its own, so the sets are
        not segment-batched.
        """
        rows = [np.zeros((0, self.num_classes))]
        for kept_nodes in kept_sets:
            kept_nodes = np.asarray(kept_nodes, dtype=int)
            mask = np.zeros(graph.n, dtype=bool)
            mask[kept_nodes] = True
            mask[graph.n_real :] = False
            with no_grad():
                z = self.embed(
                    graph.subgraph_adjacency(kept_nodes),
                    graph.masked_features(kept_nodes),
                    mask,
                )
                rows.append(self.classify(z).numpy().reshape(1, -1))
        return np.vstack(rows)

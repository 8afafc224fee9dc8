"""The GCN classifier Φ = {Φ_e, Φ_c}.

Architecture from Section V-A: Φ_e is three inter-connected GCN layers
with ReLU activations (node embeddings are therefore non-negative, as
the paper's ``Z ∈ R_{>=0}^{N×f}`` notation requires); Φ_c is a densely
connected linear layer producing probabilities over the 12 families
from the per-dimension max over *all* node embeddings (DESIGN.md
§"Pooling choice" records why max and not sum or mean).

The classifier has one forward, in two shapes:

* the single-graph forward ``embed(rows, cols, values, features)``
  runs Φ_e over a graph's real rows with Â given as an edge list
  (:meth:`repro.nn.GCNConv.edge_weighted`).  ``values`` may carry
  gradient, so GNNExplainer, CFExplainer and PGExplainer optimize one
  weight per stored entry of Â through it (``weighted_edge_proba``),
  Gradient differentiates it with respect to the features, and
  Algorithm 2 re-embeds its pruned rungs with it;
* the batched block-diagonal forward (``embed_batch`` /
  ``logits_batch`` / ``predict_proba_batch``) over
  :class:`repro.gnn.batch.GraphBatch` runs a whole mini-batch in one
  sparse pass.  ``predict`` is a one-graph batch, and subgraph scoring
  (``subgraph_proba_batch``) packs the node-masked copies of one graph
  into one batch.

Both agree with the dense padded reference the tests keep
(``tests/reference_training.py``) to within summation order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.acfg.graph import ACFG
from repro.gnn.cache import AHatCache
from repro.nn import Dense, GCNConv, Module, Tensor, no_grad, segment_max

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.gnn.batch import GraphBatch

__all__ = ["GCNClassifier"]


class GCNClassifier(Module):
    """Φ = {Φ_e, Φ_c}: GCN embedder + dense softmax classifier.

    Parameters
    ----------
    in_features:
        Node feature dimension d (12 for Table I features).
    hidden:
        GCN layer widths; the last entry is the embedding size f.
        The paper uses (1024, 512, 128); scaled-down defaults train in
        seconds on CPU while keeping the three-layer shape.
    num_classes:
        Number of ACFG families (12 in the paper).
    """

    def __init__(
        self,
        in_features: int = 12,
        hidden: tuple[int, ...] = (64, 48, 32),
        num_classes: int = 12,
        rng: np.random.Generator | None = None,
    ):
        if not hidden:
            raise ValueError("need at least one GCN layer")
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        widths = (in_features, *hidden)
        self.convs = [
            GCNConv(w_in, w_out, activation="relu", rng=rng)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.classifier = Dense(hidden[-1], num_classes, activation="linear", rng=rng)
        self.in_features = in_features
        self.embedding_size = hidden[-1]
        self.num_classes = num_classes
        #: Content-keyed memo of CSR normalized adjacencies: repeated
        #: ``predict`` calls on the same graph, and batch packing across
        #: epochs, reuse Â instead of rebuilding it.
        self.a_hat_cache = AHatCache()

    # ------------------------------------------------------------------
    # Φ_e : node embeddings
    # ------------------------------------------------------------------
    def embed(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray | Tensor,
        features: np.ndarray | Tensor,
    ) -> Tensor:
        """Node embeddings Z = Φ_e(Â, X) over the rows of ``features``.

        ``(rows, cols, values)`` lists the entries of Â over those rows
        (:func:`repro.gnn.normalize.normalized_edges` gives a graph's
        real-node Â).  Padding rows are all-zero and never win the max
        pooling, so a graph's real rows are all Φ needs.  ``values`` and
        ``features`` may carry gradient.
        """
        z = Tensor.ensure(features)
        for conv in self.convs:
            z = conv.edge_weighted(rows, cols, values, z)
        return z

    # ------------------------------------------------------------------
    # Φ_c : classification from embeddings
    # ------------------------------------------------------------------
    def classify(self, z: Tensor) -> Tensor:
        """Class probabilities from node embeddings (all nodes pooled).

        Pooling is per-dimension max: the graph is classified by
        its strongest activations, i.e. by the *evidence-carrying*
        blocks rather than by graph size.  That is what makes small
        well-chosen subgraphs retain the original prediction (the
        property the paper's Figure 2 rests on) while random subgraphs
        lose it.  ReLU embeddings are non-negative, so padded/pruned
        all-zero rows never win a maximum.
        """
        return self.logits(z).softmax(axis=-1)

    def logits(self, z: Tensor) -> Tensor:
        """Class logits ``[C]`` from the max-pooled embeddings."""
        return self.classifier(z.max(axis=0, keepdims=True)).reshape(-1)

    def weighted_edge_proba(
        self, graph: ACFG, rows: np.ndarray, cols: np.ndarray, values: Tensor
    ) -> Tensor:
        """Differentiable class probabilities ``[C]`` for an edge-valued Â.

        ``(rows, cols, values)`` lists the entries of Â over the graph's
        real nodes; ``values`` may carry gradient (a soft edge mask
        times Â).
        """
        z = self.embed(rows, cols, values, graph.features[: graph.n_real])
        return self.logits(z).softmax(axis=-1)

    # ------------------------------------------------------------------
    # batched block-diagonal engine
    # ------------------------------------------------------------------
    def embed_batch(self, batch: "GraphBatch") -> Tensor:
        """Stacked node embeddings for a whole batch, ``[total_nodes, f]``.

        One sparse forward pass over the block-diagonal Â; row
        ``batch.rows_of(i)`` holds graph *i*'s embeddings (its padding
        rows zero).  Each layer runs as a fused spmm+bias+ReLU+mask
        kernel (:func:`repro.nn.sparse.gcn_layer`), with intermediates in
        the batch's :class:`~repro.nn.backend.KernelWorkspace` when one is
        attached.
        """
        mask = batch.mask_column
        z = Tensor.ensure(batch.features)
        for index, conv in enumerate(self.convs):
            z = conv.sparse(
                batch.a_hat, z, mask=mask,
                workspace=batch.workspace, slot=f"conv{index}",
            )
        return z

    def logits_batch(self, z: Tensor, batch: "GraphBatch") -> Tensor:
        """Per-graph logits ``[B, C]`` from stacked embeddings.

        Max pooling becomes a segment maximum over ``batch.segment_ids``.
        """
        pooled = segment_max(
            z, batch.segment_ids, batch.num_graphs, starts=batch.offsets[:-1]
        )
        return self.classifier(pooled)

    def forward_batch(self, batch: "GraphBatch") -> tuple[Tensor, Tensor]:
        """(stacked Z, logits ``[B, C]``) for one packed batch."""
        z = self.embed_batch(batch)
        return z, self.logits_batch(z, batch)

    def predict_proba_batch(
        self, graphs: Sequence[ACFG], batch_size: int = 64
    ) -> np.ndarray:
        """Class probabilities ``[len(graphs), C]`` in a few batched passes."""
        from repro.gnn.batch import iter_batches

        rows = []
        with no_grad():
            for batch in iter_batches(
                graphs, batch_size, a_hat_cache=self.a_hat_cache
            ):
                _, logits = self.forward_batch(batch)
                rows.append(logits.softmax(axis=-1).numpy())
        return np.vstack(rows)

    def predict_batch(
        self, graphs: Sequence[ACFG], batch_size: int = 64
    ) -> np.ndarray:
        """Argmax predictions for many graphs via the batched engine."""
        return np.argmax(self.predict_proba_batch(graphs, batch_size), axis=1)

    # ------------------------------------------------------------------
    # conveniences over ACFG samples
    # ------------------------------------------------------------------
    def predict(self, graph: ACFG) -> int:
        return int(np.argmax(self.predict_proba(graph)))

    def predict_proba(self, graph: ACFG) -> np.ndarray:
        return self.predict_proba_batch([graph])[0]

    def predict_subgraph(self, graph: ACFG, kept_nodes: np.ndarray) -> int:
        """Prediction when only ``kept_nodes`` survive.

        The subgraph keeps the [N, N] shape: removed nodes lose all
        edges (Algorithm 2's masking) and their features, i.e. they
        become indistinguishable from padding.
        """
        return int(np.argmax(self.subgraph_proba(graph, kept_nodes)))

    def subgraph_proba(self, graph: ACFG, kept_nodes: np.ndarray) -> np.ndarray:
        """Class probabilities ``[C]`` when only ``kept_nodes`` survive."""
        return self.subgraph_proba_batch(graph, [kept_nodes])[0]

    def subgraph_proba_batch(
        self, graph: ACFG, kept_sets: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Class probabilities ``[K, C]`` for ``K`` subgraphs of ``graph``.

        Row *k* is the prediction when only ``kept_sets[k]`` survive.
        All perturbations run through the batched sparse engine in a
        few block-diagonal passes
        (:func:`repro.gnn.batch.iter_perturbation_batches`); their Â
        are derived from the graph's edge list and never touch
        :attr:`a_hat_cache`, which would only fill with one-off
        entries.
        """
        from repro.gnn.batch import iter_perturbation_batches

        rows = [np.zeros((0, self.num_classes))]
        with no_grad():
            for batch in iter_perturbation_batches(graph, kept_sets):
                _, logits = self.forward_batch(batch)
                rows.append(logits.softmax(axis=-1).numpy())
        return np.vstack(rows)

"""Adjacency normalization for graph convolution.

Kipf & Welling propagation: ``A_hat = D^{-1/2} (A + I) D^{-1/2}``.
Self-loops are added only to *active* nodes so that padded (or pruned)
nodes — zero features, zero edges — stay exactly inert through Φ_e.

Every Â is built from a graph's memoized real-node edge list
(:meth:`repro.acfg.graph.ACFG.self_looped_edges`) and scaled by one
formula (:func:`normalized_values`), in O(E): :func:`block_normalized_csr`
is the block-diagonal padded CSR of a mini-batch the batched engine
packs, :func:`masked_normalized_csr` the Â of many node-masked copies of
one graph — the perturbation-scoring path
(:func:`repro.gnn.batch.iter_perturbation_batches`) — and
:func:`normalized_edges` the edge list the single-graph forward
``GCNClassifier.embed`` takes.  Only the first ``n_real`` nodes are
read, so padding rows stay empty even where a malformed graph gives
them edges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse as _sp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.acfg.graph import ACFG

__all__ = [
    "block_normalized_csr",
    "masked_normalized_csr",
    "normalized_edges",
    "normalized_values",
]


def normalized_values(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, size: int
) -> np.ndarray:
    """Â's values at ``(rows, cols)``: ``weights`` scaled ``(w * r) * c``.

    ``r`` and ``c`` are ``D^{-1/2}`` of the row and column, the degrees
    summed over the listed entries of each row (integer-valued, so exact
    in any summation order); ``size`` bounds the node indices.
    """
    degree = np.bincount(rows, weights=weights, minlength=size)
    inv_sqrt = np.zeros(size)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    values = weights * inv_sqrt[rows]
    values *= inv_sqrt[cols]
    return values


def _normalized_csr(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, size: int
) -> "_sp.csr_matrix":
    """The ``[size, size]`` CSR Â of entries listed row-major."""
    data = normalized_values(rows, cols, weights, size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return _sp.csr_matrix((data, cols, indptr), shape=(size, size))


def masked_normalized_csr(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], keep: np.ndarray
) -> "_sp.csr_matrix":
    """Block-diagonal Â of ``K`` node-masked copies of one graph.

    ``edges`` is the graph's :meth:`~repro.acfg.graph.ACFG.self_looped_edges`;
    ``keep`` is a ``[K, R]`` boolean matrix (``R`` ≥ the real-node count)
    whose row *k* marks the nodes copy *k* keeps.  In block *k* edges
    with a removed endpoint are dropped, kept nodes keep their self-loop
    and degrees are recomputed; removed nodes' rows are empty.
    """
    rows, cols, weights = edges
    count, width = keep.shape
    alive = keep[:, rows] & keep[:, cols]  # [K, E]
    copy, edge = np.nonzero(alive)  # copy-major, then row-major per copy
    return _normalized_csr(
        copy * width + rows[edge], copy * width + cols[edge], weights[edge], count * width
    )


def block_normalized_csr(graphs: "Sequence[ACFG]") -> "_sp.csr_matrix":
    """Block-diagonal ``[ΣN, ΣN]`` CSR Â of ``graphs``, each padded to its ``n``.

    Each real block is normalized with a self-loop on every real node;
    padding rows and columns are empty.  One scipy constructor per call.
    """
    offsets = np.cumsum([0] + [graph.n for graph in graphs])
    edges = [graph.self_looped_edges() for graph in graphs]
    return _normalized_csr(
        np.concatenate([rows + offset for (rows, _, _), offset in zip(edges, offsets)]),
        np.concatenate([cols + offset for (_, cols, _), offset in zip(edges, offsets)]),
        np.concatenate([weights for _, _, weights in edges]),
        int(offsets[-1]),
    )


def normalized_edges(graph: "ACFG") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of ``graph``'s real-node Â, listed row-major.

    The entries of :func:`block_normalized_csr` on the first ``n_real``
    nodes, in the order of :meth:`~repro.acfg.graph.ACFG.self_looped_edges`.
    """
    rows, cols, weights = graph.self_looped_edges()
    return rows, cols, normalized_values(rows, cols, weights, graph.n_real)

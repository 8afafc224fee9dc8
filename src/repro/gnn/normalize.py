"""Adjacency normalization for graph convolution.

Kipf & Welling propagation: ``A_hat = D^{-1/2} (A + I) D^{-1/2}``.
Self-loops are added only to *active* nodes so that padded (or pruned)
nodes — zero features, zero edges — stay exactly inert through Φ_e.

Every Â is built from a graph's real-node edge list
(:func:`self_looped_edges`) and scaled by one formula
(:func:`normalized_values`): :func:`normalized_csr` is the padded
``[N, N]`` CSR the batched engine packs, :func:`masked_normalized_csr`
the Â of many node-masked copies of one graph in O(K·E) — the
perturbation-scoring path (:func:`repro.gnn.batch.iter_perturbation_batches`)
— and :func:`normalized_edges` the edge list the single-graph forward
``GCNClassifier.embed`` takes.  Only the first ``n_real`` nodes are
read, so padding rows stay empty even where a malformed graph gives
them edges.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

__all__ = [
    "masked_normalized_csr",
    "normalized_csr",
    "normalized_edges",
    "normalized_values",
    "self_looped_edges",
]


def self_looped_edges(
    adjacency: np.ndarray, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` of ``max(A, Aᵀ) + I`` on the real nodes.

    ``adjacency`` is the weighted ``A ∈ {0,1,2}^{N×N}`` (call edges
    weigh 2); control-flow edges are symmetrized, as PyG's GCNConv does
    for directed inputs.  Entries are restricted to the first
    ``n_real`` nodes and listed row-major (columns ascending within a
    row).  A self-loop already in ``A`` is merged with the added one
    before any scaling.
    """
    real = np.asarray(adjacency, dtype=np.float64)[:n_real, :n_real]
    with_loops = np.maximum(real, real.T)
    with_loops[np.diag_indices(n_real)] += 1.0
    rows, cols = np.nonzero(with_loops)
    return rows, cols, with_loops[rows, cols]


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


def masked_normalized_csr(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], keep: np.ndarray
) -> "_sp.csr_matrix":
    """Block-diagonal Â of ``K`` node-masked copies of one graph.

    ``edges`` comes from :func:`self_looped_edges`; ``keep`` is a
    ``[K, R]`` boolean matrix (``R`` ≥ the real-node count) whose row
    *k* marks the nodes copy *k* keeps.  In block *k* edges with a
    removed endpoint are dropped, kept nodes keep their self-loop and
    degrees are recomputed; removed nodes' rows are empty.
    """
    rows, cols, weights = edges
    count, width = keep.shape
    alive = keep[:, rows] & keep[:, cols]  # [K, E]
    copy, edge = np.nonzero(alive)  # copy-major, then row-major per copy
    src = copy * width + rows[edge]
    dst = copy * width + cols[edge]
    total = count * width
    data = normalized_values(src, dst, weights[edge], total)
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])
    return _sp.csr_matrix((data, dst, indptr), shape=(total, total))


def normalized_csr(adjacency: np.ndarray, n_real: int) -> "_sp.csr_matrix":
    """The ``[N, N]`` CSR Â of a graph whose first ``n_real`` nodes are real.

    The real block is normalized with a self-loop on every real node;
    padding rows and columns are empty.
    """
    keep = np.arange(np.shape(adjacency)[0]) < n_real
    return masked_normalized_csr(self_looped_edges(adjacency, n_real), keep[None, :])


def normalized_edges(
    adjacency: np.ndarray, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the real-node Â, listed row-major.

    The entries of :func:`normalized_csr` on the first ``n_real``
    nodes, in the order of :func:`self_looped_edges`.
    """
    rows, cols, weights = self_looped_edges(adjacency, n_real)
    return rows, cols, normalized_values(rows, cols, weights, n_real)

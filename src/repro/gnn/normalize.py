"""Adjacency normalization for graph convolution.

Kipf & Welling propagation: ``A_hat = D^{-1/2} (A + I) D^{-1/2}``.
Self-loops are added only to *active* nodes so that padded (or pruned)
nodes — zero features, zero edges — stay exactly inert through Φ_e.

:func:`self_looped_edges` and :func:`masked_normalized_csr` derive the
Â of many node-masked copies of one graph from its edge list in
O(K·E), without going back to the dense matrix per copy — the
perturbation-scoring path (:func:`repro.gnn.batch.iter_perturbation_batches`);
:func:`normalized_edges` is the one-copy case, the edge list the
single-graph forward ``GCNClassifier.embed`` takes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

__all__ = [
    "masked_normalized_csr",
    "normalized_adjacency_csr",
    "normalized_edges",
    "self_looped_edges",
]


def normalized_adjacency_csr(
    adjacency: np.ndarray, active_mask: np.ndarray | None = None
) -> "_sp.csr_matrix":
    """Symmetrically normalized adjacency with masked self-loops, in CSR.

    ``adjacency`` is the weighted ``A ∈ {0,1,2}^{N×N}`` (call edges
    weigh 2); ``active_mask`` (default all-active) marks the nodes that
    get a self-loop.  Control-flow edges are symmetrized,
    ``max(A, Aᵀ)``, as PyG's GCNConv does for directed inputs.  The
    dense input is scanned once for its nonzeros and everything else
    runs on the O(nnz) sparse structure — the form the batched engine
    packs into block-diagonal matrices.  Equivalent to the dense
    reference the tests keep to within last-ulp summation-order effects
    in the degree (≪ 1e-8; ``tests/test_kernel_backend.py``).
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if active_mask is None:
        active = np.ones(n, dtype=bool)
    else:
        active = np.asarray(active_mask, dtype=bool)
        if active.shape != (n,):
            raise ValueError(f"mask shape {active.shape} != ({n},)")

    rows, cols = np.nonzero(adjacency)
    sparse = _sp.csr_matrix(
        (adjacency[rows, cols], (rows, cols)), shape=(n, n), dtype=np.float64
    )
    symmetric = sparse.maximum(sparse.T.tocsr()).tocsr()
    with_loops = (
        symmetric + _sp.diags(active.astype(np.float64), format="csr")
    ).tocsr()

    degree = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    # Row scaling via the CSR structure, column scaling via the column
    # indices — same (w * r) * c operation order as the dense form.
    with_loops.data *= np.repeat(inv_sqrt, np.diff(with_loops.indptr))
    with_loops.data *= inv_sqrt[with_loops.indices]
    return with_loops


def self_looped_edges(
    adjacency: np.ndarray, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` of ``max(A, Aᵀ) + I`` on the real nodes.

    The nonzeros of the fully-active self-looped matrix that
    :func:`normalized_adjacency_csr` normalizes, restricted to the first
    ``n_real`` nodes and listed row-major (columns ascending within a
    row).  A self-loop already in ``A`` is merged with the added one
    before any scaling, as the CSR builder's sum does.
    """
    real = np.asarray(adjacency, dtype=np.float64)[:n_real, :n_real]
    with_loops = np.maximum(real, real.T)
    with_loops[np.diag_indices(n_real)] += 1.0
    rows, cols = np.nonzero(with_loops)
    return rows, cols, with_loops[rows, cols]


def masked_normalized_csr(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], keep: np.ndarray
) -> "_sp.csr_matrix":
    """Block-diagonal Â of ``K`` node-masked copies of one graph.

    ``edges`` comes from :func:`self_looped_edges`; ``keep`` is a
    ``[K, R]`` boolean matrix (``R`` ≥ the real-node count) whose row
    *k* marks the nodes copy *k* keeps.  Block *k* equals
    ``normalized_adjacency_csr(subgraph_adjacency(kept), kept)`` on the
    real block: edges with a removed endpoint are dropped, kept nodes
    keep their self-loop, degrees are recomputed (integer-valued, so
    exact in any summation order) and entries are scaled in the same
    ``(w * r) * c`` order.
    """
    rows, cols, weights = edges
    count, width = keep.shape
    alive = keep[:, rows] & keep[:, cols]  # [K, E]
    copy, edge = np.nonzero(alive)  # copy-major, then row-major per copy
    src = copy * width + rows[edge]
    dst = copy * width + cols[edge]
    data = weights[edge]
    total = count * width
    degree = np.bincount(src, weights=data, minlength=total)
    inv_sqrt = np.zeros(total)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    data = data * inv_sqrt[src]
    data *= inv_sqrt[dst]
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])
    return _sp.csr_matrix((data, dst, indptr), shape=(total, total))


def normalized_edges(
    adjacency: np.ndarray, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the real-node Â, listed row-major.

    The entries of ``normalized_adjacency_csr(adjacency, active)`` on
    the first ``n_real`` nodes (``active`` marking them), in the order
    of :func:`self_looped_edges`.
    """
    edges = self_looped_edges(adjacency, n_real)
    a_hat = masked_normalized_csr(edges, np.ones((1, n_real), dtype=bool))
    return edges[0], edges[1], a_hat.data

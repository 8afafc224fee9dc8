"""Sparse-matrix and segment operations for batched graph execution.

A mini-batch of graphs can be executed as one big *disconnected* graph:
stack every graph's normalized adjacency into a block-diagonal matrix,
stack the node features row-wise, and remember which rows belong to
which graph in a ``segment_ids`` vector.  A GCN layer applied to the
block-diagonal matrix is mathematically identical to applying it to
each graph separately (messages cannot cross blocks), and per-graph
pooling becomes a segment reduction.

The block-diagonal matrix is overwhelmingly sparse — its density falls
as ``1/num_graphs`` — so it is stored in CSR form (:class:`CSRMatrix`).
The ops here are the autograd-facing entry points: like every op in
:mod:`repro.nn.tensor` they record a backward closure on the tape and
are finite-difference tested in ``tests/test_autograd.py``.  The raw
kernels underneath are the plain functions of :mod:`repro.nn.backend`,
and every op accepts an optional
:class:`~repro.nn.backend.KernelWorkspace` so repeated steps reuse
output/gradient buffers instead of reallocating.

The CSR matrix itself is a *constant* of the graph (no gradients flow
into its values).  Differentiable adjacencies — the soft edge masks the
GNNExplainer and CFExplainer baselines optimize — go through
:func:`edge_spmm`, whose matrix is an edge list with one tensor value
per stored entry.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from repro.nn import backend as kernels
from repro.nn.backend import KernelWorkspace
from repro.nn.tensor import Tensor

__all__ = [
    "CSRMatrix",
    "csr_matmul",
    "edge_spmm",
    "gcn_layer",
    "segment_max",
    "segment_starts",
    "segment_sum",
]


class CSRMatrix:
    """An immutable CSR sparse matrix used as a constant in autograd ops.

    Wraps ``scipy.sparse.csr_matrix``; the transpose (needed by the
    backward pass of :func:`csr_matmul`) and any alternate-dtype casts
    (float32 compute over a float64-canonical Â) are materialized
    lazily and memoized, so inference-only paths never pay for the
    transpose and repeated epochs never re-cast.
    """

    __slots__ = ("matrix", "_transposes", "_casts")

    def __init__(self, matrix, dtype=None):
        target = np.dtype(np.float64 if dtype is None else dtype)
        if _sp.issparse(matrix) and matrix.format == "csr" and matrix.dtype == target:
            self.matrix = matrix
        else:
            self.matrix = _sp.csr_matrix(matrix, dtype=target)
        self._transposes: dict[str, _sp.csr_matrix] = {}
        self._casts: dict[str, _sp.csr_matrix] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype=None) -> "CSRMatrix":
        target = np.dtype(np.float64 if dtype is None else dtype)
        return cls(_sp.csr_matrix(np.asarray(dense, dtype=target)), dtype=target)

    @classmethod
    def block_diagonal(cls, blocks: list["CSRMatrix | np.ndarray"]) -> "CSRMatrix":
        """Stack square blocks along the diagonal: diag(B_1, ..., B_k).

        Assembled directly in CSR form — concatenated data, column
        indices shifted per block, row pointers offset by cumulative
        nnz — because ``scipy.sparse.block_diag`` routes through COO
        and its per-block allocations dominate mini-batch packing.
        The result keeps the blocks' (promoted) dtype.
        """
        if not blocks:
            raise ValueError("need at least one block")
        mats = [
            b.matrix if isinstance(b, CSRMatrix) else _sp.csr_matrix(b)
            for b in blocks
        ]
        if len(mats) == 1:
            return cls(mats[0], dtype=mats[0].dtype)
        rows = np.array([m.shape[0] for m in mats])
        cols = np.array([m.shape[1] for m in mats])
        col_offsets = np.concatenate([[0], np.cumsum(cols[:-1])])
        nnz_offsets = np.concatenate([[0], np.cumsum([m.nnz for m in mats[:-1]])])
        data = np.concatenate([m.data for m in mats])
        indices = np.concatenate(
            [m.indices + off for m, off in zip(mats, col_offsets)]
        )
        indptr = np.concatenate(
            [mats[0].indptr]
            + [m.indptr[1:] + off for m, off in zip(mats[1:], nnz_offsets[1:])]
        )
        shape = (int(rows.sum()), int(cols.sum()))
        return cls(
            _sp.csr_matrix((data, indices, indptr), shape=shape), dtype=data.dtype
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def astype(self, dtype) -> "_sp.csr_matrix":
        """This matrix as a scipy CSR in ``dtype`` (cached, shared)."""
        dtype = np.dtype(dtype)
        if dtype == self.matrix.dtype:
            return self.matrix
        cached = self._casts.get(dtype.str)
        if cached is None:
            cached = self.matrix.astype(dtype)
            self._casts[dtype.str] = cached
        return cached

    def transpose(self, dtype=None) -> "_sp.csr_matrix":
        """The CSR transpose in ``dtype`` (default: own dtype; cached)."""
        dtype = np.dtype(self.matrix.dtype if dtype is None else dtype)
        cached = self._transposes.get(dtype.str)
        if cached is None:
            base = self._transposes.get(self.matrix.dtype.str)
            if base is None:
                base = self.matrix.T.tocsr()
                self._transposes[self.matrix.dtype.str] = base
            cached = base if dtype == base.dtype else base.astype(dtype)
            self._transposes[dtype.str] = cached
        return cached

    @property
    def T(self):
        return self.transpose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"


def csr_matmul(
    a: CSRMatrix,
    x: Tensor,
    workspace: KernelWorkspace | None = None,
    slot: str = "csr_matmul",
) -> Tensor:
    """``a @ x`` where ``a`` is a constant CSR matrix and ``x`` a tensor.

    Gradient: ``d loss/d x = aᵀ @ grad``.  No gradient flows into ``a``.
    With a ``workspace``, the forward output and the backward gradient
    are written into preallocated per-``slot`` buffers; parameter
    (leaf) gradients never alias a workspace buffer.
    """
    x = Tensor.ensure(x)
    x_data = x.data
    mat = a.astype(x_data.dtype)
    out = None
    if workspace is not None and x_data.ndim == 2:
        out = workspace.buffer(slot, (mat.shape[0], x_data.shape[1]), x_data.dtype)
    data = kernels.spmm(mat, x_data, out=out)

    def backward(grad: np.ndarray) -> None:
        a_t = a.transpose(grad.dtype)
        grad_out = None
        if workspace is not None and grad.ndim == 2 and x._op != "leaf":
            grad_out = workspace.buffer(
                slot + ":bwd", (a_t.shape[0], grad.shape[1]), grad.dtype
            )
        x._accumulate_owned(kernels.spmm(a_t, grad, out=grad_out))

    return Tensor._from_op(data, (x,), backward, "csr_matmul")


def _edge_csr(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> "_sp.csr_matrix":
    """CSR matrix of an edge list; duplicate ``(row, col)`` pairs add."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return _sp.csr_matrix((values[order], cols[order], indptr), shape=shape)


def edge_spmm(
    rows: np.ndarray,
    cols: np.ndarray,
    weights: Tensor,
    x: Tensor,
    num_rows: int,
) -> Tensor:
    """Edge-weighted sparse product: ``out[r] = Σ_{e: rows[e]=r} w_e · x[cols[e]]``.

    The matrix is the edge list ``(rows, cols)`` with the tensor
    ``weights`` as its values, so — unlike :func:`csr_matmul` — the
    gradient flows into both operands: ``d loss/d x = Aᵀ @ grad`` and
    ``d loss/d w_e = grad[rows[e]] · x[cols[e]]``.  Duplicate
    ``(row, col)`` pairs add, each edge keeping its own gradient.
    Output shape ``[num_rows, f]``.
    """
    weights, x = Tensor.ensure(weights), Tensor.ensure(x)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
        raise ValueError("rows, cols and weights must be 1-D of equal length")
    mat = _edge_csr(rows, cols, weights.data, (num_rows, x.shape[0]))
    data = kernels.spmm(mat, x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            mat_t = _edge_csr(cols, rows, weights.data, (x.shape[0], num_rows))
            x._accumulate_owned(kernels.spmm(mat_t, grad))
        if weights.requires_grad:
            weights._accumulate_owned(
                np.einsum("ij,ij->i", grad[rows], x.data[cols])
            )

    return Tensor._from_op(data, (weights, x), backward, "edge_spmm")


def gcn_layer(
    a: CSRMatrix,
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    mask: np.ndarray,
    workspace: KernelWorkspace | None = None,
    slot: str = "gcn",
) -> Tensor:
    """Fused GCN layer: ``relu(a @ (x @ weight) + bias) * mask``.

    One tape node instead of five (matmul/spmm/add/relu/mul), with the
    bias add, ReLU and mask applied in place on the spmm output — the
    intermediate activations of the composed form are never
    materialized.  Bit-identical to the composed ops (the in-place
    elementwise chain performs the same IEEE operations in the same
    order, and ``out > 0`` equals ``mask * (pre > 0)`` wherever the
    masked gradient is nonzero).

    ``mask`` is a constant ``[n, 1]`` 0/1 column (no gradient); ``a``
    is a constant CSR Â.  With a ``workspace`` the two large
    intermediates (layer output, backward support gradient) live in
    per-``slot`` reusable buffers.
    """
    x = Tensor.ensure(x)
    support = x.data @ weight.data
    mat = a.astype(support.dtype)
    out = None
    if workspace is not None:
        out = workspace.buffer(slot, (mat.shape[0], support.shape[1]), support.dtype)
    h = kernels.spmm(mat, support, out=out)
    h += bias.data
    np.maximum(h, 0.0, out=h)
    h *= mask

    def backward(grad: np.ndarray) -> None:
        g = grad * mask
        g *= h > 0.0
        a_t = a.transpose(g.dtype)
        grad_support_out = None
        if workspace is not None:
            grad_support_out = workspace.buffer(
                slot + ":bwd", support.shape, g.dtype
            )
        grad_support = kernels.spmm(a_t, g, out=grad_support_out)
        if bias.requires_grad:
            bias._accumulate_owned(g.sum(axis=0, keepdims=True))
        if weight.requires_grad:
            weight._accumulate_owned(x.data.T @ grad_support)
        if x.requires_grad:
            x._accumulate_owned(grad_support @ weight.data.T)

    return Tensor._from_op(h, (x, weight, bias), backward, "gcn_layer")


def _check_segments(
    x: Tensor, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if segment_ids.ndim != 1 or segment_ids.shape[0] != x.shape[0]:
        raise ValueError(
            f"segment_ids must be 1-D with one entry per row; got "
            f"{segment_ids.shape} for {x.shape[0]} rows"
        )
    if segment_ids.size and (
        segment_ids.min() < 0 or segment_ids.max() >= num_segments
    ):
        raise ValueError("segment ids out of range")
    return segment_ids


def segment_starts(
    segment_ids: np.ndarray, num_segments: int
) -> np.ndarray | None:
    """Per-segment row offsets for the compiled ``reduceat`` fast path.

    Returns the offsets only when ``segment_ids`` is sorted *and* every
    segment is non-empty — ``reduceat`` silently produces wrong rows
    for empty segments (``starts[i] == starts[i+1]`` yields
    ``x[starts[i]]``), so any other layout gets ``None`` and the ops
    fall back to the scatter kernels.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    counts = np.bincount(segment_ids, minlength=num_segments)
    if not np.all(counts > 0):
        return None
    if segment_ids.size > 1 and np.any(np.diff(segment_ids) < 0):
        return None
    starts = np.zeros(num_segments, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def segment_sum(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    starts: np.ndarray | None = None,
) -> Tensor:
    """Row-wise scatter-add: ``out[s] = Σ_{i: segment_ids[i]=s} x[i]``.

    The batched form of per-graph sum pooling: with rows stacked across
    graphs and ``segment_ids`` mapping rows to graphs, this reduces a
    whole mini-batch in one call.  Output shape ``[num_segments, f]``.
    Callers that already know the batch layout can pass ``starts``
    (see :func:`segment_starts`) to skip its recomputation.
    """
    x = Tensor.ensure(x)
    segment_ids = _check_segments(x, segment_ids, num_segments)
    if starts is None:
        starts = segment_starts(segment_ids, num_segments)
    out = kernels.segment_sum(x.data, segment_ids, num_segments, starts)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_owned(grad[segment_ids])

    return Tensor._from_op(out, (x,), backward, "segment_sum")


def segment_max(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    starts: np.ndarray | None = None,
) -> Tensor:
    """Row-wise segment maximum, the batched form of max pooling.

    Every segment must be non-empty.  Ties split the gradient evenly,
    matching the subgradient convention of :meth:`Tensor.max`.
    """
    x = Tensor.ensure(x)
    segment_ids = _check_segments(x, segment_ids, num_segments)
    if starts is None:
        starts = segment_starts(segment_ids, num_segments)
        if starts is None:
            counts = np.bincount(segment_ids, minlength=num_segments)
            if np.any(counts == 0):
                raise ValueError(
                    "segment_max requires every segment to be non-empty"
                )
    out = kernels.segment_max(x.data, segment_ids, num_segments, starts)

    def backward(grad: np.ndarray) -> None:
        winners = (x.data == out[segment_ids]).astype(x.data.dtype)
        if starts is not None:
            tie_counts = np.add.reduceat(winners, starts, axis=0)
        else:
            tie_counts = np.zeros_like(out)
            np.add.at(tie_counts, segment_ids, winners)
        winners *= (grad / tie_counts)[segment_ids]
        x._accumulate_owned(winners)

    return Tensor._from_op(out, (x,), backward, "segment_max")

"""Raw kernels behind the sparse/segment autograd ops.

The profile of batched training (DESIGN.md §Sparse kernels) is a short
list of hot kernels: the block-diagonal sparse matmul (forward and its
transposed backward), the segment reductions that implement per-graph
pooling, and buffer churn around them.  This module holds them as plain
ndarray-in/ndarray-out functions on scipy CSR matrices and numpy
arrays, never :class:`Tensor`; the autograd wrappers in
:mod:`repro.nn.sparse` stay the only place tape closures are built.

* :func:`spmm` — scipy's compiled CSR kernel, driven through
  ``csr_matvecs`` directly when an output buffer is supplied so
  repeated epochs reuse memory instead of reallocating.
* :func:`segment_sum` / :func:`segment_max` — per-segment row
  reductions: compiled ``reduceat`` over sorted segment ids, scatter
  ``ufunc.at`` otherwise.
* :class:`KernelWorkspace` — named preallocated buffers keyed by
  ``(slot, shape, dtype)``.  Slot names are unique per call site (one
  per layer per direction), so no reset protocol is needed: a buffer
  is only ever overwritten by the same call site on the next step,
  after every tensor referencing it is dead.  Parameter gradients are
  never stored in workspace buffers (see ``tests/test_kernel_backend``
  for the aliasing regression tests).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

try:  # scipy's compiled CSR kernels (private but stable since 0.x)
    from scipy.sparse import _sparsetools

    _csr_matvecs = _sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _csr_matvecs = None

__all__ = ["KernelWorkspace", "segment_max", "segment_sum", "spmm"]


def _can_use_csr_matvecs(a, x: np.ndarray, out: np.ndarray) -> bool:
    return (
        _csr_matvecs is not None
        and x.ndim == 2
        and a.dtype == x.dtype == out.dtype
        and out.flags.c_contiguous
    )


def spmm(
    a: "_sp.csr_matrix", x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ x`` for CSR ``a`` and dense 2-D ``x``.

    ``out``, when given, must be an array of the result's exact shape;
    it is fully overwritten and returned.  With a matching dtype and a
    C-contiguous ``out`` the kernel is ``csr_matvecs`` (the kernel under
    scipy's ``a @ x``) accumulating into the zeroed buffer, so reusing
    one turns a per-call allocation into a memset.  Any other
    shape/dtype combination falls back to ``a @ x``.
    """
    if out is not None and _can_use_csr_matvecs(a, x, out):
        out[...] = 0.0
        n_rows, n_cols = a.shape
        _csr_matvecs(
            n_rows, n_cols, x.shape[1],
            a.indptr, a.indices, a.data,
            np.ascontiguousarray(x).ravel(), out.ravel(),
        )
        return out
    result = a @ x
    if out is not None:
        out[...] = result
        return out
    return result


def segment_sum(
    x: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    starts: np.ndarray | None,
) -> np.ndarray:
    """Scatter-add rows into segments; ``starts`` is the row offset per
    segment when ``segment_ids`` is sorted (else ``None``)."""
    if starts is not None:
        # Sorted segment ids (the GraphBatch layout): compiled
        # reduceat — same left-to-right accumulation order as the
        # scatter-add below, so the results are bit-identical.
        return np.add.reduceat(x, starts, axis=0)
    out = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, segment_ids, x)
    return out


def segment_max(
    x: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    starts: np.ndarray | None,
) -> np.ndarray:
    """Per-segment row-wise maximum (segments must be non-empty)."""
    if starts is not None:
        return np.maximum.reduceat(x, starts, axis=0)
    out = np.full((num_segments,) + x.shape[1:], -np.inf, dtype=x.dtype)
    np.maximum.at(out, segment_ids, x)
    return out


class KernelWorkspace:
    """Named preallocated buffers for kernel outputs.

    ``buffer(slot, shape, dtype)`` returns the same array on every call
    with the same key, uninitialized — callers fully overwrite it.
    Distinct call sites use distinct slot names, so two live tensors
    never share a buffer; a slot's buffer is recycled only on the *next*
    training step, when the previous step's tensors are dead.

    Owned by :class:`repro.gnn.batch.BatchPacker` (training) and
    created per pass by :func:`repro.gnn.batch.iter_batches`
    (evaluation/serving); attached to each :class:`GraphBatch`.
    """

    __slots__ = ("_buffers", "hits", "allocations")

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.allocations = 0

    def buffer(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (slot, shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
        else:
            self.hits += 1
        return buf

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` shares memory with any workspace buffer."""
        return any(np.shares_memory(array, buf) for buf in self._buffers.values())

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()

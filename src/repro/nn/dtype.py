"""Process-wide compute-dtype control for the numpy substrate.

Every tensor, kernel buffer and optimizer slot is created in the
*compute dtype*: ``float64`` by default (the bit-exact reference the
whole test suite is written against), switchable to ``float32`` for
throughput — half the memory traffic through the sparse matmul /
segment kernels that dominate batched training.

The switch is a context manager, mirroring :func:`repro.nn.no_grad`::

    with compute_dtype(np.float32):
        model = GCNClassifier(...)          # float32 parameters
        train_gnn(model, train_set, ...)    # float32 end to end

Tolerance contract (documented in DESIGN.md §Sparse kernels): float32
training losses track the float64 reference to ~1e-4 relative over
short runs; they are *not* bit-identical, and runs that need exact
reproducibility must stay in the default float64.  Mixed-dtype inputs
are never silently truncated — ops follow numpy promotion, so a
float64 tensor entering a float32 run upcasts the op result.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "COMPUTE_DTYPES",
    "compute_dtype",
    "get_compute_dtype",
    "set_compute_dtype",
]

#: Dtypes the kernels support end to end.
COMPUTE_DTYPES = (np.float64, np.float32)

_COMPUTE_DTYPE = np.float64


def _validate(dtype) -> "np.dtype":
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(d) for d in COMPUTE_DTYPES):
        names = [np.dtype(d).name for d in COMPUTE_DTYPES]
        raise ValueError(f"compute dtype must be one of {names}, got {resolved}")
    return resolved.type


def get_compute_dtype():
    """The dtype new tensors and kernel buffers are created with."""
    return _COMPUTE_DTYPE


def set_compute_dtype(dtype) -> None:
    """Set the process-wide compute dtype (``float64`` or ``float32``)."""
    global _COMPUTE_DTYPE
    _COMPUTE_DTYPE = _validate(dtype)


@contextlib.contextmanager
def compute_dtype(dtype):
    """Temporarily switch the compute dtype (restores on exit)."""
    global _COMPUTE_DTYPE
    previous = _COMPUTE_DTYPE
    _COMPUTE_DTYPE = _validate(dtype)
    try:
        yield
    finally:
        _COMPUTE_DTYPE = previous

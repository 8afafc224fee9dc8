"""A small reverse-mode automatic-differentiation engine on numpy.

The paper jointly trains two coupled networks through a multiplicative
interaction (``Z_weighted = psi * Z``), and the baseline explainers
optimize soft masks through a frozen GCN.  A generic autograd tensor
keeps all of those expressible with one gradient implementation that is
property-tested against finite differences (see ``tests/test_autograd.py``).

Only the operations the models need are implemented; each op records a
backward closure on a tape and gradients are accumulated by a reverse
topological walk from the loss.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad"]

# Global switch consulted when building the graph.  Inside ``no_grad()``
# blocks no backward closures are recorded, which makes inference cheap.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Needed because an op like ``x + b`` with ``b`` of shape ``(1, k)``
    broadcasts ``b`` across rows; the gradient flowing back to ``b`` must
    be summed over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes numpy added on the left.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array plus the machinery to backpropagate through it.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; stored as float64.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    # Make numpy defer to Tensor.__radd__ etc. instead of elementwise-wrapping.
    __array_priority__ = 100

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = "leaf"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        # Op results keep their computed dtype (numpy promotion rules);
        # only *leaf* construction casts to the compute dtype.  Bypassing
        # __init__ also skips a redundant asarray per op on the hot path.
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = requires
        if requires:
            out._backward = backward
            out._parents = tuple(parents)
            out._op = op
        else:
            out._backward = None
            out._parents = ()
            out._op = op
        return out

    @staticmethod
    def ensure(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        detached = Tensor.__new__(Tensor)
        detached.data = self.data.copy()
        detached.requires_grad = False
        detached.grad = None
        detached._backward = None
        detached._parents = ()
        detached._op = "leaf"
        return detached

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(grad)
            if other.requires_grad:
                other._accumulate_unbroadcast(grad)

        return Tensor._from_op(data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(-grad)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(grad * self.data, other.shape))

        return Tensor._from_op(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._from_op(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate_owned(self.data.T @ grad)

        return Tensor._from_op(data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._from_op(data, (self,), backward, "reshape")

    @property
    def T(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._from_op(data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate_owned(full)

        return Tensor._from_op(data, (self,), backward, "getitem")

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._from_op(data, tensors, backward, "concat")

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate_owned(np.broadcast_to(expanded, self.shape).copy())

        return Tensor._from_op(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            maxima = data
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
                maxima = np.expand_dims(data, axis=axis)
            mask = (self.data == maxima).astype(self.data.dtype)
            # Split gradient evenly across ties so it stays a subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_owned(mask * expanded / counts)

        return Tensor._from_op(data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (self.data > 0.0))

        return Tensor._from_op(data, (self,), backward, "relu")

    def sigmoid(self) -> "Tensor":
        # Numerically stable piecewise formulation.
        out = np.empty_like(self.data)
        positive = self.data >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-self.data[positive]))
        exp_x = np.exp(self.data[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * out * (1.0 - out))

        return Tensor._from_op(out, (self,), backward, "sigmoid")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (1.0 - out**2))

        return Tensor._from_op(out, (self,), backward, "tanh")

    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * out)

        return Tensor._from_op(out, (self,), backward, "exp")

    def log(self, eps: float = 0.0) -> "Tensor":
        """Natural log; pass ``eps`` to compute ``log(x + eps)``.

        The paper's loss uses ``log(Y[C] + 1e-20)`` to dodge log(0).
        """
        shifted = self.data + eps
        out = np.log(shifted)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad / shifted)

        return Tensor._from_op(out, (self,), backward, "log")

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            # d softmax: s * (grad - sum(grad * s))
            dot = (grad * out).sum(axis=axis, keepdims=True)
            self._accumulate_owned(out * (grad - dot))

        return Tensor._from_op(out, (self,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_norm
        softmax = np.exp(out)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._from_op(out, (self,), backward, "log_softmax")

    def logsumexp(self, axis: int = 0, keepdims: bool = False, beta: float = 1.0) -> "Tensor":
        """``(1/beta) * log Σ exp(beta * x)`` along ``axis`` — smooth max.

        Numerically stabilized by shifting with the (constant) max;
        the gradient is the softmax of ``beta * x``, concentrating on
        the largest entries, which is what makes it useful as a
        concentrated-but-differentiable pooling operator.
        """
        scaled = self * beta
        shift = float(scaled.data.max()) if scaled.data.size else 0.0
        pooled = (scaled - shift).exp().sum(axis=axis, keepdims=keepdims).log()
        return (pooled + shift) * (1.0 / beta)

    # ------------------------------------------------------------------
    # backpropagation
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` (shared with the caller: always copied first)."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Add a gradient array this tensor may take ownership of.

        The hot-path variant of :meth:`_accumulate`: backward closures
        that just *computed* ``grad`` (a fresh product, matmul result,
        gather, ...) hand it over instead of paying a full copy.  The
        caller must not read or write the array afterwards.
        """
        if self.grad is None:
            if grad.dtype != self.data.dtype:
                grad = grad.astype(self.data.dtype)
            self.grad = grad
        else:
            self.grad += grad

    def _accumulate_unbroadcast(self, grad: np.ndarray) -> None:
        """Unbroadcast then accumulate, owning the result when fresh."""
        reduced = _unbroadcast(grad, self.shape)
        if reduced is grad:
            self._accumulate(reduced)
        else:
            self._accumulate_owned(reduced)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def stack_rows(rows: Iterable[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor, differentiably."""
    rows = [Tensor.ensure(r).reshape(1, -1) for r in rows]
    return Tensor.concatenate(rows, axis=0)

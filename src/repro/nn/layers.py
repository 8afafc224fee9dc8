"""Layers: dense feed-forward and graph convolution.

These are the only two layer types the paper uses.  ``GCNConv``
implements the Kipf & Welling propagation rule ``A_hat @ X @ W`` where
``A_hat`` is the symmetrically normalized adjacency with self-loops;
the normalization itself lives in :mod:`repro.gnn.normalize` because it
is a property of the graph, not the layer.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.nn.backend import KernelWorkspace
from repro.nn.init import glorot_uniform, he_normal
from repro.nn.sparse import CSRMatrix, csr_matmul, edge_spmm, gcn_layer
from repro.nn.tensor import Tensor

__all__ = ["Module", "Dense", "GCNConv", "Sequential"]

Activation = Callable[[Tensor], Tensor]

_ACTIVATIONS: dict[str, Activation] = {
    "linear": lambda x: x,
    "relu": Tensor.relu,
    "sigmoid": Tensor.sigmoid,
    "tanh": Tensor.tanh,
    "softmax": Tensor.softmax,
}


def resolve_activation(name: str) -> Activation:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None


class Module:
    """Minimal parameter container with recursive traversal."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        # vars() preserves __init__ assignment order, which is fixed per
        # class; sorting would silently renumber existing state_dicts.
        # lint: ok
        for value in vars(self).values():
            params.extend(_collect(value))
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {str(i): p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays but model has {len(params)} parameters"
            )
        for i, param in enumerate(params):
            source = state[str(i)]
            if source.shape != param.data.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: {source.shape} vs {param.data.shape}"
                )
            param.data[...] = source


def _collect(value) -> Iterable[Tensor]:
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect(item)


class Dense(Module):
    """Fully connected layer ``activation(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        if activation == "relu":
            weight = he_normal(in_features, out_features, rng)
        else:
            weight = glorot_uniform(in_features, out_features, rng)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros((1, out_features)), requires_grad=True)
        self.activation_name = activation
        self._activation = resolve_activation(activation)
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        return self._activation(x @ self.weight + self.bias)


class GCNConv(Module):
    """Graph convolution ``activation(A_hat @ X @ W + b)``.

    The caller supplies the (already normalized) propagation matrix so the
    expensive normalization is computed once per graph, not per layer:
    a constant CSR matrix (:meth:`sparse`, the batched engine) or a
    differentiable edge list (:meth:`edge_weighted`, one graph).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        self.weight = Tensor(
            glorot_uniform(in_features, out_features, rng), requires_grad=True
        )
        self.bias = Tensor(np.zeros((1, out_features)), requires_grad=True)
        self.activation_name = activation
        self._activation = resolve_activation(activation)
        self.in_features = in_features
        self.out_features = out_features

    def sparse(
        self,
        a_hat: "CSRMatrix",
        x: Tensor,
        mask: np.ndarray | None = None,
        workspace: KernelWorkspace | None = None,
        slot: str = "gcn",
    ) -> Tensor:
        """The propagation with a constant CSR matrix.

        Used by the batched engine, where ``a_hat`` is the
        block-diagonal Â of a whole mini-batch.  When the constant 0/1
        ``mask`` column is supplied and the activation is ReLU, the
        whole layer (including the masking) runs as one fused tape node
        (:func:`repro.nn.sparse.gcn_layer`) — bit-identical to the
        composed form; other activations fall back to composed ops.
        """
        if mask is not None and self.activation_name == "relu":
            return gcn_layer(
                a_hat, x, self.weight, self.bias, mask,
                workspace=workspace, slot=slot,
            )
        out = self._activation(
            csr_matmul(a_hat, x @ self.weight, workspace=workspace, slot=slot)
            + self.bias
        )
        return out if mask is None else out * mask

    def edge_weighted(
        self, rows: np.ndarray, cols: np.ndarray, weights: Tensor, x: Tensor
    ) -> Tensor:
        """The propagation with Â given as a differentiable edge list.

        ``weights[e]`` is the entry of Â at ``(rows[e], cols[e])`` over
        the rows of ``x``; gradients reach the weights as well as ``x``
        (:func:`repro.nn.sparse.edge_spmm`).
        """
        x = Tensor.ensure(x)
        support = x @ self.weight
        return self._activation(
            edge_spmm(rows, cols, weights, support, x.shape[0]) + self.bias
        )


class Sequential(Module):
    """Chain of single-input modules applied in order."""

    def __init__(self, *layers):
        self.layers = list(layers)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

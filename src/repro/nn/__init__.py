"""From-scratch neural-network substrate on numpy.

Everything the paper's models need — a reverse-mode autograd tensor,
dense and graph-convolution layers, Adam/SGD optimizers, and the loss
functions used by the GNN classifier and CFGExplainer — implemented
without any deep-learning framework.
"""

from repro.nn.backend import KernelWorkspace
from repro.nn.guards import (
    NumericalError,
    assert_finite,
    assert_finite_array,
    clip_grad_norm,
    grad_norm,
)
from repro.nn.init import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Dense, GCNConv, Module, Sequential
from repro.nn.losses import (
    binary_cross_entropy,
    cross_entropy,
    cross_entropy_batch,
    nll_loss,
    nll_loss_from_probs,
)
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.serialize import load_module_into, save_module
from repro.nn.sparse import (
    CSRMatrix,
    csr_matmul,
    edge_spmm,
    gcn_layer,
    segment_max,
    segment_starts,
    segment_sum,
)
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "KernelWorkspace",
    "NumericalError",
    "assert_finite",
    "assert_finite_array",
    "clip_grad_norm",
    "grad_norm",
    "Tensor",
    "no_grad",
    "CSRMatrix",
    "csr_matmul",
    "edge_spmm",
    "gcn_layer",
    "segment_starts",
    "segment_sum",
    "segment_max",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "Dense",
    "GCNConv",
    "Module",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "nll_loss",
    "nll_loss_from_probs",
    "cross_entropy",
    "cross_entropy_batch",
    "binary_cross_entropy",
    "save_module",
    "load_module_into",
]

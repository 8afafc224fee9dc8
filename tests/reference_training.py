"""The padded dense per-graph reference: the oracle the sparse engines match.

The classifier runs on CSR matrices (the batched engine) and on edge
lists (``GCNClassifier.embed``, the single-graph forward).  This module
keeps the dense body they replaced, verbatim in arithmetic, as the one
reference the tests, ``repro-check`` and ``benchmarks/`` compare them
against:

* :func:`dense_a_hat` — the dense ``[N, N]`` normalized adjacency Â,
  the oracle for ``repro.gnn.normalize``;
* :func:`normalized_adjacency_csr` — the same Â built through scipy's
  sparse constructors for any active-node mask, the bitwise oracle for
  ``AHatCache.get_csr``;
* :func:`dense_embed_a_hat` — Φ_e as ``relu(Â @ (X @ W) + b)`` per
  layer, with inactive rows masked to zero after every layer; Â may be
  a differentiable :class:`~repro.nn.Tensor`;
* :func:`dense_embed` / :func:`dense_forward` /
  :func:`dense_predict_proba` / :func:`dense_predict` — one padded
  graph through it, with the model's CSR Â filled dense
  (:func:`graph_a_hat`);
* :func:`scatter2d` — per-edge values scattered into an ``[N, N]``
  matrix, differentiably (PGExplainer's dense masked Â);
* :func:`train_per_graph` — ``train_gnn``'s schedule, one dense forward
  per graph: the same permutation per epoch, the same per-batch mean
  cross-entropy and the same Adam steps.  The two must trace the same
  losses (``test_kernel_backend``, ``test_graph_batch``) and
  ``benchmarks/test_bench_batching.py`` times one against the other.
  It has no numerical guards or loss-spike recovery: on a finite run
  those never change a number.
"""

import numpy as np
from scipy import sparse

from repro.nn import Adam, Tensor, cross_entropy, no_grad


def dense_a_hat(adjacency, active_mask=None):
    """Symmetrically normalized adjacency with masked self-loops.

    ``adjacency`` is the weighted ``A ∈ {0,1,2}^{N×N}`` (call edges weigh
    2); ``False`` rows of ``active_mask`` (default all-active) get no
    self-loop.
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
    symmetric = np.maximum(adjacency, adjacency.T)
    with_loops = symmetric + np.diag(active.astype(np.float64))
    degree = with_loops.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def normalized_adjacency_csr(adjacency, active_mask=None):
    """:func:`dense_a_hat` in CSR form, through scipy's constructors.

    The dense input is scanned once for its nonzeros; symmetrization,
    self-loops and the degree run on the sparse structure, and entries
    are scaled in the dense form's ``(w * r) * c`` order.
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
    matrix = sparse.csr_matrix(
        (adjacency[rows, cols], (rows, cols)), shape=(n, n), dtype=np.float64
    )
    symmetric = matrix.maximum(matrix.T.tocsr()).tocsr()
    with_loops = (
        symmetric + sparse.diags(active.astype(np.float64), format="csr")
    ).tocsr()

    degree = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    with_loops.data *= np.repeat(inv_sqrt, np.diff(with_loops.indptr))
    with_loops.data *= inv_sqrt[with_loops.indices]
    return with_loops


def scatter2d(values, shape, rows, cols):
    """Place the 1-D tensor ``values`` at ``(rows[i], cols[i])`` of a zero
    matrix of ``shape``; positions must be unique.  Differentiable."""
    flat = values.data.reshape(-1)
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if flat.size != rows.size or rows.size != cols.size:
        raise ValueError("values, rows and cols must have equal length")
    data = np.zeros(shape, dtype=values.data.dtype)
    data[rows, cols] = flat

    def backward(grad):
        values._accumulate_owned(grad[rows, cols].reshape(values.data.shape))

    return Tensor._from_op(data, (values,), backward, "scatter2d")


def dense_embed_a_hat(model, a_hat, features, active_mask):
    """Φ_e over all ``N`` rows given a dense (possibly differentiable) Â."""
    n = int(a_hat.shape[0])
    mask = Tensor(np.asarray(active_mask, dtype=np.float64).reshape(n, 1))
    a_hat, z = Tensor.ensure(a_hat), Tensor.ensure(features)
    for conv in model.convs:
        z = (a_hat @ (z @ conv.weight) + conv.bias).relu() * mask
    return z


def dense_embed(model, adjacency, features, active_mask):
    """Padded node embeddings ``[N, f]``, inactive rows zero.

    Â is :func:`normalized_adjacency_csr` filled dense, as the replaced
    engine filled it.
    """
    a_hat = normalized_adjacency_csr(adjacency, active_mask).toarray()
    return dense_embed_a_hat(model, a_hat, features, active_mask)


def graph_a_hat(model, graph):
    """``graph``'s dense Â (the model's cached CSR Â, keyed by the graph)."""
    key = graph.content_key()
    return model.a_hat_cache.get_csr(graph.adjacency, graph.n_real, key=key).toarray()


def dense_forward(model, graph, a_hat=None):
    """(Z ``[N, f]``, probabilities ``[C]``) for one padded ACFG.

    ``a_hat`` is the graph's :func:`graph_a_hat`, if the caller keeps it.
    """
    a_hat = graph_a_hat(model, graph) if a_hat is None else a_hat
    active = np.arange(graph.n) < graph.n_real
    z = dense_embed_a_hat(model, a_hat, graph.features, active)
    return z, model.classify(z)


def dense_predict_proba(model, graph):
    with no_grad():
        return dense_forward(model, graph)[1].numpy().copy()


def dense_predict(model, graph):
    return int(np.argmax(dense_predict_proba(model, graph)))


def train_per_graph(
    model, train_set, epochs=30, batch_size=16, lr=0.005, seed=0
) -> list[float]:
    """Train ``model`` in place; returns each epoch's mean loss."""
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    a_hats = {}  # each graph's dense Â, filled once as the replaced engine did
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            indices = order[start : start + batch_size]
            optimizer.zero_grad()
            batch_loss = None
            for index in indices:
                graph = train_set[int(index)]
                if index not in a_hats:
                    a_hats[index] = graph_a_hat(model, graph)
                z, _ = dense_forward(model, graph, a_hats[index])
                loss = cross_entropy(model.logits(z), graph.label)
                batch_loss = loss if batch_loss is None else batch_loss + loss
            batch_loss = batch_loss * (1.0 / len(indices))
            batch_loss.backward()
            optimizer.step()
            epoch_loss += batch_loss.item() * len(indices)
        losses.append(epoch_loss / len(order))
    return losses

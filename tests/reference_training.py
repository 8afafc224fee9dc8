"""The per-graph training loop: the oracle batched training must reproduce.

:func:`repro.gnn.train_gnn` packs each mini-batch into one
block-diagonal sparse pass.  This loop runs the same schedule one dense
``forward_acfg`` per graph: the same permutation per epoch, the same
per-batch mean cross-entropy and the same Adam steps.  The two must
trace the same losses (``test_kernel_backend``, ``test_graph_batch``)
and ``benchmarks/test_bench_batching.py`` times one against the other.

It has no numerical guards or loss-spike recovery: on a finite run
those never change a number.
"""

import numpy as np

from repro.nn import Adam, cross_entropy


def train_per_graph(
    model, train_set, epochs=30, batch_size=16, lr=0.005, seed=0
) -> list[float]:
    """Train ``model`` in place; returns each epoch's mean loss."""
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
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
                z, _ = model.forward_acfg(graph)
                loss = cross_entropy(model.logits(z), graph.label)
                batch_loss = loss if batch_loss is None else batch_loss + loss
            batch_loss = batch_loss * (1.0 / len(indices))
            batch_loss.backward()
            optimizer.step()
            epoch_loss += batch_loss.item() * len(indices)
        losses.append(epoch_loss / len(order))
    return losses

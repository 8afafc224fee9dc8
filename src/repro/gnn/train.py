"""Training loop for the GCN classifier.

Every mini-batch is packed into a block-diagonal
:class:`~repro.gnn.batch.GraphBatch` and runs **one** forward/backward
pass: a block-diagonal Â applied to stacked features is per-graph GCN
propagation, and the batched cross-entropy is the mean of the
per-graph terms.  The test suite keeps the one-dense-pass-per-graph
loop as the oracle this schedule must reproduce.

Numerical guards (``repro.nn.guards``) watch every step: a NaN/Inf
loss or gradient raises a typed :class:`~repro.nn.NumericalError` at
the step that produced it instead of silently poisoning the weights;
``max_grad_norm`` adds global-norm gradient clipping; and loss-spike
recovery (``loss_spike_factor`` / non-finite losses) rolls the model
and optimizer back to the last good epoch snapshot and backs off the
learning rate rather than killing the run — the input domain is
hostile, and one degenerate batch should degrade a run, not end it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acfg.dataset import ACFGDataset
from repro.gnn.batch import BatchPacker, GraphBatch
from repro.gnn.model import GCNClassifier
from repro.nn import (
    Adam,
    NumericalError,
    clip_grad_norm,
    cross_entropy_batch,
    grad_norm,
)
from repro.obs import add_counter, span as obs_span

__all__ = ["TrainingHistory", "train_gnn", "evaluate_accuracy"]

@dataclass
class TrainingHistory:
    """Per-epoch loss and (optional) held-out accuracy.

    ``recovered_epochs`` lists the (0-based) epoch indices abandoned by
    loss-spike recovery: their loss is not appended, the model was
    rolled back to the previous good snapshot, and the learning rate
    was backed off before the next epoch.
    """

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    recovered_epochs: list[int] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_gnn(
    model: GCNClassifier,
    train_set: ACFGDataset,
    epochs: int = 30,
    batch_size: int = 16,
    lr: float = 0.005,
    seed: int = 0,
    eval_set: ACFGDataset | None = None,
    verbose: bool = False,
    guard: bool = True,
    max_grad_norm: float | None = None,
    loss_spike_factor: float | None = None,
    max_recoveries: int = 3,
    lr_backoff: float = 0.5,
) -> TrainingHistory:
    """Mini-batch Adam training with cross-entropy on true labels.

    Guard semantics:

    * ``guard`` (default on) checks every step's loss and gradient norm
      for NaN/Inf.  The checks never change a finite run's numbers.
    * ``max_grad_norm`` clips gradients to that global L2 norm.
    * A non-finite step — or, with ``loss_spike_factor`` set, an epoch
      whose mean loss exceeds ``loss_spike_factor`` times the last good
      epoch's — triggers recovery: restore the last good epoch's model
      and optimizer state, multiply the learning rate by ``lr_backoff``,
      and move on.  After ``max_recoveries`` recoveries the next trigger
      re-raises :class:`~repro.nn.NumericalError`.
    """
    if epochs <= 0 or batch_size <= 0:
        raise ValueError("epochs and batch_size must be positive")
    if loss_spike_factor is not None and loss_spike_factor <= 1.0:
        raise ValueError("loss_spike_factor must be > 1 (relative spike)")
    if lr_backoff <= 0 or lr_backoff >= 1:
        raise ValueError("lr_backoff must be in (0, 1)")
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    history = TrainingHistory()
    packer = BatchPacker(train_set, a_hat_cache=model.a_hat_cache)

    # Last epoch snapshot known to be numerically healthy; epoch -1 is
    # the freshly initialized model, so recovery is possible even when
    # the very first epoch diverges.
    good_state = optimizer.state_dict() if guard else None
    good_loss: float | None = None
    recoveries = 0

    def recover(epoch: int, error: NumericalError | None) -> None:
        nonlocal recoveries
        if good_state is None:  # guards disabled: nothing to roll back to
            raise error or NumericalError("loss", f"epoch {epoch}: loss spike")
        recoveries += 1
        if recoveries > max_recoveries:
            raise error or NumericalError(
                "loss", f"epoch {epoch}: recovery budget exhausted"
            )
        optimizer.load_state_dict(good_state)
        optimizer.lr *= lr_backoff
        history.recovered_epochs.append(epoch)
        add_counter("train.recoveries")
        if verbose:
            reason = error.where if error is not None else "loss spike"
            print(
                f"epoch {epoch + 1:3d}  RECOVERED ({reason}); "
                f"lr backed off to {optimizer.lr:.2e}"
            )

    with obs_span("train.gnn.batched") as train_span:
        for epoch in range(epochs):
            order = rng.permutation(len(train_set))
            epoch_loss = 0.0
            try:
                with obs_span("train.epoch") as epoch_span:
                    for batch in packer.batches(batch_size, order=order):
                        epoch_loss += _batched_step(
                            model, optimizer, batch, guard, max_grad_norm
                        )
                    epoch_span.add("train.graphs", len(order))
            except NumericalError as error:
                recover(epoch, error)
                continue
            mean_loss = epoch_loss / len(order)
            if (
                guard
                and loss_spike_factor is not None
                and good_loss is not None
                and mean_loss > loss_spike_factor * good_loss
            ):
                recover(epoch, None)
                continue
            if guard:
                good_state = optimizer.state_dict()
                good_loss = mean_loss
            history.losses.append(mean_loss)
            if eval_set is not None:
                history.accuracies.append(evaluate_accuracy(model, eval_set))
            if verbose:
                acc = f" acc={history.accuracies[-1]:.3f}" if eval_set else ""
                print(f"epoch {epoch + 1:3d}  loss={history.losses[-1]:.4f}{acc}")
        train_span.add("train.epochs", epochs)
    return history


def _guarded_update(
    optimizer: Adam, guard: bool, max_grad_norm: float | None
) -> None:
    """Clip / validate gradients, then apply the optimizer step."""
    if max_grad_norm is not None:
        clip_grad_norm(optimizer.parameters, max_grad_norm)
    elif guard:
        norm = grad_norm(optimizer.parameters)
        if not np.isfinite(norm):
            raise NumericalError("gradient", f"gradient norm is {norm!r}")
    optimizer.step()


def _batched_step(
    model: GCNClassifier,
    optimizer: Adam,
    batch: GraphBatch,
    guard: bool = True,
    max_grad_norm: float | None = None,
) -> float:
    """One forward/backward over a packed batch; returns summed loss."""
    optimizer.zero_grad()
    _, logits = model.forward_batch(batch)
    loss = cross_entropy_batch(logits, batch.labels)
    value = loss.item()
    if guard and not np.isfinite(value):
        raise NumericalError("loss", f"batched step produced {value!r}")
    loss.backward()
    _guarded_update(optimizer, guard, max_grad_norm)
    return value * batch.num_graphs


def evaluate_accuracy(
    model: GCNClassifier, dataset: ACFGDataset, batch_size: int = 64
) -> float:
    """Fraction of graphs whose argmax prediction matches the label.

    Evaluates the whole split in a handful of batched passes instead of
    one dense forward per graph.
    """
    with obs_span("eval.accuracy") as eval_span:
        predictions = model.predict_batch(list(dataset), batch_size=batch_size)
        labels = np.array([g.label for g in dataset], dtype=int)
        eval_span.add("eval.graphs", len(labels))
        return float((predictions == labels).mean())

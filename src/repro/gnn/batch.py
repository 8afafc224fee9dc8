"""Block-diagonal mini-batch packing for ACFGs.

``GraphBatch`` packs many graphs into one disconnected super-graph:

* ``a_hat`` — the per-graph normalized adjacencies Â stacked into one
  block-diagonal CSR matrix.  Messages cannot cross blocks, so one
  sparse matmul over the batch equals per-graph dense matmuls exactly.
* ``features`` — node features stacked row-wise, ``[total_nodes, d]``,
  as float64.
* ``segment_ids`` — the graph index of every stacked row, which turns
  per-graph max pooling into a segment reduction
  (:func:`repro.nn.segment_max`).
* ``workspace`` — an optional :class:`~repro.nn.backend.KernelWorkspace`
  the batched forward/backward kernels write their large intermediates
  into, so repeated steps reuse buffers instead of reallocating.

Padded rows are packed along with real ones (zero features, no edges,
``active_mask`` False) so the batched path reproduces the per-graph
mask and pooling semantics bit-for-bit.

:func:`iter_perturbation_batches` packs many node-masked copies of
*one* graph instead — the perturbations SubgraphX and the subgraph
metrics score.  It packs only the real rows of each copy (padding is
inert: its all-zero embeddings never change a maximum).

Every Â here is derived in O(E) from the graph's memoized edge list
(:meth:`repro.acfg.graph.ACFG.self_looped_edges`), so a graph's dense
adjacency is scanned once however often it is packed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.acfg.graph import ACFG
from repro.gnn.normalize import block_normalized_csr, masked_normalized_csr
from repro.nn.backend import KernelWorkspace
from repro.nn.sparse import CSRMatrix

__all__ = [
    "PERTURBATION_ROW_BUDGET",
    "BatchPacker",
    "GraphBatch",
    "iter_batches",
    "iter_perturbation_batches",
]

#: Most stacked rows one perturbation batch holds.  It bounds the peak
#: memory of scoring hundreds of subgraphs of one graph: the kernel
#: intermediates grow with the rows packed at once.  Scoring every
#: perturbation of a ~300-node graph in one batch raised the audit
#: benchmark's peak RSS (2-core x86-64 Linux) from 280 MB to
#: 331-343 MB; with this budget it stays at 280 MB.
PERTURBATION_ROW_BUDGET = 8192


@dataclass(frozen=True)
class GraphBatch:
    """Many ACFGs packed for one forward/backward pass."""

    a_hat: CSRMatrix  # [total, total] block-diagonal normalized adjacency
    features: np.ndarray  # [total, d] stacked node features
    segment_ids: np.ndarray  # [total] graph index per stacked row
    active_mask: np.ndarray  # [total] bool, False on padding rows
    labels: np.ndarray  # [B] ground-truth class per graph
    offsets: np.ndarray  # [B + 1] row ranges: graph i owns offsets[i]:offsets[i+1]
    graphs: tuple[ACFG, ...]  # the packed graphs, in batch order
    workspace: KernelWorkspace | None = field(default=None, compare=False)

    @property
    def num_graphs(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_nodes(self) -> int:
        return int(self.offsets[-1])

    @property
    def mask_column(self) -> np.ndarray:
        """``active_mask`` as a ``[total, 1]`` 0/1 float column — the
        constant the fused GCN layers multiply by."""
        return self.active_mask.astype(np.float64).reshape(-1, 1)

    def rows_of(self, index: int) -> slice:
        """Row range of graph ``index`` inside the stacked arrays."""
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[ACFG],
        workspace: KernelWorkspace | None = None,
    ) -> "GraphBatch":
        """Pack ``graphs`` (any mix of sizes) into one batch.

        The block-diagonal Â is assembled from each graph's memoized
        edge list in one pass (:func:`block_normalized_csr`), so
        re-packing the same graphs across epochs never rescans their
        dense adjacency.
        """
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        for graph in graphs:
            if graph.n == 0:
                raise ValueError(f"graph {graph.name!r} has no nodes")
        sizes = np.array([g.n for g in graphs], dtype=np.intp)
        offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            a_hat=CSRMatrix(block_normalized_csr(graphs)),
            features=np.vstack([np.asarray(g.features, dtype=np.float64) for g in graphs]),
            segment_ids=np.repeat(np.arange(len(graphs), dtype=np.intp), sizes),
            active_mask=np.concatenate([np.arange(g.n) < g.n_real for g in graphs]),
            labels=np.array([g.label for g in graphs], dtype=np.intp),
            offsets=offsets,
            graphs=tuple(graphs),
            workspace=workspace,
        )


class BatchPacker:
    """Repeated batching of one graph list over a shared workspace.

    It owns the :class:`~repro.nn.backend.KernelWorkspace` every batch
    it yields shares, so all epochs of a training loop reuse one set of
    kernel buffers; each graph's edge list is memoized on the graph, so
    an epoch's packing only normalizes and stacks.
    """

    def __init__(self, graphs: "Iterable[ACFG]"):
        self.graphs = list(graphs)
        self.workspace = KernelWorkspace()

    def __len__(self) -> int:
        return len(self.graphs)

    def batches(
        self, batch_size: int, order: np.ndarray | None = None
    ) -> Iterator[GraphBatch]:
        """Yield batches of ``batch_size`` graphs in ``order``.

        ``order`` (a permutation of indices) controls the traversal, so
        a training loop can shuffle per epoch while evaluation keeps the
        natural order.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        indices = (
            np.arange(len(self.graphs)) if order is None else np.asarray(order)
        )
        for start in range(0, len(indices), batch_size):
            chunk = indices[start : start + batch_size]
            yield GraphBatch.from_graphs(
                [self.graphs[int(i)] for i in chunk], self.workspace
            )


def iter_batches(
    graphs: "Iterable[ACFG]",
    batch_size: int,
    order: np.ndarray | None = None,
) -> Iterator[GraphBatch]:
    """Yield :class:`GraphBatch` chunks of ``batch_size`` graphs in
    ``order``, all sharing one workspace for the duration of the pass."""
    return BatchPacker(graphs).batches(batch_size, order)


def iter_perturbation_batches(
    graph: ACFG, kept_sets: Sequence[np.ndarray]
) -> Iterator[GraphBatch]:
    """:class:`GraphBatch` chunks of node-masked copies of ``graph``.

    Copy *k* keeps the nodes ``kept_sets[k]`` (indices into the padded
    graph; padding and duplicate indices are harmless) and removes the
    rest as :meth:`ACFG.subgraph_adjacency` / :meth:`ACFG.masked_features`
    do.  Each copy contributes its real rows only; chunks hold at most
    :data:`PERTURBATION_ROW_BUDGET` rows (and at least one copy).
    """
    if graph.n == 0:
        raise ValueError(f"graph {graph.name!r} has no nodes")
    width = max(graph.n_real, 1)  # an all-padding graph still pools one row
    edges = graph.self_looped_edges()
    features = np.asarray(graph.features[:width], dtype=np.float64)
    per_chunk = max(1, PERTURBATION_ROW_BUDGET // width)
    for start in range(0, len(kept_sets), per_chunk):
        chunk = kept_sets[start : start + per_chunk]
        count = len(chunk)
        keep = np.zeros((count, graph.n), dtype=bool)
        for row, kept in zip(keep, chunk):
            row[np.asarray(kept, dtype=int)] = True
        keep = keep[:, :width]
        keep[:, graph.n_real :] = False
        yield GraphBatch(
            a_hat=CSRMatrix(masked_normalized_csr(edges, keep)),
            features=(features[None, :, :] * keep[:, :, None]).reshape(
                count * width, -1
            ),
            segment_ids=np.repeat(np.arange(count, dtype=np.intp), width),
            active_mask=keep.reshape(-1),
            labels=np.full(count, graph.label, dtype=np.intp),
            offsets=np.arange(count + 1, dtype=np.intp) * width,
            graphs=(graph,) * count,
        )

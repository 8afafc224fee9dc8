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
inert: its all-zero embeddings never change a maximum) and derives
every copy's Â from the graph's edge list rather than through an
:class:`AHatCache`, whose entries would never be reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.acfg.graph import ACFG
from repro.gnn.cache import AHatCache
from repro.gnn.normalize import masked_normalized_csr, normalized_csr, self_looped_edges
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


def _graph_block(
    graph: ACFG, a_hat_cache: AHatCache | None
) -> tuple[CSRMatrix, np.ndarray]:
    """One graph's CSR Â block and active-node mask."""
    if graph.n == 0:
        raise ValueError(f"graph {graph.name!r} has no nodes")
    mask = np.arange(graph.n) < graph.n_real
    if a_hat_cache is not None:
        key = graph.content_key() if isinstance(graph, ACFG) else None
        return a_hat_cache.get_csr(graph.adjacency, graph.n_real, key=key), mask
    return CSRMatrix(normalized_csr(graph.adjacency, graph.n_real)), mask


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
        a_hat_cache: AHatCache | None = None,
        workspace: KernelWorkspace | None = None,
    ) -> "GraphBatch":
        """Pack ``graphs`` (any mix of sizes) into one batch.

        ``a_hat_cache`` memoizes each graph's Â (and its CSR block), so
        re-packing the same graphs across epochs only pays for the
        block-diagonal assembly.
        """
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        pairs = [_graph_block(graph, a_hat_cache) for graph in graphs]
        features = [np.asarray(g.features, dtype=np.float64) for g in graphs]
        return cls._assemble(
            tuple(graphs),
            [b for b, _ in pairs],
            [m for _, m in pairs],
            features,
            workspace,
        )

    @classmethod
    def _assemble(
        cls,
        graphs: tuple[ACFG, ...],
        blocks: list[CSRMatrix],
        masks: list[np.ndarray],
        features: list[np.ndarray],
        workspace: KernelWorkspace | None = None,
    ) -> "GraphBatch":
        sizes = np.array([g.n for g in graphs], dtype=np.intp)
        offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            a_hat=CSRMatrix.block_diagonal(blocks),
            features=np.vstack(features),
            segment_ids=np.repeat(np.arange(len(graphs), dtype=np.intp), sizes),
            active_mask=np.concatenate(masks),
            labels=np.array([g.label for g in graphs], dtype=np.intp),
            offsets=offsets,
            graphs=tuple(graphs),
            workspace=workspace,
        )


class BatchPacker:
    """Precomputed per-graph blocks for repeated epoch iteration.

    ``GraphBatch.from_graphs`` pays a content-hash lookup (or a fresh
    normalization) per graph per batch, which a multi-epoch training
    loop repeats every epoch.  The packer resolves each graph's CSR Â,
    mask and float features exactly once at construction; per-epoch
    batch assembly is then only block-diagonal stacking.  It also owns
    the :class:`~repro.nn.backend.KernelWorkspace` every batch it
    yields shares, so all epochs reuse one set of kernel buffers.  Use
    it when the same graph list is batched many times (training);
    one-shot passes (evaluation, cache population) can keep
    :func:`iter_batches`.
    """

    def __init__(
        self, graphs: "Iterable[ACFG]", a_hat_cache: AHatCache | None = None
    ):
        self.graphs = list(graphs)
        pairs = [_graph_block(graph, a_hat_cache) for graph in self.graphs]
        self._blocks = [block for block, _ in pairs]
        self._masks = [mask for _, mask in pairs]
        self._features = [
            np.asarray(g.features, dtype=np.float64) for g in self.graphs
        ]
        self.workspace = KernelWorkspace()

    def __len__(self) -> int:
        return len(self.graphs)

    def batches(
        self, batch_size: int, order: np.ndarray | None = None
    ) -> Iterator[GraphBatch]:
        """Yield batches of ``batch_size`` graphs in ``order``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        indices = (
            np.arange(len(self.graphs)) if order is None else np.asarray(order)
        )
        for start in range(0, len(indices), batch_size):
            chunk = [int(i) for i in indices[start : start + batch_size]]
            yield GraphBatch._assemble(
                tuple(self.graphs[i] for i in chunk),
                [self._blocks[i] for i in chunk],
                [self._masks[i] for i in chunk],
                [self._features[i] for i in chunk],
                self.workspace,
            )


def iter_batches(
    graphs: "Iterable[ACFG]",
    batch_size: int,
    order: np.ndarray | None = None,
    a_hat_cache: AHatCache | None = None,
) -> Iterator[GraphBatch]:
    """Yield :class:`GraphBatch` chunks of ``batch_size`` graphs.

    ``order`` (a permutation of indices) controls the traversal, so a
    training loop can shuffle per epoch while evaluation keeps the
    natural order.  All yielded batches share one
    :class:`~repro.nn.backend.KernelWorkspace` for the duration of the
    pass.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    graphs = list(graphs)
    workspace = KernelWorkspace()
    indices = np.arange(len(graphs)) if order is None else np.asarray(order)
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        yield GraphBatch.from_graphs(
            [graphs[int(i)] for i in chunk],
            a_hat_cache=a_hat_cache,
            workspace=workspace,
        )


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
    edges = self_looped_edges(graph.adjacency, graph.n_real)
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

"""A content-keyed cache of the frozen GNN's per-graph forward results.

Every explainer would otherwise re-run the frozen Φ over the training
and test graphs to get embeddings Z and the predicted class.
:class:`EmbeddingCache` computes them once — in batched passes — and
hands them to CFGExplainer training (Algorithm 1) and PGExplainer.

Its entries depend on the model's weights, so the cache belongs to one
model; its keys are the graphs' content digests
(:meth:`repro.acfg.graph.ACFG.embed_key`, memoized on the graph), not
object identities.  The normalized adjacency Â needs no cache: it is
derived in O(E) from the edge list each graph memoizes
(:mod:`repro.gnn.normalize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.obs import add_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.acfg.dataset import ACFGDataset
    from repro.acfg.graph import ACFG
    from repro.gnn.model import GCNClassifier

__all__ = ["CacheInfo", "CachedForward", "EmbeddingCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters, mirroring ``functools.lru_cache.cache_info``."""

    hits: int
    misses: int
    size: int
    maxsize: int


@dataclass(frozen=True)
class CachedForward:
    """Frozen-GNN outputs for one graph: embeddings and classification."""

    z: np.ndarray  # [N, f] node embeddings (padded rows zero)
    probs: np.ndarray  # [C] class probabilities
    predicted_class: int


class EmbeddingCache:
    """Shared store of frozen-GNN forward results, filled in batches.

    The pipeline populates it right after classifier training; explainer
    training (:func:`repro.core.training.precompute_embeddings`) and
    PGExplainer then reuse Z / the predicted class instead of re-running
    Φ per consumer.
    """

    def __init__(self, model: "GCNClassifier"):
        self.model = model
        self.hits = 0
        self.misses = 0
        self._entries: dict[bytes, CachedForward] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _compute(self, graphs: list[ACFG], batch_size: int) -> Iterator[tuple[ACFG, CachedForward]]:
        """Frozen-GNN forward results for ``graphs``, in batched passes."""
        from repro.gnn.batch import iter_batches
        from repro.nn import no_grad

        def entry(z: np.ndarray, probs: np.ndarray) -> CachedForward:
            return CachedForward(z.copy(), probs.copy(), int(np.argmax(probs)))

        for batch in iter_batches(graphs, batch_size):
            with no_grad():
                z = self.model.embed_batch(batch)
                probs = self.model.logits_batch(z, batch).softmax(axis=-1).numpy()
            for i, graph in enumerate(batch.graphs):
                yield graph, entry(z.numpy()[batch.offsets[i] : batch.offsets[i + 1]], probs[i])

    def populate(self, dataset: "ACFGDataset | list[ACFG]", batch_size: int = 32) -> None:
        """Run batched forward passes over every graph not yet cached."""
        pending = [g for g in dataset if g.embed_key() not in self._entries]
        for graph, entry in self._compute(pending, batch_size):
            self._entries[graph.embed_key()] = entry

    def compute(self, graph: "ACFG") -> CachedForward:
        """What :meth:`populate` would store for ``graph``, without storing it
        (a served request would otherwise grow the cache by one entry)."""
        ((_, entry),) = self._compute([graph], batch_size=1)
        return entry

    def lookup(self, graph: "ACFG") -> CachedForward | None:
        entry = self._entries.get(graph.embed_key())
        if entry is None:
            self.misses += 1
            add_counter("cache.embedding.misses")
        else:
            self.hits += 1
            add_counter("cache.embedding.hits")
        return entry

    def forward(self, graph: "ACFG") -> CachedForward:
        """Cached forward results, computing (and storing) on a miss."""
        entry = self.lookup(graph)
        if entry is None:
            entry = self._entries[graph.embed_key()] = self.compute(graph)
        return entry

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self._entries), -1)

    def clear(self) -> None:
        """Drop every cached forward (e.g. after the GNN's weights change)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

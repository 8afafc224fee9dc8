"""Content-keyed caches for per-graph artifacts of the frozen GNN.

Two cost centers dominated the seed pipeline's redundant work:

* Â was rebuilt on *every* ``predict`` call and every batch packing,
  even though the evaluation classifies the same graphs over and over
  and training packs them every epoch.  :class:`AHatCache` memoizes
  the CSR Â the batched engine consumes behind a content key.
* Every explainer independently re-ran the frozen Φ over the training
  and test graphs to get embeddings Z and the predicted class.
  :class:`EmbeddingCache` computes them once — in batched passes — and
  hands them to CFGExplainer training (Algorithm 1) and PGExplainer.

Keys are content hashes (array bytes), not object identities, so a
caller that mutates an array in place never gets a stale entry.  Callers
that hold an :class:`~repro.acfg.graph.ACFG` skip even the O(N²) hash:
the graph memoizes its own digests (``ACFG.content_key`` /
``ACFG.embed_key``), so each graph is hashed once process-wide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.acfg.graph import content_digest as _digest
from repro.gnn.normalize import normalized_csr
from repro.nn.sparse import CSRMatrix
from repro.obs import add_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.acfg.dataset import ACFGDataset
    from repro.acfg.graph import ACFG
    from repro.gnn.model import GCNClassifier

__all__ = ["AHatCache", "CacheInfo", "CachedForward", "EmbeddingCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters, mirroring ``functools.lru_cache.cache_info``."""

    hits: int
    misses: int
    size: int
    maxsize: int


class AHatCache:
    """LRU cache of CSR normalized adjacencies keyed by graph content.

    ``get_csr`` returns the Â the batched engine packs into
    block-diagonal matrices.  Returned matrices are shared — treat them
    as read-only.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, CSRMatrix] = OrderedDict()

    def get_csr(
        self,
        adjacency: np.ndarray,
        n_real: int | None = None,
        key: bytes | None = None,
    ) -> CSRMatrix:
        """Â in CSR form (:func:`repro.gnn.normalize.normalized_csr`),
        computed at most once per content key.

        ``n_real`` (default: every node) counts the real nodes, which
        lead the padding.  ``key`` short-circuits the content hash when
        the caller already holds the digest (``ACFG.content_key()``); it
        must equal what :func:`repro.acfg.graph.content_digest` yields
        for ``(adjacency, mask)``, the mask marking the real nodes —
        graph-keyed and array-keyed callers then share cache entries.
        """
        adjacency = np.asarray(adjacency, dtype=np.float64)
        n_real = adjacency.shape[0] if n_real is None else n_real
        if key is None:
            key = _digest(adjacency, np.arange(adjacency.shape[0]) < n_real)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            add_counter("cache.a_hat.hits")
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        add_counter("cache.a_hat.misses")
        entry = self._entries[key] = CSRMatrix(normalized_csr(adjacency, n_real))
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


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

    @staticmethod
    def _key(graph: "ACFG") -> bytes:
        if hasattr(graph, "embed_key"):
            return graph.embed_key()
        return _digest(
            graph.adjacency, graph.features, np.asarray([graph.n_real])
        )

    def __len__(self) -> int:
        return len(self._entries)

    def _compute(self, graphs: list[ACFG], batch_size: int) -> Iterator[tuple[ACFG, CachedForward]]:
        """Frozen-GNN forward results for ``graphs``, in batched passes."""
        from repro.gnn.batch import iter_batches
        from repro.nn import no_grad

        def entry(z: np.ndarray, probs: np.ndarray) -> CachedForward:
            return CachedForward(z.copy(), probs.copy(), int(np.argmax(probs)))

        for batch in iter_batches(graphs, batch_size, a_hat_cache=self.model.a_hat_cache):
            with no_grad():
                z = self.model.embed_batch(batch)
                probs = self.model.logits_batch(z, batch).softmax(axis=-1).numpy()
            for i, graph in enumerate(batch.graphs):
                yield graph, entry(z.numpy()[batch.offsets[i] : batch.offsets[i + 1]], probs[i])

    def populate(self, dataset: "ACFGDataset | list[ACFG]", batch_size: int = 32) -> None:
        """Run batched forward passes over every graph not yet cached."""
        pending = [g for g in dataset if self._key(g) not in self._entries]
        for graph, entry in self._compute(pending, batch_size):
            self._entries[self._key(graph)] = entry

    def compute(self, graph: "ACFG") -> CachedForward:
        """What :meth:`populate` would store for ``graph``, without storing it
        (a served request would otherwise grow the cache by one entry)."""
        ((_, entry),) = self._compute([graph], batch_size=1)
        return entry

    def lookup(self, graph: "ACFG") -> CachedForward | None:
        entry = self._entries.get(self._key(graph))
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
            entry = self._entries[self._key(graph)] = self.compute(graph)
        return entry

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self._entries), -1)

    def clear(self) -> None:
        """Drop every cached forward (e.g. after the GNN's weights change)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

"""Content-keyed caches for per-graph artifacts of the frozen GNN.

Two cost centers dominated the seed pipeline's redundant work:

* ``normalized_adjacency`` was rebuilt on *every* ``predict`` /
  ``embed`` call — O(N²) symmetrize/degree/scale passes per forward —
  even though the evaluation calls the classifier on the same graphs
  over and over.  :class:`AHatCache` memoizes Â (and its CSR form for
  the batched engine) behind a content key.
* Every explainer independently re-ran the frozen Φ over the training
  and test graphs to get embeddings Z and the predicted class.
  :class:`EmbeddingCache` computes them once — in batched passes — and
  hands them to CFGExplainer training, PGExplainer's offline stage and
  the Figure 2 / Tables III–IV experiments.

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
from repro.gnn.normalize import normalized_adjacency_csr
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


class _AHatEntry:
    """One cached Â: CSR canonical, dense derived lazily.

    Â is *computed* in CSR form (:func:`normalized_adjacency_csr`) —
    the form the batched engine consumes — and the dense matrix the
    per-graph/explainer path wants is a cheap ``toarray`` fill from
    it, so neither representation is ever built twice.
    """

    __slots__ = ("_dense", "csr")

    def __init__(self, csr: CSRMatrix):
        self.csr = csr
        self._dense: np.ndarray | None = None

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.csr.toarray()
        return self._dense


class AHatCache:
    """LRU cache of normalized adjacencies keyed by graph content.

    ``get`` returns the dense Â consumed by the per-graph path;
    ``get_csr`` additionally memoizes the CSR form the batched engine
    packs into block-diagonal matrices.  Returned arrays are shared —
    treat them as read-only.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, _AHatEntry] = OrderedDict()

    def _entry(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None,
        key: bytes | None = None,
    ) -> _AHatEntry:
        if key is None:
            adjacency = np.asarray(adjacency, dtype=np.float64)
            mask = (
                np.ones(adjacency.shape[0], dtype=bool)
                if active_mask is None
                else np.asarray(active_mask, dtype=bool)
            )
            key = _digest(adjacency, mask)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            add_counter("cache.a_hat.hits")
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        add_counter("cache.a_hat.misses")
        adjacency = np.asarray(adjacency, dtype=np.float64)
        mask = (
            np.ones(adjacency.shape[0], dtype=bool)
            if active_mask is None
            else np.asarray(active_mask, dtype=bool)
        )
        entry = _AHatEntry(CSRMatrix(normalized_adjacency_csr(adjacency, mask)))
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def get(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None = None,
        key: bytes | None = None,
    ) -> np.ndarray:
        """The dense normalized adjacency Â, computed at most once.

        ``key`` short-circuits the content hash when the caller already
        holds the digest (``ACFG.content_key()``); it must equal what
        :func:`repro.acfg.graph.content_digest` yields for
        ``(adjacency, mask)`` — graph-keyed and array-keyed callers
        then share cache entries.
        """
        return self._entry(adjacency, active_mask, key).dense

    def get_csr(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None = None,
        key: bytes | None = None,
    ) -> CSRMatrix:
        """Â in CSR form, for batch packing."""
        return self._entry(adjacency, active_mask, key).csr

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
    training (:func:`repro.core.training.precompute_embeddings`),
    PGExplainer's offline stage and Algorithm 2's first rung then reuse
    Z / the predicted class instead of re-running Φ per consumer.
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

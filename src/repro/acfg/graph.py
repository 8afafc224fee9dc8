"""The ``ACFG`` container: weighted adjacency + node features + label.

Follows Section II-A: ``A ∈ {0,1,2}^{N×N}`` (1 = fallthrough/jump,
2 = call), ``X ∈ R^{N×d}`` with d = 12.  Graphs are padded to a fixed
``N`` with zero-feature, zero-edge temporary nodes exactly as the paper
does for its GCN (Section V-A).

The graph owns its real-node edge list
(:meth:`ACFG.self_looped_edges`): the dense real block is scanned once
per graph, and every normalized adjacency Â the classifier, the
explainers and the metrics use is derived from that list
(:mod:`repro.gnn.normalize`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.acfg.features import NUM_FEATURES, cfg_feature_matrix
from repro.malgen.corpus import LabeledSample

__all__ = ["ACFG", "content_digest", "from_sample"]


def content_digest(*arrays: np.ndarray) -> bytes:
    """SHA1 over the shapes and bytes of ``arrays``.

    The content key of :class:`repro.gnn.cache.EmbeddingCache` (through
    :meth:`ACFG.embed_key`): equal digests ⇔ equal shape and equal
    bytes, regardless of which objects hold them.
    """
    hasher = hashlib.sha1()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.shape).encode())
        hasher.update(array)  # the buffer itself: no O(N²) bytes copy
    return hasher.digest()


@dataclass
class ACFG:
    """One attributed control flow graph sample.

    ``n_real`` is the number of genuine nodes; indices ``>= n_real`` are
    padding.  ``block_tags`` carries the generator's ground-truth motif
    tags for real nodes (empty tuples when unknown, e.g. loaded data).
    """

    adjacency: np.ndarray
    features: np.ndarray
    label: int
    family: str
    name: str = "acfg"
    n_real: int | None = None
    block_tags: tuple[frozenset[str], ...] = field(default_factory=tuple)
    # Lazily computed memos (see self_looped_edges / embed_key).
    # Excluded from init/repr/eq; dataclasses.replace() resets them.
    _edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _embed_key: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows ({self.features.shape[0]}) != adjacency size ({n})"
            )
        if self.n_real is None:
            self.n_real = n
        if not 0 <= self.n_real <= n:
            raise ValueError(f"n_real={self.n_real} outside [0, {n}]")
        if not set(np.unique(self.adjacency)) <= {0.0, 1.0, 2.0}:
            raise ValueError("adjacency values must be in {0, 1, 2}")

    @property
    def n(self) -> int:
        """Total (padded) node count."""
        return self.adjacency.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def real_nodes(self) -> np.ndarray:
        return np.arange(self.n_real)

    def padded(self, n: int) -> "ACFG":
        """A copy padded (or verified) to ``n`` total nodes."""
        if n < self.n:
            raise ValueError(f"cannot pad {self.n}-node graph down to {n}")
        if n == self.n:
            return self
        adjacency = np.zeros((n, n), dtype=np.float64)
        adjacency[: self.n, : self.n] = self.adjacency
        features = np.zeros((n, self.num_features), dtype=np.float64)
        features[: self.n] = self.features
        return replace(
            self, adjacency=adjacency, features=features, n_real=self.n_real
        )

    def subgraph_adjacency(self, kept_nodes: np.ndarray) -> np.ndarray:
        """Adjacency with all rows/columns outside ``kept_nodes`` zeroed.

        This is the paper's pruning operation (Algorithm 2 lines 17-18):
        the matrix keeps its shape; removed nodes simply lose all edges.
        """
        keep = np.zeros(self.n, dtype=bool)
        keep[np.asarray(kept_nodes, dtype=int)] = True
        pruned = self.adjacency * keep[:, None]
        pruned = pruned * keep[None, :]
        return pruned

    def real_complement(self, nodes) -> np.ndarray:
        """Real-node indices not in ``nodes``, ascending.

        ``nodes`` is any iterable of indices; entries outside the real
        range are ignored.
        """
        nodes = np.fromiter(nodes, dtype=int)
        keep = np.ones(self.n_real, dtype=bool)
        keep[nodes[(nodes >= 0) & (nodes < self.n_real)]] = False
        return np.flatnonzero(keep)

    def self_looped_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, weights)`` of ``max(A, Aᵀ) + I`` on the real nodes.

        Call edges weigh 2; control-flow edges are symmetrized, as PyG's
        GCNConv does for directed inputs.  Entries are restricted to the
        first ``n_real`` nodes and listed row-major (columns ascending
        within a row); a self-loop already in ``A`` is merged with the
        added one.  Computed once and shared, so the arrays are
        read-only; anything that mutates ``adjacency`` or ``n_real`` in
        place (e.g. the structured fuzzer) must call
        :meth:`invalidate_memos`.
        """
        if self._edges is None:
            self._edges = _real_edges(self.adjacency, self.n_real)
        return self._edges

    def embed_key(self) -> bytes:
        """Digest of (adjacency, features, n_real) — the frozen-forward
        (:class:`repro.gnn.cache.EmbeddingCache`) key; lazily cached."""
        if self._embed_key is None:
            self._embed_key = content_digest(
                self.adjacency, self.features, np.asarray([self.n_real])
            )
        return self._embed_key

    def invalidate_memos(self) -> None:
        """Drop the edge list and the digest after an in-place mutation."""
        self._edges = None
        self._embed_key = None

    def masked_features(self, kept_nodes: np.ndarray) -> np.ndarray:
        """Features with rows outside ``kept_nodes`` zeroed (like padding)."""
        keep = np.zeros(self.n, dtype=bool)
        keep[np.asarray(kept_nodes, dtype=int)] = True
        return self.features * keep[:, None]


def _real_edges(
    adjacency: np.ndarray, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`ACFG.self_looped_edges` of ``adjacency``: one scan of its
    real block, returned as read-only arrays."""
    real = np.asarray(adjacency, dtype=np.float64)[:n_real, :n_real]
    with_loops = np.maximum(real, real.T)
    with_loops[np.diag_indices(n_real)] += 1.0
    rows, cols = np.nonzero(with_loops)
    edges = (rows, cols, with_loops[rows, cols])
    for array in edges:
        array.flags.writeable = False
    return edges


def from_sample(sample: LabeledSample, pad_to: int | None = None) -> ACFG:
    """Build an ACFG from a generated corpus sample."""
    adjacency = sample.cfg.adjacency_matrix().astype(np.float64)
    features = cfg_feature_matrix(sample.cfg)
    if features.shape[0] == 0:
        features = features.reshape(0, NUM_FEATURES)
    acfg = ACFG(
        adjacency=adjacency,
        features=features,
        label=sample.label,
        family=sample.family,
        name=sample.program.name,
        n_real=sample.cfg.node_count,
        block_tags=tuple(sample.block_tags),
    )
    if pad_to is not None:
        acfg = acfg.padded(pad_to)
    return acfg

"""PGExplainer (Luo et al., 2020) — a globally trained mask predictor.

A small MLP maps each edge's embedding — the concatenation of its two
endpoint node embeddings from the frozen GNN, the paper's ``[N², 2f]``
input construction — to the probability that the edge matters for the
classification.  The predictor is trained *once* over many graphs
(giving it the global view the paper contrasts with GNNExplainer's
local optimization) by sampling approximately-discrete masks from the
concrete distribution with an annealed temperature and minimizing the
NLL of the GNN's prediction on the masked graph plus size/entropy
regularizers.

At explanation time no sampling is needed: the predicted edge
probabilities are used directly, and node importance is the incident
edge mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acfg.dataset import ACFGDataset
from repro.acfg.graph import ACFG
from repro.baselines.gnnexplainer import edge_mass_node_scores
from repro.explain.base import RankingExplainer, rank_by_score
from repro.gnn.cache import EmbeddingCache
from repro.gnn.model import GCNClassifier
from repro.gnn.normalize import normalized_edges
from repro.nn import Adam, Dense, Module, Tensor, nll_loss_from_probs, no_grad
from repro.obs import add_counter

__all__ = ["PGExplainerBaseline", "MaskPredictor"]


class MaskPredictor(Module):
    """MLP mapping concatenated endpoint embeddings to an edge logit."""

    def __init__(
        self,
        embedding_size: int,
        hidden: int = 32,
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()  # lint: ok (seeded rng is the reproducible path)
        self.hidden = Dense(2 * embedding_size, hidden, activation="relu", rng=rng)
        self.output = Dense(hidden, 1, activation="linear", rng=rng)

    def __call__(self, edge_embeddings: Tensor) -> Tensor:
        """Edge logits, shape [E, 1], from edge embeddings [E, 2f]."""
        return self.output(self.hidden(edge_embeddings))


@dataclass
class PGTrainingHistory:
    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


@dataclass(frozen=True)
class _GraphCache:
    """Frozen per-graph quantities reused across training epochs.

    ``(rows, cols, values)`` lists the real-node Â.  Stored entry *k* is
    scaled by mask entry ``slot[k]``; self-loops stay unmasked, as in
    the original (the explanation concerns edges between blocks), so
    their slot is ``E``, a constant 1.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    slot: np.ndarray
    edges: np.ndarray  # [E, 2] endpoints of the off-diagonal entries
    edge_embeddings: np.ndarray  # [E, 2f]
    target: int
    features: np.ndarray  # real rows


class PGExplainerBaseline(RankingExplainer):
    """Parameterized explainer with an offline global training stage."""

    name = "PGExplainer"

    def __init__(
        self,
        model: GCNClassifier,
        hidden: int = 32,
        epochs: int = 20,
        lr: float = 0.01,
        size_weight: float = 0.005,
        entropy_weight: float = 0.1,
        temperature: tuple[float, float] = (5.0, 1.0),
        seed: int = 0,
        embedding_cache: EmbeddingCache | None = None,
    ):
        super().__init__(model)
        self.predictor = MaskPredictor(
            model.embedding_size, hidden, rng=np.random.default_rng(seed)
        )
        self.epochs = epochs
        self.lr = lr
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        self.temperature = temperature
        self.seed = seed
        #: Shared frozen-GNN forward cache: when set, Z and the target
        #: class come from it instead of per-graph forward passes.
        self.embedding_cache = embedding_cache
        self._trained = False

    # ------------------------------------------------------------------
    # offline training stage
    # ------------------------------------------------------------------
    def fit(self, train_set: ACFGDataset, verbose: bool = False) -> PGTrainingHistory:
        """Train the mask predictor over the whole training set."""
        rng = np.random.default_rng(self.seed)
        cached = [self._cache_graph(graph) for graph in train_set]
        cached = [c for c in cached if c.edges.shape[0] > 0]
        if not cached:
            raise ValueError("no graphs with edges to train on")
        optimizer = Adam(self.predictor.parameters(), lr=self.lr)
        history = PGTrainingHistory()
        t_start, t_end = self.temperature

        for epoch in range(self.epochs):
            # Exponential temperature annealing, as in the original.
            progress = epoch / max(self.epochs - 1, 1)
            tau = t_start * (t_end / t_start) ** progress
            epoch_loss = 0.0
            for cache in cached:
                optimizer.zero_grad()
                loss = self._graph_loss(cache, tau, rng)
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
            history.losses.append(epoch_loss / len(cached))
            if verbose:
                print(f"pg epoch {epoch + 1:3d} loss={history.losses[-1]:.4f}")
        self._trained = True
        add_counter("pgexplainer.train.epochs", self.epochs)
        return history

    def _graph_loss(
        self, cache: _GraphCache, tau: float, rng: np.random.Generator
    ) -> Tensor:
        logits = self.predictor(Tensor(cache.edge_embeddings)).reshape(-1)
        # Concrete / binary-Gumbel relaxation of discrete edge sampling.
        uniform = rng.uniform(1e-6, 1.0 - 1e-6, size=logits.shape)
        noise = np.log(uniform) - np.log(1.0 - uniform)
        soft_mask = ((logits + Tensor(noise)) * (1.0 / tau)).sigmoid()

        scale = Tensor.concatenate([soft_mask, Tensor(np.ones(1))])[cache.slot]
        z = self.model.embed(
            cache.rows, cache.cols, Tensor(cache.values) * scale, cache.features
        )
        probs = self.model.classify(z)
        prediction_loss = nll_loss_from_probs(probs, cache.target, eps=1e-12)
        size_loss = soft_mask.sum() * self.size_weight
        probs_edges = logits.sigmoid()
        entropy = -(
            probs_edges * probs_edges.log(eps=1e-12)
            + (1.0 - probs_edges) * (1.0 - probs_edges).log(eps=1e-12)
        ).mean()
        return prediction_loss + size_loss + entropy * self.entropy_weight

    # ------------------------------------------------------------------
    # explanation stage
    # ------------------------------------------------------------------
    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        if not self._trained:
            raise RuntimeError("PGExplainer must be fit() before explaining")
        cache = self._cache_graph(graph)
        with no_grad():
            logits = self.predictor(Tensor(cache.edge_embeddings)).numpy()
        probabilities = 1.0 / (1.0 + np.exp(-logits.reshape(-1)))
        scores = edge_mass_node_scores(
            cache.edges[:, 0], cache.edges[:, 1], probabilities, graph.n_real
        )
        return rank_by_score(scores), scores

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _cache_graph(self, graph: ACFG) -> "_GraphCache":
        rows, cols, a_hat = normalized_edges(graph)
        off = rows != cols
        edges = np.stack([rows[off], cols[off]], axis=1)
        slot = np.full(rows.size, len(edges))
        slot[off] = np.arange(len(edges))
        features = graph.features[: graph.n_real]
        if self.embedding_cache is not None:
            cached = self.embedding_cache.lookup(graph) or self.embedding_cache.compute(graph)
            z, target = cached.z, cached.predicted_class
        else:
            with no_grad():
                z = self.model.embed(rows, cols, a_hat, features).numpy()
            target = self.model.predict(graph)
        return _GraphCache(
            rows=rows,
            cols=cols,
            values=a_hat,
            slot=slot,
            edges=edges,
            edge_embeddings=np.concatenate([z[edges[:, 0]], z[edges[:, 1]]], axis=1),
            target=target,
            features=features,
        )

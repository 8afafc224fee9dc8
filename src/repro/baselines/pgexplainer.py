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
    """Frozen per-graph quantities reused across training epochs."""

    a_hat: np.ndarray
    edges: np.ndarray  # [E, 2] endpoint indices where a_hat > 0
    edge_embeddings: np.ndarray  # [E, 2f]
    active: np.ndarray
    target: int
    features: np.ndarray


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

        masked_a_hat = self._apply_edge_mask(cache, soft_mask)
        z = self.model.embed_normalized(
            masked_a_hat, cache.features, cache.active
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

    def _apply_edge_mask(self, cache: _GraphCache, edge_mask: Tensor) -> Tensor:
        """Scatter per-edge mask values into the [N, N] propagation matrix.

        The masked matrix holds ``a_hat[i, j] * m_e`` on edge positions
        and the original ``a_hat`` elsewhere (self-loops stay intact).
        """
        n = cache.a_hat.shape[0]
        rows, cols = cache.edges[:, 0], cache.edges[:, 1]
        off_edges = cache.a_hat.copy()
        off_edges[rows, cols] = 0.0
        edge_weights = Tensor(cache.a_hat[rows, cols]) * edge_mask
        return Tensor(off_edges) + edge_weights.scatter2d((n, n), rows, cols)

    # ------------------------------------------------------------------
    # explanation stage
    # ------------------------------------------------------------------
    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        if not self._trained:
            raise RuntimeError("PGExplainer must be fit() before explaining")
        cache = self._cache_graph(graph)
        n = graph.n
        weights = np.zeros((n, n))
        if cache.edges.shape[0] > 0:
            with no_grad():
                logits = self.predictor(Tensor(cache.edge_embeddings)).numpy()
            probabilities = 1.0 / (1.0 + np.exp(-logits.reshape(-1)))
            weights[cache.edges[:, 0], cache.edges[:, 1]] = probabilities
        scores = edge_mass_node_scores(weights, graph.n_real)
        return rank_by_score(scores), scores

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _cache_graph(self, graph: ACFG) -> "_GraphCache":
        active = np.zeros(graph.n, dtype=bool)
        active[: graph.n_real] = True
        a_hat = self.model.a_hat_cache.get(graph.adjacency, active)
        # Off-diagonal support only: self-loops stay unmasked, as in the
        # original (the explanation concerns edges between blocks).
        support = (a_hat > 0) & ~np.eye(graph.n, dtype=bool)
        edges = np.argwhere(support)
        if self.embedding_cache is not None:
            cached = self.embedding_cache.lookup(graph) or self.embedding_cache.compute(graph)
            z, target = cached.z, cached.predicted_class
        else:
            with no_grad():
                z = self.model.embed(graph.adjacency, graph.features, active).numpy()
            target = self.model.predict(graph)
        edge_embeddings = (
            np.concatenate([z[edges[:, 0]], z[edges[:, 1]]], axis=1)
            if edges.shape[0]
            else np.zeros((0, 2 * self.model.embedding_size))
        )
        return _GraphCache(
            a_hat=a_hat,
            edges=edges,
            edge_embeddings=edge_embeddings,
            active=active,
            target=target,
            features=graph.features,
        )

"""SubgraphX (Yuan et al., 2021) — MCTS + Shapley-value explanations.

A Monte Carlo search tree is grown over subgraphs of the input ACFG:
the root holds all real nodes and each child prunes one node from its
parent.  Rewards are Shapley values of the subgraph-as-player,
approximated by Monte Carlo coalition sampling: the subgraph's average
marginal contribution ``f(S ∪ T) − f(T)`` to the GNN's probability of
the originally predicted class, over random coalitions ``T`` of the
remaining nodes.

A full node ranking (needed for the paper's equisized-subgraph
comparison) is extracted from the principal variation — nodes pruned
early on the most-visited path are least important — with the surviving
nodes ranked by their leave-one-out marginal contribution to the final
subgraph.

Like GNNExplainer this is a *local* method, and by far the most
expensive of the four (the paper measures 127.8 min per explanation on
real ACFGs; the knobs below bound our scaled version).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acfg.graph import ACFG
from repro.explain.base import RankingExplainer, rank_by_score
from repro.gnn.model import GCNClassifier

__all__ = ["SubgraphXBaseline", "shapley_score", "shapley_scores"]


def shapley_score(
    model: GCNClassifier,
    graph: ACFG,
    subgraph_nodes: frozenset[int],
    target: int,
    rng: np.random.Generator,
    samples: int = 8,
) -> float:
    """Monte Carlo Shapley value of ``subgraph_nodes`` as one player.

    Coalitions T are uniform random subsets of the other real nodes;
    the value is the mean of ``f(S ∪ T) − f(T)`` where f is the model's
    probability of ``target``.
    """
    return float(
        shapley_scores(model, graph, [subgraph_nodes], target, rng, samples)[0]
    )


def shapley_scores(
    model: GCNClassifier,
    graph: ACFG,
    players: list[frozenset[int]],
    target: int,
    rng: np.random.Generator,
    samples: int = 8,
) -> np.ndarray:
    """:func:`shapley_score` of every player, scored in one batched call.

    All coalitions are drawn first, player by player, in the order
    successive :func:`shapley_score` calls would draw them; every
    ``S ∪ T`` and non-empty ``T`` is then scored by a single
    ``subgraph_proba_batch``.
    """
    kept_sets: list[np.ndarray] = []
    nonempty: list[bool] = []  # per draw: is the coalition T non-empty?
    for player in players:
        others = graph.real_complement(player)
        subgraph = np.array(sorted(player), dtype=int)
        for _ in range(samples):
            if others.size:
                coalition_mask = rng.random(others.size) < rng.random()
                coalition = others[coalition_mask]
            else:
                coalition = others
            kept_sets.append(np.concatenate([subgraph, coalition]))
            nonempty.append(bool(coalition.size))
            if coalition.size:
                kept_sets.append(coalition)
    probs = iter(model.subgraph_proba_batch(graph, kept_sets)[:, target])
    draws = iter(nonempty)
    prior = 1.0 / model.num_classes  # empty graph: uninformed prior
    scores = np.empty(len(players))
    for p in range(len(players)):
        total = 0.0
        for _ in range(samples):
            prob_with = next(probs)
            total += prob_with - (next(probs) if next(draws) else prior)
        scores[p] = total / samples
    return scores


@dataclass
class _TreeNode:
    """One MCTS state: the set of still-kept nodes."""

    kept: frozenset[int]
    parent: "_TreeNode | None" = None
    pruned_node: int | None = None  # action that led here from the parent
    children: list["_TreeNode"] = field(default_factory=list)
    visits: int = 0
    total_reward: float = 0.0
    expanded: bool = False

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


class SubgraphXBaseline(RankingExplainer):
    """MCTS/Shapley explainer behind the common ranking interface."""

    name = "SubgraphX"

    def __init__(
        self,
        model: GCNClassifier,
        mcts_iterations: int = 40,
        shapley_samples: int = 6,
        expansion_width: int = 5,
        min_size_fraction: float = 0.2,
        exploration: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(model)
        if mcts_iterations <= 0 or shapley_samples <= 0 or expansion_width <= 0:
            raise ValueError("MCTS parameters must be positive")
        self.mcts_iterations = mcts_iterations
        self.shapley_samples = shapley_samples
        self.expansion_width = expansion_width
        self.min_size_fraction = min_size_fraction
        self.exploration = exploration
        self.seed = seed

    # ------------------------------------------------------------------
    def rank_nodes(self, graph: ACFG) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        target = self.model.predict(graph)
        root = _TreeNode(kept=frozenset(range(graph.n_real)))
        min_size = max(1, int(np.ceil(self.min_size_fraction * graph.n_real)))

        reward_cache: dict[frozenset[int], float] = {}

        def reward_of(kept: frozenset[int]) -> float:
            if kept not in reward_cache:
                reward_cache[kept] = shapley_score(
                    self.model, graph, kept, target, rng, self.shapley_samples
                )
            return reward_cache[kept]

        for _ in range(self.mcts_iterations):
            node = self._select(root)
            if len(node.kept) > min_size and not node.expanded:
                self._expand(node, rng)
            if node.children:
                node = rng.choice(node.children)
            reward = reward_of(node.kept)
            self._backpropagate(node, reward)

        return self._extract_ranking(graph, root, target)

    # ------------------------------------------------------------------
    # MCTS phases
    # ------------------------------------------------------------------
    def _select(self, node: _TreeNode) -> _TreeNode:
        while node.expanded and node.children:
            node = max(node.children, key=lambda c: self._ucb(node, c))
        return node

    def _ucb(self, parent: _TreeNode, child: _TreeNode) -> float:
        if child.visits == 0:
            return float("inf")
        exploit = child.mean_reward
        explore = self.exploration * np.sqrt(
            np.log(max(parent.visits, 1)) / child.visits
        )
        return exploit + explore

    def _expand(self, node: _TreeNode, rng: np.random.Generator) -> None:
        """Create children by pruning each of a bounded candidate set."""
        kept = sorted(node.kept)
        if len(kept) <= 1:
            node.expanded = True
            return
        count = min(self.expansion_width, len(kept))
        candidates = rng.choice(kept, size=count, replace=False)
        for candidate in candidates:
            child = _TreeNode(
                kept=node.kept - {int(candidate)},
                parent=node,
                pruned_node=int(candidate),
            )
            node.children.append(child)
        node.expanded = True

    @staticmethod
    def _backpropagate(node: _TreeNode, reward: float) -> None:
        while node is not None:
            node.visits += 1
            node.total_reward += reward
            node = node.parent

    # ------------------------------------------------------------------
    # ranking extraction
    # ------------------------------------------------------------------
    def _extract_ranking(
        self, graph: ACFG, root: _TreeNode, target: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # Principal variation: most-visited child at every level.  Nodes
        # pruned early on this path are the least important.
        pruned_in_order: list[int] = []
        node = root
        while node.children:
            node = max(node.children, key=lambda c: c.visits)
            pruned_in_order.append(node.pruned_node)

        # Survivors of the PV leaf are ranked by their own Monte Carlo
        # Shapley value — the same (noisy) estimator the tree rewards
        # use, which is all the information the algorithm itself has.
        # Every survivor's coalitions are drawn first, then all of them
        # are scored in one batched call.
        rng = np.random.default_rng(self.seed + 1)
        survivors = sorted(node.kept)
        values = shapley_scores(
            self.model,
            graph,
            [frozenset({candidate}) for candidate in survivors],
            target,
            rng,
            self.shapley_samples,
        )
        survivor_order = [survivors[k] for k in rank_by_score(values)]

        order = np.array(
            survivor_order + list(reversed(pruned_in_order)), dtype=int
        )
        scores = np.zeros(graph.n_real)
        for rank, index in enumerate(order):
            scores[index] = float(len(order) - rank)
        return order, scores

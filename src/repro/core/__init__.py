"""CFGExplainer — the paper's primary contribution.

Θ = {Θ_s, Θ_c}: a node-scoring network and a surrogate classifier,
jointly trained on GNN node embeddings (Algorithm 1), then used as a
surrogate to iteratively prune the ACFG into an importance ordering and
a ladder of explanation subgraphs (Algorithm 2).
"""

from repro.core.interpret import CFGExplainer, interpret
from repro.core.model import (
    CFGExplainerModel,
    NodeScorer,
    SurrogateClassifier,
)
from repro.core.training import ExplainerTrainingHistory, train_cfgexplainer

__all__ = [
    "NodeScorer",
    "SurrogateClassifier",
    "CFGExplainerModel",
    "train_cfgexplainer",
    "ExplainerTrainingHistory",
    "CFGExplainer",
    "interpret",
]

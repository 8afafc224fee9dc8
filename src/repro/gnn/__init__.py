"""The GNN malware classifier Φ = {Φ_e, Φ_c} from Section V-A.

Φ_e stacks ReLU-activated graph-convolution layers (the paper uses
sizes 1024/512/128 on a P100; defaults here are scaled down but
configurable) and Φ_c is a dense softmax classifier over the
per-dimension max of all node embeddings.
"""

from repro.gnn.batch import BatchPacker, GraphBatch, iter_batches
from repro.gnn.cache import AHatCache, CachedForward, EmbeddingCache
from repro.gnn.model import GCNClassifier
from repro.gnn.train import TrainingHistory, evaluate_accuracy, train_gnn

__all__ = [
    "AHatCache",
    "CachedForward",
    "EmbeddingCache",
    "BatchPacker",
    "GraphBatch",
    "iter_batches",
    "GCNClassifier",
    "train_gnn",
    "evaluate_accuracy",
    "TrainingHistory",
]

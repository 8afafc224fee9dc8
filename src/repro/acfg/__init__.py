"""Attributed Control Flow Graphs: Table I features, padding, datasets."""

from repro.acfg.dataset import ACFGDataset, FeatureScaler, train_test_split
from repro.acfg.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    cfg_feature_matrix,
)
from repro.acfg.graph import ACFG, from_sample
from repro.acfg.ingest import (
    CorpusIngest,
    IngestPolicy,
    SampleIngest,
    ingest_corpus,
    ingest_sample,
)

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "cfg_feature_matrix",
    "ACFG",
    "from_sample",
    "ACFGDataset",
    "FeatureScaler",
    "train_test_split",
    "CorpusIngest",
    "IngestPolicy",
    "SampleIngest",
    "ingest_corpus",
    "ingest_sample",
]

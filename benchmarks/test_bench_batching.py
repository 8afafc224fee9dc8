"""Throughput of the batched block-diagonal engine vs the per-graph loop.

Times identical training/inference workloads under ``train_gnn`` /
``predict_batch`` (one CSR pass per mini-batch) and the per-graph dense
loop the tests keep as their oracle (``tests/reference_training.py``),
asserts the two trace the same losses and predictions, and writes
``BENCH_batching.json`` with graphs/sec for each path (to the repo root
or ``$REPRO_BENCH_DIR``; ``repro.tools.bench_compare`` gates the
numbers against ``benchmarks/baselines/``).

Unlike the experiment benches this module builds its own small corpus —
it does not depend on the session pipeline fixture, so it stays fast
enough for the tier-1-adjacent smoke set.

``$REPRO_BENCH_PROFILE`` selects the workload scale: ``default`` (the
nightly lane, gated against ``BENCH_batching.json``) or ``quick`` (the
PR-time lane — a smaller corpus and fewer epochs, writing
``BENCH_quick.json`` so the two lanes keep independent baselines).
"""

import json
import os
import statistics
import time

import numpy as np
import pytest
from conftest import bench_artifact_path

from repro.acfg import ACFGDataset, FeatureScaler, train_test_split
from repro.gnn import GCNClassifier, evaluate_accuracy, train_gnn
from repro.malgen import generate_corpus
from tests.reference_training import dense_predict, train_per_graph

PROFILES = {
    "default": {
        "artifact": "BENCH_batching.json",
        "samples_per_family": 6,
        "size_multiplier": 4,  # ~700-node graphs: the dense O(N²) regime
        "epochs": 12,
        "batch_size": 16,
        "min_speedup": 3.0,
    },
    "quick": {
        "artifact": "BENCH_quick.json",
        "samples_per_family": 4,
        "size_multiplier": 2,  # ~350-node graphs: small but not toy
        "epochs": 6,
        "batch_size": 8,
        "min_speedup": 2.0,
    },
}

_PROFILE_NAME = os.environ.get("REPRO_BENCH_PROFILE", "default")
if _PROFILE_NAME not in PROFILES:
    raise KeyError(
        f"REPRO_BENCH_PROFILE={_PROFILE_NAME!r}: choose from {sorted(PROFILES)}"
    )
_PROFILE = PROFILES[_PROFILE_NAME]

ARTIFACT_NAME = _PROFILE["artifact"]

SAMPLES_PER_FAMILY = _PROFILE["samples_per_family"]
SIZE_MULTIPLIER = _PROFILE["size_multiplier"]
EPOCHS = _PROFILE["epochs"]
BATCH_SIZE = _PROFILE["batch_size"]
MIN_SPEEDUP = _PROFILE["min_speedup"]
#: Each inference lane is the median of this many timings: one pass
#: over the test split takes milliseconds, and a single timing of it
#: swings by more than the 30 % gate.
INFERENCE_REPEATS = 5
#: Each training lane is the median of this many timed runs.
TRAINING_REPEATS = 3


@pytest.fixture(scope="module")
def splits():
    corpus = generate_corpus(
        SAMPLES_PER_FAMILY, seed=7, size_multiplier=SIZE_MULTIPLIER
    )
    dataset = ACFGDataset.from_corpus(corpus)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=0)
    scaler = FeatureScaler().fit(list(train))
    return train.scaled(scaler), test.scaled(scaler)


def _fresh_model() -> GCNClassifier:
    return GCNClassifier(hidden=(32, 24, 16), rng=np.random.default_rng(0))


def _time_training(
    train_set, batched: bool, epochs: int = EPOCHS, repeats: int = TRAINING_REPEATS
) -> tuple[float, list[float]]:
    """Median seconds over ``repeats`` fresh-model runs, and the losses."""
    schedule = dict(epochs=epochs, batch_size=BATCH_SIZE, lr=0.005, seed=0)
    timings = []
    for _ in range(repeats):
        model = _fresh_model()
        start = time.perf_counter()
        if batched:
            losses = train_gnn(model, train_set, **schedule).losses
        else:
            losses = train_per_graph(model, train_set, **schedule)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), losses


def _time_inference(model, test_set, batched: bool) -> tuple[float, np.ndarray]:
    """Median seconds over ``INFERENCE_REPEATS`` passes, and the predictions.

    Every per-graph pass starts cold, as a single first pass does: the
    dense reference normalizes each graph's padded adjacency again.
    Batched passes read each graph's memoized edge list.
    """
    graphs = list(test_set)
    timings = []
    for _ in range(INFERENCE_REPEATS):
        start = time.perf_counter()
        if batched:
            predictions = model.predict_batch(graphs, batch_size=64)
        else:
            predictions = np.array([dense_predict(model, g) for g in graphs], dtype=int)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), predictions


def test_bench_batched_vs_per_graph(splits):
    train_set, test_set = splits

    # Every graph memoizes its edge list once, before either lane, and
    # each lane runs one untimed epoch first: the training ratio then
    # compares the engines, not the edge scan only the batched lane
    # would pay or a machine that has been idle.
    for graph in [*train_set, *test_set]:
        graph.self_looped_edges()
    _time_training(train_set, batched=False, epochs=1, repeats=1)
    _time_training(train_set, batched=True, epochs=1, repeats=1)

    per_graph_s, per_graph_losses = _time_training(train_set, batched=False)
    batched_s, batched_losses = _time_training(train_set, batched=True)

    # Same seeds, same math: the two engines must trace the same descent.
    np.testing.assert_allclose(batched_losses, per_graph_losses, atol=1e-8)

    model = _fresh_model()
    train_gnn(model, train_set, epochs=EPOCHS, batch_size=BATCH_SIZE, seed=0)
    infer_loop_s, loop_preds = _time_inference(model, test_set, batched=False)
    infer_batch_s, batch_preds = _time_inference(model, test_set, batched=True)
    np.testing.assert_array_equal(batch_preds, loop_preds)

    graphs_trained = len(train_set) * EPOCHS
    report = {
        "corpus": {
            "profile": _PROFILE_NAME,
            "size_multiplier": SIZE_MULTIPLIER,
            "nodes_per_graph": int(train_set[0].n),
            "train_graphs": len(train_set),
            "test_graphs": len(test_set),
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
        },
        "training": {
            "per_graph": {
                "seconds": round(per_graph_s, 4),
                "graphs_per_sec": round(graphs_trained / per_graph_s, 2),
            },
            "batched": {
                "seconds": round(batched_s, 4),
                "graphs_per_sec": round(graphs_trained / batched_s, 2),
            },
            "speedup": round(per_graph_s / batched_s, 2),
            "max_abs_loss_delta": float(
                np.max(np.abs(np.array(batched_losses) - np.array(per_graph_losses)))
            ),
        },
        "inference": {
            "per_graph": {
                "seconds": round(infer_loop_s, 4),
                "graphs_per_sec": round(len(test_set) / infer_loop_s, 2),
            },
            "batched": {
                "seconds": round(infer_batch_s, 4),
                "graphs_per_sec": round(len(test_set) / infer_batch_s, 2),
            },
            "speedup": round(infer_loop_s / infer_batch_s, 2),
        },
        "accuracy": round(evaluate_accuracy(model, test_set), 4),
    }
    bench_artifact_path(ARTIFACT_NAME).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\ntraining   per_graph {report['training']['per_graph']['graphs_per_sec']:>8} g/s"
        f"  batched {report['training']['batched']['graphs_per_sec']:>8} g/s"
        f"  ({report['training']['speedup']}x)"
    )
    print(
        f"inference  per_graph {report['inference']['per_graph']['graphs_per_sec']:>8} g/s"
        f"  batched {report['inference']['batched']['graphs_per_sec']:>8} g/s"
        f"  ({report['inference']['speedup']}x)"
    )

    # Acceptance criterion: the batched engine trains >= MIN_SPEEDUP
    # faster (3x on the default lane, 2x on the smaller quick lane).
    assert report["training"]["speedup"] >= MIN_SPEEDUP, report["training"]

"""Paper-scale kernel lane: batched engine throughput on ~7350-node graphs.

The CFGExplainer evaluation corpus tops out around 7352 basic blocks
per CFG; this lane times the sparse kernel backend (CSR Â, fused
GCN layers, workspace buffer reuse) at that scale, where the dense
per-graph path's O(N²) memory (a ~430 MB dense Â per graph) makes a
full side-by-side sweep impractical.  The batched path is timed for
training and inference; one dense per-graph forward anchors parity so
the sparse kernels cannot silently diverge at scale.

Writes ``BENCH_paper_scale.json`` (repo root or ``$REPRO_BENCH_DIR``);
``repro.tools.bench_compare`` gates the ``*graphs_per_sec`` metrics
against ``benchmarks/baselines/``.  Like the reduction lane the
workload (2 epochs, batch of 4) is sized for a single-CPU nightly
runner while keeping the paper's graph scale.
"""

import json
import time

import numpy as np
from conftest import bench_artifact_path

from repro.acfg import ACFGDataset, FeatureScaler
from repro.gnn import GCNClassifier, train_gnn
from repro.malgen import generate_corpus
from tests.reference_training import dense_predict

ARTIFACT_NAME = "BENCH_paper_scale.json"

FAMILIES = ("Rbot", "Benign")
SAMPLES_PER_FAMILY = 2
SIZE_MULTIPLIER = 47  # largest graph ~7400 nodes, the paper's ceiling
SEED = 7
EPOCHS = 2
BATCH_SIZE = 4
INFERENCE_PASSES = 3


def test_bench_paper_scale_batched_engine():
    corpus = generate_corpus(
        SAMPLES_PER_FAMILY,
        seed=SEED,
        families=FAMILIES,
        size_multiplier=SIZE_MULTIPLIER,
    )
    dataset = ACFGDataset.from_corpus(corpus, families=FAMILIES)
    dataset = dataset.scaled(FeatureScaler().fit(list(dataset.graphs)))
    graphs = list(dataset)
    total_nodes = int(sum(g.n_real for g in graphs))
    largest = max(g.n_real for g in graphs)

    model = GCNClassifier(hidden=(32, 24, 16), rng=np.random.default_rng(0))
    start = time.perf_counter()
    train_gnn(model, dataset, epochs=EPOCHS, batch_size=BATCH_SIZE, seed=0)
    train_s = time.perf_counter() - start
    graphs_trained = len(graphs) * EPOCHS

    start = time.perf_counter()
    for _ in range(INFERENCE_PASSES):
        batch_preds = model.predict_batch(graphs, batch_size=BATCH_SIZE)
    infer_s = time.perf_counter() - start
    graphs_inferred = len(graphs) * INFERENCE_PASSES

    # Parity anchor: the dense per-graph reference must agree with the
    # batched sparse kernels on the largest graph.
    big_index = int(np.argmax([g.n_real for g in graphs]))
    assert int(batch_preds[big_index]) == dense_predict(model, graphs[big_index])

    report = {
        "corpus": {
            "families": list(FAMILIES),
            "samples_per_family": SAMPLES_PER_FAMILY,
            "size_multiplier": SIZE_MULTIPLIER,
            "largest_graph_nodes": int(largest),
            "total_real_nodes": total_nodes,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
        },
        "training": {
            "batched": {
                "seconds": round(train_s, 4),
                "graphs_per_sec": round(graphs_trained / train_s, 2),
                "knodes_per_sec": round(
                    total_nodes * EPOCHS / train_s / 1000.0, 2
                ),
            },
        },
        "inference": {
            "batched": {
                "seconds": round(infer_s, 4),
                "graphs_per_sec": round(graphs_inferred / infer_s, 2),
                "knodes_per_sec": round(
                    total_nodes * INFERENCE_PASSES / infer_s / 1000.0, 2
                ),
            },
        },
    }
    bench_artifact_path(ARTIFACT_NAME).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\npaper-scale ({largest}-node ceiling)"
        f"  train {report['training']['batched']['graphs_per_sec']:>7} g/s"
        f"  infer {report['inference']['batched']['graphs_per_sec']:>7} g/s"
        f"  ({report['inference']['batched']['knodes_per_sec']} knodes/s)"
    )

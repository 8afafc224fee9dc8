"""Shared setup, seeded inputs and the two workloads of the benchmark.

Every workload first trains the same classifier with ``run_pipeline``
(several times, so ``setup_s`` is a median), builds the serving engine
with ``artifacts.engine()``, generates its inputs from the seed, and only
then starts its timed section:

* ``triage``    -- closed loop of ``nproc`` analysts (at most 2) sending
  distinct small submissions through ``ServeDaemon.submit`` with the
  default CFGExplainer: ingest, daemon batching, batched classify and
  CFGExplainer's dense re-embeds.
* ``audit``     -- direct calls: one held-out test graph per family,
  explained by all five explainers and scored (subgraph-accuracy ladder,
  sufficiency/necessity at 20 %, planted-motif recall).  No daemon, no
  ingest; explainer search, the dense N x N masks of GNNExplainer and
  CFExplainer, and one forward per perturbation dominate.

Quality metrics are computed over a fixed input set that every run
completes, never over whatever a time budget let through.  The set is
the same for every seed -- the seed orders it -- so a seed's draw cannot
move them; every run gives bit-identical quality numbers.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.disasm.cfg import build_cfg
from repro.eval.pipeline import ExperimentConfig, run_pipeline
from repro.explain.groundtruth import signature_recovery
from repro.explain.metrics import (
    accuracy_auc,
    necessity,
    sufficiency,
    sweep_accuracy_curve,
)
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.malgen.families import FAMILIES, generate_program
from repro.obs import metrics_registry, tracing
from repro.serve.daemon import ServeDaemon
from repro.serve.engine import EngineResponse

from tracer import SpanRecorder, instrument, self_times, tail_percentile

__all__ = ["BENCH", "TINY", "Scale", "WORKLOADS", "run_workload"]

#: The five explainers the audit runs, in the paper's table order.
EXPLAINERS = ("CFGExplainer", "GNNExplainer", "SubgraphX", "PGExplainer", "CFExplainer")
#: Keep-fraction for sufficiency, necessity and motif recall.
TOP_FRACTION = 0.2
#: The ladder every explanation must carry (step size 10, as percents).
CANONICAL_LADDER = list(range(10, 101, 10))
#: Request program seeds start here.  Training programs use
#: ``corpus_seed * 100_000 + label * 1_000 + i`` with ``corpus_seed=0``,
#: so every request is a program the classifier never saw.
REQUEST_SEED_BASE = 10_000_000


@dataclass(frozen=True)
class Scale:
    """Sizes of the setup and of each workload's inputs."""

    setup: ExperimentConfig
    setup_repeats: int = 3
    min_test_accuracy: float = 0.75
    #: triage: size multiplier of the submissions; requests sent per
    #: second of ``--seconds`` (about the closed loop's rate, so a run
    #: takes about ``--seconds``; the count, not the clock, ends a run, so
    #: both sides of a comparison do the same work); and how many of them,
    #: the same programs for every seed, the quality metrics score -- at
    #: least 200, so that p95 has ten samples beyond it.
    triage_multiplier: int = 2
    triage_requests_per_second: int = 24
    triage_scored: int = 200


#: The configuration the benchmark measures.  The classifier reaches
#: 0.875 test accuracy on 24 held-out graphs (chance is 1/12).
BENCH = Scale(
    setup=ExperimentConfig(
        samples_per_family=6,
        size_multiplier=2,
        gnn_epochs=60,
        explainer_epochs=20,
        gnnexplainer_epochs=15,
        pgexplainer_epochs=2,
        subgraphx_iterations=10,
        subgraphx_shapley_samples=1,
        cfexplainer_iterations=30,
    ),
)

#: A seconds-long configuration for the self-tests; its classifier has
#: not learned, so it carries no accuracy floor.
TINY = Scale(
    setup=ExperimentConfig(
        samples_per_family=2,
        size_multiplier=1,
        test_fraction=0.5,
        gnn_hidden=(8, 8),
        gnn_epochs=2,
        explainer_epochs=2,
        gnnexplainer_epochs=2,
        pgexplainer_epochs=1,
        subgraphx_iterations=2,
        subgraphx_shapley_samples=1,
        cfexplainer_iterations=2,
    ),
    setup_repeats=1,
    min_test_accuracy=0.0,
    triage_multiplier=1,
    triage_requests_per_second=6,
    triage_scored=6,
)


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
#: ``repro.obs`` span of ``run_pipeline`` -> per-layer setup metric.
SETUP_STAGES = {
    "pipeline.corpus": "setup.corpus_s",
    "pipeline.dataset": "setup.dataset_s",
    "pipeline.train": "setup.gnn_train_s",
    "pipeline.explain.CFGExplainer": "setup.cfgexplainer_train_s",
    "pipeline.explain.PGExplainer": "setup.pgexplainer_train_s",
}


@dataclass
class Setup:
    artifacts: object
    engine: object
    seconds: list[float]
    stage_seconds: dict[str, list[float]] = field(default_factory=dict)
    accuracies: list[float] = field(default_factory=list)


def run_setup(scale: Scale, trace: bool) -> Setup:
    """Train and build the engine ``setup_repeats`` times; keep the last.

    With ``trace`` the single-threaded pipeline runs under
    ``repro.obs.tracing`` so its own ``pipeline.*`` spans give the
    per-stage times.
    """
    seconds: list[float] = []
    stages: dict[str, list[float]] = {metric: [] for metric in SETUP_STAGES.values()}
    accuracies: list[float] = []
    artifacts = engine = None
    for _ in range(scale.setup_repeats):
        artifacts = engine = None  # release the previous repeat first
        start = time.perf_counter()
        with tracing() if trace else contextlib.nullcontext() as tracer:
            artifacts = run_pipeline(scale.setup)
            engine = artifacts.engine()
        seconds.append(time.perf_counter() - start)
        accuracies.append(artifacts.gnn_test_accuracy)
        if tracer is not None:
            aggregate = tracer.aggregate()
            for span_name, metric in SETUP_STAGES.items():
                stages[metric].append(aggregate[span_name].wall_seconds)
    return Setup(artifacts, engine, seconds, stages, accuracies)


# ----------------------------------------------------------------------
# seeded inputs (generated before any timed section)
# ----------------------------------------------------------------------
def make_sample(family: str, program_seed: int, multiplier: int) -> LabeledSample:
    """One labelled submission, built exactly like ``generate_corpus``."""
    program, spans = generate_program(family, program_seed, multiplier)
    cfg = build_cfg(program)
    return LabeledSample(
        program=program,
        cfg=cfg,
        family=family,
        label=FAMILIES.index(family),
        motif_spans=spans,
        block_tags=block_motif_tags(cfg, spans),
    )


def submissions(stream: int, count: int, multiplier: int) -> list[LabeledSample]:
    """``count`` distinct submissions cycling through all families.

    The list depends only on ``stream`` (0 feeds the untraced pass, 1 the
    traced one; their programs never overlap) and on ``count``: growing
    ``count`` appends programs and keeps the first ones.  The seed only
    orders a pass (:func:`send_order`), so the scored requests are the
    same programs for every seed.  Drawn per seed, the 200 scored
    requests moved triage sufficiency by 26 % between seeds (binomial
    noise of one explainer's 0/1 verdicts).
    """
    rng = np.random.default_rng(stream)
    program_seed = REQUEST_SEED_BASE + stream * 100_000
    samples: list[LabeledSample] = []
    while len(samples) < count:
        for family in rng.permutation(FAMILIES)[: count - len(samples)]:
            samples.append(make_sample(str(family), program_seed, multiplier))
            program_seed += 1
    return samples


def send_order(seed: int, count: int) -> list[int]:
    """The seeded order in which a pass sends its submissions."""
    return [int(i) for i in np.random.default_rng(seed).permutation(count)]


def audit_graphs(test_set, seed: int) -> list:
    """The audit's fixed set -- the first held-out test graph of every
    family -- in a seeded order.

    The set is the same for every seed, so the audit's quality metrics
    and its cost do not depend on which graphs a seed drew: the test
    graphs of one family differ several-fold in size, and SubgraphX's
    cost grows with it.
    """
    by_family: dict[str, list] = {}
    for graph in test_set:
        by_family.setdefault(graph.family, []).append(graph)
    order = np.random.default_rng(seed).permutation(sorted(by_family))
    return [by_family[str(family)][0] for family in order]


# ----------------------------------------------------------------------
# checks and scores
# ----------------------------------------------------------------------
def explanation_problems(explanation, n_real: int) -> list[str]:
    problems = []
    if explanation is None:
        return ["no explanation"]
    scores = explanation.node_scores
    if scores is None or not np.all(np.isfinite(scores)):
        problems.append("non-finite node_scores")
    order = np.asarray(explanation.node_order)
    if order.shape != (n_real,) or not np.array_equal(np.sort(order), np.arange(n_real)):
        problems.append("node_order is not a permutation of the real blocks")
    return problems


def response_problems(response, sample: LabeledSample, families) -> list[str]:
    """Why a serving response is not a full, correct answer (empty: ok)."""
    if isinstance(response, BaseException):
        return [f"{type(response).__name__}: {response}"]
    if type(response) is not EngineResponse or response.degraded:
        return [f"not a full EngineResponse: {type(response).__name__}"]
    problems = explanation_problems(response.explanation, len(sample.cfg.blocks))
    if response.cached:
        problems.append("served from cache")
    if response.family not in families:
        problems.append(f"unknown family {response.family!r}")
    return problems


@dataclass(frozen=True)
class Score:
    auc: float
    sufficient: float
    necessary: float
    recall: float  # NaN when the sample has no planted signature block


def _span(recorder: SpanRecorder | None, name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def score(gnn, sample: LabeledSample, explanation, recorder=None) -> Score:
    """One explanation's ladder AUC, sufficiency, necessity and recall."""
    with _span(recorder, "eval.ladder"):
        fractions, accuracies = sweep_accuracy_curve(gnn, [explanation])
        auc = accuracy_auc(fractions, accuracies)
    with _span(recorder, "eval.cff"):
        sufficient = sufficiency(gnn, [explanation], TOP_FRACTION)
        necessary = necessity(gnn, [explanation], TOP_FRACTION)
    with _span(recorder, "eval.signature"):
        recall = signature_recovery(sample, explanation, TOP_FRACTION).recall
    return Score(auc, sufficient, necessary, recall)


def quality(scores: list[Score], correct: list[bool]) -> dict[str, float]:
    """Means over the scored explanations (0 when there are none; the
    run has then failed its checks).  ``math.fsum`` rounds exactly, so a
    mean does not depend on the order the seed sent the inputs in."""

    def mean(values) -> float:
        return math.fsum(values) / len(values) if len(values) else 0.0

    return {
        "served_accuracy": mean(correct),
        "subgraph_auc": mean([s.auc for s in scores]),
        "sufficiency": mean([s.sufficient for s in scores]),
        "necessity": mean([s.necessary for s in scores]),
        "signature_recall": mean([s.recall for s in scores if not math.isnan(s.recall)]),
    }


# ----------------------------------------------------------------------
# timed sections
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one timed section produced."""

    elapsed: float
    attempted: int
    ok: int
    explanations: int
    latencies_ms: list[float]
    quality: dict[str, float]
    problems: list[str]
    #: explainer name -> the first graph it explained (memory probe input)
    probe_graphs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def closed_loop(daemon, samples, clients: int):
    """``clients`` threads each submit, wait for the verdict, and submit
    again until every sample was sent.  Returns ``(results, elapsed)``;
    ``results[i]`` is ``(response or exception, latency_ms)``."""
    results: list = [None] * len(samples)
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(samples):
                    return
                cursor[0] += 1
            sent = time.perf_counter()
            try:
                response = daemon.submit(samples[index])
            except Exception as error:  # a failed request is counted, not fatal
                response = error
            results[index] = (response, (time.perf_counter() - sent) * 1000.0)

    threads = [
        threading.Thread(target=client, name=f"client-{k}") for k in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish within 150 s")
    return results, time.perf_counter() - start


def serve_pass(
    setup: Setup,
    samples: list[LabeledSample],
    clients: int,
    scored: set[str],
    recorder: SpanRecorder | None = None,
) -> Pass:
    """Drive a fresh default-config daemon with the default explainer,
    then check every response and score those to the programs named in
    ``scored``."""
    engine, gnn = setup.engine, setup.artifacts.gnn
    families = set(engine.families)
    registry = metrics_registry()
    before = registry.snapshot()
    daemon = ServeDaemon(engine)
    inst = None
    if recorder is not None:
        inst = instrument(recorder, gnn, _five(setup), engine=engine, daemon=daemon)
    try:
        with daemon:
            results, elapsed = closed_loop(daemon, samples, clients)
    finally:
        if inst is not None:
            inst.remove()
    counters = registry.delta_since(before)

    problems: list[str] = []
    ok = explained = 0
    fingerprints = []
    probe_graphs: dict[str, object] = {}
    for sample, (response, _) in zip(samples, results):
        found = response_problems(response, sample, families)
        problems.extend(f"{sample.program.name}: {p}" for p in found)
        ok += not found
        if isinstance(response, EngineResponse):
            fingerprints.append(response.fingerprint)
            if response.explanation is not None:
                explained += 1
                probe_graphs.setdefault(response.explainer, response.explanation.graph)

    scores, correct = [], []
    for sample, (response, _) in zip(samples, results):
        if sample.program.name not in scored:
            continue
        if isinstance(response, EngineResponse) and response.explanation is not None:
            scores.append(score(gnn, sample, response.explanation, recorder))
            correct.append(response.family == sample.family)
    if len(scores) != len(scored):
        problems.append(f"{len(scored) - len(scores)} scored requests got no explanation")
    return Pass(
        elapsed=elapsed,
        attempted=len(results),
        ok=ok,
        explanations=explained,
        latencies_ms=[latency for _, latency in results],
        quality=quality(scores, correct),
        problems=problems,
        probe_graphs=probe_graphs,
        extras={
            "cache_hits": counters.get("serve.cache.hit", 0.0),
            "degraded": sum(1 for r, _ in results if getattr(r, "degraded", False) is True),
            "retries": sum(
                v for k, v in counters.items() if k.startswith("resilience.retry.")
            ),
            "distinct_fingerprints": len(set(fingerprints)) == len(fingerprints),
        },
    )


def _five(setup: Setup) -> dict:
    return {name: setup.engine.explainers[name] for name in EXPLAINERS}


def audit_pass(setup: Setup, graphs: list, recorder: SpanRecorder | None = None) -> Pass:
    """Explain each graph with all five explainers and score every
    explanation; one graph is one request."""
    artifacts = setup.artifacts
    gnn = artifacts.gnn
    explainers = _five(setup)
    inst = None
    if recorder is not None:
        inst = instrument(recorder, gnn, explainers)
    problems: list[str] = []
    latencies: list[float] = []
    scores: list[Score] = []
    correct: list[bool] = []
    ok = 0
    start = time.perf_counter()
    try:
        for graph in graphs:
            sample = artifacts.sample_for(graph.name)
            sent = time.perf_counter()
            found = []
            predicted = set()
            for name, explainer in explainers.items():
                explanation = explainer.explain(graph)
                found += explanation_problems(explanation, graph.n_real)
                percents = [int(round(100 * f)) for f in explanation.fractions]
                if percents != CANONICAL_LADDER:
                    found.append(f"{name} ladder {percents}")
                predicted.add(explanation.predicted_class)
                scores.append(score(gnn, sample, explanation, recorder))
            latencies.append((time.perf_counter() - sent) * 1000.0)
            if len(predicted) != 1:
                found.append(f"explainers disagree on the predicted class: {predicted}")
            ok += not found
            problems.extend(f"{graph.name}: {p}" for p in found)
            correct.append(predicted == {graph.label})
    finally:
        elapsed = time.perf_counter() - start
        if inst is not None:
            inst.remove()
    return Pass(
        elapsed=elapsed,
        attempted=len(latencies),
        ok=ok,
        explanations=len(latencies) * len(explainers),
        latencies_ms=latencies,
        quality=quality(scores, correct),
        problems=problems,
        probe_graphs={name: graphs[0] for name in explainers},
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _measure(workload, setup, scale, seed, seconds, stream, recorder=None) -> Pass:
    if workload == "audit":
        graphs = audit_graphs(setup.artifacts.test_set, seed)
        return audit_pass(setup, graphs, recorder)
    count = max(scale.triage_scored, math.ceil(scale.triage_requests_per_second * seconds))
    pool = submissions(stream, count, scale.triage_multiplier)
    scored = {sample.program.name for sample in pool[: scale.triage_scored]}
    samples = [pool[i] for i in send_order(seed, count)]
    return serve_pass(setup, samples, min(2, _nproc()), scored, recorder)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """A finished run: metric values plus what the report prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str]
    details: dict
    recorder: SpanRecorder | None = None


WORKLOADS = ("triage", "audit")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: Scale = BENCH
) -> Outcome:
    """Set up, measure one workload and return every metric.

    Untraced runs return the end-to-end metrics.  Traced runs measure
    the workload untraced, then again traced -- triage on a second,
    disjoint set of submissions from the same seed so no cache is warm;
    audit on the same graphs, whose perturbation subgraphs have long
    left the 128-entry A-hat cache -- and return the per-layer metrics
    plus the tracing overhead between the two passes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    setup = run_setup(scale, trace)
    accuracy = setup.accuracies[-1]
    problems: list[str] = []
    if accuracy < scale.min_test_accuracy:
        problems.append(
            f"test_accuracy {accuracy:.4f} below the {scale.min_test_accuracy} floor"
        )
    if len(set(setup.accuracies)) != 1:
        problems.append(f"setup repeats disagree: accuracies {setup.accuracies}")

    measured = _measure(workload, setup, scale, seed, seconds, 0)
    problems += measured.problems
    if workload == "triage":
        if measured.extras["cache_hits"] != 0:
            problems.append(f"{measured.extras['cache_hits']:.0f} cache hits")
        if not measured.extras["distinct_fingerprints"]:
            problems.append("request fingerprints are not pairwise distinct")

    latencies = measured.latencies_ms
    tail_q, _, samples = tail_percentile(latencies)
    details = {
        "latency_samples": samples,
        "tail_percentile_supported": tail_q,
        "elapsed_s": measured.elapsed,
        "setup_seconds": setup.seconds,
    }
    metrics = {
        "setup_s": statistics.median(setup.seconds),
        "test_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests_per_s": measured.attempted / measured.elapsed,
        "explanations_per_s": measured.explanations / measured.elapsed,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "success_rate": measured.ok / measured.attempted,
        **measured.quality,
    }
    recorder = None
    if trace:
        recorder = SpanRecorder()
        traced = _measure(workload, setup, scale, seed, seconds, 1, recorder)
        problems += traced.problems
        peaks = allocation_peaks(_five(setup), traced.probe_graphs)
        metrics = layer_metrics(recorder, setup, measured, traced, peaks)
    failed = measured.attempted - measured.ok
    return Outcome(
        correct=not problems,
        attempted=measured.attempted,
        failed=failed,
        metrics=metrics,
        problems=problems,
        details=details,
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# per-layer metrics from the traced pass
# ----------------------------------------------------------------------
def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1000.0 if durations else 0.0


def allocation_peaks(explainers: dict, graphs: dict) -> dict[str, float]:
    """MiB each explainer allocates at its peak while explaining its
    first graph of the traced pass again, under ``tracemalloc``.

    Measured after the timed passes: tracing every allocation would
    distort the per-layer times.
    """
    peaks = {}
    for name, graph in graphs.items():
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            explainers[name].explain(graph)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - baseline) / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def layer_metrics(
    recorder: SpanRecorder, setup: Setup, untraced: Pass, traced: Pass, peaks: dict
):
    spans = recorder.spans
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)

    def durations(name: str) -> list[float]:
        return [s.duration for s in by_name.get(name, ())]

    def busy(prefix: str) -> float:
        return sum(selfs[s.id] for s in spans if s.name.startswith(prefix))

    forward_ids = {s.id for s in by_name.get("gnn.subgraph_forward", ())}
    # Dense re-embeds made by explainers, not the ones inside a
    # perturbation forward (those count as subgraph forwards).
    embeds = [s for s in by_name.get("gnn.embed", ()) if s.parent not in forward_ids]
    classify = by_name.get("gnn.classify", [])
    untraced_rate = untraced.attempted / untraced.elapsed
    traced_rate = traced.attempted / traced.elapsed

    metrics = {
        metric: statistics.median(values)
        for metric, values in setup.stage_seconds.items()
    }
    metrics.update(
        {
            "ingest.sanitize_ms": _p50_ms(durations("ingest.sanitize")),
            "ingest.verify_ms": _p50_ms(durations("ingest.verify")),
            "ingest.reduce_ms": _p50_ms(durations("ingest.reduce")),
            "ingest.admit_ms": _p50_ms(durations("ingest.admit")),
            "ingest.admits": len(durations("ingest.admit")),
            "ingest.rejected": sum(
                1 for s in by_name.get("ingest.admit", ()) if s.attrs.get("rejected")
            ),
            "ingest.busy_s": busy("ingest."),
            "daemon.queue_wait_ms": _p50_ms(durations("daemon.queue_wait")),
            "daemon.handoff_ms": _p50_ms(durations("daemon.handoff")),
            "daemon.batches": len(classify),
            "daemon.batch_size_mean": (
                statistics.mean(s.attrs["graphs"] for s in classify) if classify else 0.0
            ),
            "daemon.cache_hits": traced.extras.get("cache_hits", 0.0),
            "daemon.degraded": traced.extras.get("degraded", 0),
            "daemon.retries": traced.extras.get("retries", 0.0),
            "daemon.wait_s": busy("daemon."),
            "gnn.classify_ms": _p50_ms(durations("gnn.classify")),
            "gnn.classified": sum(s.attrs["graphs"] for s in classify),
            "gnn.embed_calls": len(embeds),
            "gnn.embed_ms": _p50_ms([s.duration for s in embeds]),
            "gnn.subgraph_forwards": len(forward_ids),
            "gnn.subgraph_forward_ms": _p50_ms(durations("gnn.subgraph_forward")),
            "gnn.busy_s": busy("gnn."),
            "explain.embedding_cache_entries": len(setup.artifacts.embedding_cache),
            "explain.busy_s": busy("explain."),
            "eval.ladder_ms": _p50_ms(durations("eval.ladder")),
            "eval.cff_ms": _p50_ms(durations("eval.cff")),
            "eval.signature_ms": _p50_ms(durations("eval.signature")),
            "eval.busy_s": busy("eval."),
            "request.latency_samples": len(traced.latencies_ms),
            "trace.requests_per_s_untraced": untraced_rate,
            "trace.requests_per_s_traced": traced_rate,
            "trace.overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
            "trace.spans": len(spans),
        }
    )
    for name in EXPLAINERS:
        calls = by_name.get(f"explain.{name}", [])
        metrics[f"explain.{name}_ms"] = _p50_ms([s.duration for s in calls])
        metrics[f"explain.{name}_calls"] = len(calls)
        metrics[f"explain.{name}_peak_alloc_mb"] = peaks.get(name, 0.0)
    return metrics

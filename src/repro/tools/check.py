"""One-shot repository health check: lint, tests, corpus invariants.

Run from the repository root::

    PYTHONPATH=src python -m repro.tools.check

or, after an editable install, simply ``repro-check``.  Three gates run
in order and the exit code is non-zero if any of them fails:

1. ``ruff check src tests`` — style and import-order lint (skipped
   with a notice when ruff is not installed; it is an optional dev
   dependency and the other gates do not need it).
2. The tier-1 pytest suite.
3. ``repro.staticcheck.verify_corpus`` in strict mode over a freshly
   generated corpus — the same CFG/ACFG invariant gate the evaluation
   pipeline runs.
4. A batching smoke test: on a tiny corpus the block-diagonal batched
   engine and the edge-list forward must match the dense per-graph
   reference the tests keep to 1e-8 (logits and embeddings), and
   Algorithm 2 its dense oracle exactly.
5. With ``--profile``, an observability smoke test: a tiny traced
   pipeline run must emit a well-formed ``RUN_MANIFEST.json`` whose
   span tree covers every stage with nonzero timings.
6. With ``--resume``, a crash-resume smoke test: a tiny pipeline is
   interrupted right after GNN training, then resumed against the same
   run directory — the resumed run must restore (not retrain) every
   completed stage, leaving the persisted GNN checkpoint bytes
   untouched.
7. With ``--lint``, the AST determinism lint (:mod:`repro.tools.lint`)
   over ``src/`` — unsorted set/dict-values iteration in
   ordering-sensitive contexts, unseeded randomness, and wall-clock
   seeds all fail the gate.
8. With ``--reduce``, a static-reduction smoke test: a tiny corpus is
   reduced with every pass enabled and the core invariants are checked
   directly — nodes never increase, merged features stay finite,
   importance mass is conserved through the lift map, and the default
   config is idempotent.
9. With ``--serve``, a serving smoke test: a tiny trained pipeline is
   wrapped in the :mod:`repro.serve` daemon (in process), one cold
   request and one repeat are served, and the repeat must be a cache
   hit bit-identical to the cold response.
10. With ``--chaos``, a resilience smoke test: the daemon is driven
    under a fault plan with nonzero probability at every stage — every
    submission must come back typed (full or degraded, never a raw
    exception), the circuit breaker must trip and recover, and with no
    fault plan the daemon must be bit-identical to a direct
    ``InferenceEngine.submit``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

__all__ = ["main"]

_SKIPPED = "skipped"


def _repo_root() -> Path:
    """The directory holding pyproject.toml, found from this file."""
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return Path.cwd()


def _run_ruff(root: Path) -> bool | str:
    if importlib.util.find_spec("ruff") is None:
        print("[check] ruff: not installed, skipping lint gate")
        return _SKIPPED
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests"],
        cwd=root,
    )
    return result.returncode == 0


def _run_pytest(root: Path) -> bool:
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return result.returncode == 0


def _run_corpus_verification(samples: int, seed: int) -> bool:
    from repro.malgen import generate_corpus
    from repro.staticcheck import CorpusVerificationError, verify_corpus

    corpus = generate_corpus(samples, seed=seed)
    try:
        report = verify_corpus(corpus, mode="strict")
    except CorpusVerificationError as error:
        print(error.report.summary())
        return False
    print(report.summary())
    return True


def _run_batching_smoke(root: Path, samples: int, seed: int, tolerance: float = 1e-8) -> bool:
    """Batched and edge-list engines against the dense references.

    The references live in the tests (``tests/reference_training.py``
    and ``tests/test_algorithm2_oracle.py``), so run this from a full
    checkout.  Checks the mini-batch forward against the dense per-graph
    forward, ``subgraph_proba_batch`` against a dense forward of each
    subgraph, ``weighted_edge_proba`` at a unit mask against the dense
    forward, CFExplainer's renormalized edge Â at all-keep against the
    dense Â, every block of the packed batch's CSR Â bit for bit
    against the scipy builder, and Algorithm 2's rung Â and node order
    exactly against the dense Â and the dense oracle.
    """
    import numpy as np

    from repro.acfg import ACFGDataset
    from repro.core import CFGExplainerModel, interpret
    from repro.core.interpret import rung_a_hat
    from repro.explain.counterfactual import RenormalizedEdges
    from repro.gnn import GCNClassifier, GraphBatch
    from repro.malgen import generate_corpus
    from repro.nn import Tensor, no_grad

    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tests import reference_training as reference
    from tests.test_algorithm2_oracle import dense_interpret

    dataset = ACFGDataset.from_corpus(generate_corpus(samples, seed=seed))
    model = GCNClassifier(hidden=(16, 8), rng=np.random.default_rng(seed))
    theta = CFGExplainerModel(8, dataset.num_classes, rng=np.random.default_rng(seed))
    mismatches = 0
    batch = GraphBatch.from_graphs(list(dataset))
    rng = np.random.default_rng(seed)
    with no_grad():
        z_batch, logits_batch = model.forward_batch(batch)
    worst = worst_subgraph = worst_edges = 0.0
    for i, graph in enumerate(dataset):
        with no_grad():
            z, probs_acfg = reference.dense_forward(model, graph)
            logits = model.logits(z)
        worst = max(
            worst,
            float(np.max(np.abs(z_batch.numpy()[batch.rows_of(i)] - z.numpy()))),
            float(np.max(np.abs(logits_batch.numpy()[i] - logits.numpy()))),
        )
        kept_sets = [np.flatnonzero(rng.random(graph.n_real) < 0.5) for _ in range(4)]
        batched = model.subgraph_proba_batch(graph, kept_sets)
        for probs, kept in zip(batched, kept_sets):
            mask = np.zeros(graph.n, dtype=bool)
            mask[kept] = True
            with no_grad():
                z = reference.dense_embed(
                    model, graph.subgraph_adjacency(kept), graph.masked_features(kept), mask
                )
                expected = model.classify(z).numpy()
            worst_subgraph = max(worst_subgraph, float(np.max(np.abs(probs - expected))))
        n_real = graph.n_real
        edges = RenormalizedEdges(graph)
        active = np.arange(graph.n) < n_real
        dense = reference.dense_a_hat(graph.adjacency, active)[:n_real, :n_real]
        with no_grad():
            a_hat = edges.a_hat(Tensor(np.ones(edges.count)))
            probs = model.weighted_edge_proba(graph, edges.rows, edges.cols, a_hat)
        worst_edges = max(
            worst_edges,
            float(np.max(np.abs(probs.numpy() - probs_acfg.numpy()))),
            float(np.max(np.abs(a_hat.numpy() - dense[edges.rows, edges.cols]))),
        )
        off_support = np.ones_like(dense, dtype=bool)
        off_support[edges.rows, edges.cols] = False
        worst_edges = max(worst_edges, float(np.max(np.abs(dense[off_support]), initial=0.0)))
        block = batch.rows_of(i)
        csr = batch.a_hat.matrix[block][:, block]
        built = reference.normalized_adjacency_csr(graph.adjacency, active)
        mismatches += not all(
            np.array_equal(getattr(csr, part), getattr(built, part))
            for part in ("indptr", "indices", "data")
        )
        keep = rng.random(n_real) < 0.5
        rung = reference.dense_a_hat(graph.subgraph_adjacency(np.flatnonzero(keep)), active)
        rows, cols, values = rung_a_hat(graph.self_looped_edges(), keep)
        rung_edges = np.zeros((n_real, n_real))
        rung_edges[rows, cols] = values
        mismatches += not np.array_equal(rung_edges, rung[:n_real, :n_real])
        expected = dense_interpret(theta, model, graph)[0]["node_order"]
        mismatches += not np.array_equal(interpret(theta, model, graph).node_order, expected)
    ok = max(worst, worst_subgraph, worst_edges) <= tolerance and not mismatches
    status = "ok" if ok else "FAILED"
    print(
        f"[check] batching smoke: {len(dataset)} graphs, "
        f"max |batched - per-graph| = {worst:.3e}, "
        f"max |batched - dense| over {4 * len(dataset)} subgraphs = "
        f"{worst_subgraph:.3e}, max |edge list - dense| = {worst_edges:.3e}, "
        f"Â / Algorithm 2 mismatches = {mismatches} "
        f"({status})"
    )
    return ok


def _run_profile_smoke() -> bool:
    """A tiny traced run must produce a coherent manifest and spans."""
    import tempfile
    from dataclasses import replace

    from repro.eval.profile import PROFILE_CONFIG, profile_pipeline

    config = replace(
        PROFILE_CONFIG,
        samples_per_family=2,
        gnn_epochs=8,
        explainer_epochs=10,
        gnnexplainer_epochs=3,
        pgexplainer_epochs=2,
        subgraphx_iterations=4,
        subgraphx_shapley_samples=1,
    )
    required_stages = (
        "pipeline.corpus",
        "pipeline.dataset",
        "pipeline.train",
        "pipeline.eval",
        "pipeline.explain",
    )
    with tempfile.TemporaryDirectory() as tmp:
        result = profile_pipeline(config, out_dir=tmp, graphs_per_explainer=1)
        data = json.loads(result.manifest_path.read_text())
    stats = data["span_stats"]
    missing = [s for s in required_stages if s not in stats]
    zero = [s for s in required_stages if s in stats and stats[s]["wall_seconds"] <= 0]
    roots = data["span_tree"]
    consistent = (
        len(roots) == 1
        and roots[0]["wall_seconds"] > 0
        and sum(c["wall_seconds"] for c in roots[0].get("children", []))
        <= roots[0]["wall_seconds"]
    )
    ok = not missing and not zero and consistent and data.get("fingerprint")
    status = "ok" if ok else "FAILED"
    detail = ""
    if missing:
        detail = f" missing stages: {missing}"
    if zero:
        detail += f" zero-time stages: {zero}"
    if not consistent:
        detail += " inconsistent root span"
    print(
        f"[check] profile smoke: {len(stats)} span names, "
        f"root wall {roots[0]['wall_seconds']:.2f}s ({status}){detail}"
    )
    return bool(ok)


def _run_resume_smoke() -> bool:
    """Interrupt a tiny pipeline after training, resume, assert skips."""
    import tempfile
    from dataclasses import replace

    from repro.eval.pipeline import PipelineInterrupted, run_pipeline
    from repro.eval.profile import PROFILE_CONFIG
    from repro.obs import metrics_registry

    config = replace(
        PROFILE_CONFIG,
        samples_per_family=2,
        gnn_epochs=8,
        explainer_epochs=10,
        gnnexplainer_epochs=3,
        pgexplainer_epochs=2,
        subgraphx_iterations=4,
        subgraphx_shapley_samples=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        try:
            run_pipeline(config, resume_from=run_dir, stop_after="gnn")
        except PipelineInterrupted:
            pass
        else:
            print("[check] resume smoke: stop_after='gnn' did not interrupt (FAILED)")
            return False
        gnn_bytes = (run_dir / "stages" / "gnn" / "gnn.npz").read_bytes()
        before = metrics_registry().snapshot()
        artifacts = run_pipeline(config, resume_from=run_dir)
        delta = metrics_registry().delta_since(before)
        restored = delta.get("pipeline.stage.restored", 0)
        unchanged = (run_dir / "stages" / "gnn" / "gnn.npz").read_bytes() == gnn_bytes
    ok = restored >= 3 and unchanged and artifacts.gnn_test_accuracy >= 0.0
    status = "ok" if ok else "FAILED"
    detail = "" if unchanged else " gnn checkpoint rewritten"
    print(
        f"[check] resume smoke: {restored} stages restored after interrupt, "
        f"gnn accuracy {artifacts.gnn_test_accuracy:.3f} ({status}){detail}"
    )
    return bool(ok)


def _run_determinism_lint(root: Path) -> bool:
    """The AST determinism lint must be clean over ``src/``."""
    from repro.tools.lint import lint_paths

    findings = lint_paths([root / "src"])
    for finding in findings:
        print(f"[check]   {finding}")
    status = "ok" if not findings else "FAILED"
    print(f"[check] determinism lint: {len(findings)} finding(s) ({status})")
    return not findings


def _run_reduce_smoke(samples: int = 3, seed: int = 0) -> bool:
    """Reduce a tiny corpus with every pass on; check the invariants."""
    import numpy as np

    from repro.acfg.graph import from_sample
    from repro.malgen import generate_corpus
    from repro.reduce import ReduceConfig, reduce_acfg

    config = ReduceConfig(
        prune_dead_stores=True,
        filter_leaves=True,
        leaf_max_in_degree=8,
        max_rounds=8,
    )
    corpus = generate_corpus(samples, seed=seed)
    nodes_before = nodes_after = 0
    problems: list[str] = []
    for sample in corpus:
        graph = from_sample(sample)
        result = reduce_acfg(graph, cfg=sample.cfg, config=config)
        nodes_before += graph.n_real
        nodes_after += result.graph.n_real
        name = sample.program.name
        if result.graph.n_real > graph.n_real:
            problems.append(f"{name}: node count grew")
        if not np.all(np.isfinite(result.graph.features)):
            problems.append(f"{name}: non-finite merged features")
        scores = np.arange(1.0, result.graph.n_real + 1.0)
        lifted = result.lift.lift_scores(scores)
        if abs(float(lifted.sum()) - float(scores.sum())) > 1e-6 * scores.sum():
            problems.append(f"{name}: importance mass not conserved")
        # Default config must be a fixpoint of its own output.
        once = reduce_acfg(graph, cfg=sample.cfg)
        twice = reduce_acfg(once.graph)
        if twice.graph.n_real != once.graph.n_real:
            problems.append(f"{name}: default reduction not idempotent")
    for problem in problems:
        print(f"[check]   {problem}")
    ok = not problems
    status = "ok" if ok else "FAILED"
    print(
        f"[check] reduce smoke: {len(corpus)} graphs, "
        f"{nodes_before} -> {nodes_after} nodes ({status})"
    )
    return ok


def _run_serve_smoke() -> bool:
    """Serve one cold and one cached request through the daemon."""
    from dataclasses import replace

    import numpy as np

    from repro.eval.pipeline import run_pipeline
    from repro.eval.profile import PROFILE_CONFIG
    from repro.serve import DaemonConfig, ServeDaemon

    config = replace(
        PROFILE_CONFIG,
        samples_per_family=2,
        gnn_epochs=8,
        explainer_epochs=10,
        gnnexplainer_epochs=3,
        pgexplainer_epochs=2,
        subgraphx_iterations=4,
        subgraphx_shapley_samples=1,
    )
    artifacts = run_pipeline(config)
    sample = artifacts.corpus[0]
    problems: list[str] = []
    with ServeDaemon(artifacts.engine(), DaemonConfig()) as daemon:
        cold = daemon.submit(sample)
        warm = daemon.submit(sample)
    if cold.cached or not warm.cached:
        problems.append("repeat submission was not served from the cache")
    if warm.fingerprint != cold.fingerprint:
        problems.append("fingerprint changed between identical submissions")
    if not (
        np.array_equal(warm.probabilities, cold.probabilities)
        and np.array_equal(warm.explanation.node_order, cold.explanation.node_order)
        and np.array_equal(warm.explanation.node_scores, cold.explanation.node_scores)
    ):
        problems.append("cached response not bit-identical to cold response")
    for problem in problems:
        print(f"[check]   {problem}")
    ok = not problems
    status = "ok" if ok else "FAILED"
    print(
        f"[check] serve smoke: cold+cached request for "
        f"{cold.name!r} (family {cold.family}, "
        f"fingerprint {cold.fingerprint[:12]}) ({status})"
    )
    return ok


def _run_chaos_smoke() -> bool:
    """Serving under an aggressive fault plan must stay typed end to end.

    Two phases over a tiny untrained stack (cheap: gradient saliency
    explainer, no training loops):

    1. Chaos: a daemon under a plan with fault probability > 0 at every
       stage serves the whole corpus twice.  Every submission must get
       a typed response (full or ``DegradedResponse``) — never a raw
       exception — and the per-stage circuit breaker must both trip
       and recover at least once.
    2. Identity: with no fault plan, the daemon's response must be
       bit-identical to a direct ``engine.submit`` — the resilience
       seam is free when inactive.
    """
    import numpy as np

    from repro.acfg import ACFGDataset, FeatureScaler
    from repro.baselines.gradient import GradientExplainer
    from repro.gnn import GCNClassifier
    from repro.malgen import generate_corpus
    from repro.obs import metrics_registry
    from repro.resilience import FaultPlan, FaultSpec, ResilienceConfig
    from repro.serve import (
        DaemonConfig,
        InferenceEngine,
        RequestRejected,
        ServeDaemon,
    )

    corpus = generate_corpus(2, seed=0)
    dataset = ACFGDataset.from_corpus(corpus)
    model = GCNClassifier(hidden=(8, 8), rng=np.random.default_rng(0))
    engine = InferenceEngine(
        gnn=model,
        scaler=FeatureScaler().fit(list(dataset)),
        explainers={"Gradient": GradientExplainer(model)},
        families=dataset.families,
        default_explainer="Gradient",
    )
    plan = FaultPlan(
        seed=7,
        stages={
            "sanitize": FaultSpec(error=0.05, latency=0.05, latency_ms=2.0),
            "verify": FaultSpec(error=0.05, nonfinite=0.05),
            "reduce": FaultSpec(error=0.05, latency=0.05, latency_ms=2.0),
            "classify": FaultSpec(error=0.45, nonfinite=0.15),
            "explain": FaultSpec(error=0.45, nonfinite=0.15),
        },
    )
    config = DaemonConfig(
        cache_capacity=0,
        resilience=ResilienceConfig(
            deadline_ms=5000.0, breaker_threshold=2, breaker_cooldown_ms=1.0
        ),
    )
    problems: list[str] = []
    answered = degraded = unhandled = 0
    before = metrics_registry().snapshot()
    with ServeDaemon(engine, config, fault_plan=plan) as daemon:
        for sample in list(corpus) + list(corpus):
            try:
                response = daemon.submit(sample)
            except RequestRejected:
                answered += 1
                continue
            except Exception as error:  # noqa: BLE001 - the contract under test
                unhandled += 1
                problems.append(
                    f"unhandled {type(error).__name__} escaped submit: {error}"
                )
                continue
            answered += 1
            if getattr(response, "degraded", False):
                degraded += 1
            if not np.all(np.isfinite(np.asarray(response.probabilities))):
                problems.append(
                    f"non-finite probabilities served for {response.name!r}"
                )
    delta = metrics_registry().delta_since(before)
    faults = sum(
        count for name, count in delta.items()
        if name.startswith("resilience.fault.")
    )
    trips = sum(
        count for name, count in delta.items()
        if name.startswith("resilience.breaker.") and name.endswith(".trip")
    )
    recoveries = sum(
        count for name, count in delta.items()
        if name.startswith("resilience.breaker.") and name.endswith(".recover")
    )
    if faults == 0:
        problems.append("fault plan injected nothing")
    if trips == 0:
        problems.append("circuit breaker never tripped under chaos")
    if recoveries == 0:
        problems.append("circuit breaker never recovered after tripping")

    # Phase 2: with no fault plan the daemon must add nothing.
    sample = corpus[0]
    direct = engine.submit(sample)
    with ServeDaemon(engine, DaemonConfig()) as clean_daemon:
        served = clean_daemon.submit(sample)
    if served.degraded or served.fingerprint != direct.fingerprint:
        problems.append("clean daemon response diverged from engine.submit")
    elif not (
        np.array_equal(served.probabilities, direct.probabilities)
        and np.array_equal(
            served.explanation.node_order, direct.explanation.node_order
        )
        and np.array_equal(
            served.explanation.node_scores, direct.explanation.node_scores
        )
    ):
        problems.append("clean daemon response not bit-identical to engine.submit")

    for problem in problems:
        print(f"[check]   {problem}")
    ok = not problems
    status = "ok" if ok else "FAILED"
    print(
        f"[check] chaos smoke: {answered} typed responses "
        f"({degraded} degraded, {unhandled} unhandled), {faults} faults, "
        f"{trips} breaker trip(s), {recoveries} recover(ies) ({status})"
    )
    return ok


def _run_fuzz_smoke(iterations: int = 500, seed: int = 0) -> bool:
    """A seeded fuzz campaign must finish with zero unhandled crashes.

    Drives ``iterations`` mutated listings through parser → CFG →
    features → sanitizer → GNN forward (every k-th survivor through all
    five explainers); any crash, sanitizer miss, or non-finite output
    fails the gate and prints its minimized repro.
    """
    from repro.harden.fuzz import FuzzConfig, run_fuzz

    hostile_dir = _repo_root() / "tests" / "data" / "hostile"
    report = run_fuzz(
        FuzzConfig(
            iterations=iterations,
            seed=seed,
            hostile_dir=hostile_dir if hostile_dir.is_dir() else None,
        )
    )
    status = "ok" if report.ok else "FAILED"
    print(
        f"[check] fuzz smoke: {report.iterations} mutations, "
        f"{report.parsed} parsed, {report.quarantined} quarantined, "
        f"{report.reduced} reduced, {report.forwards} forwards, "
        f"{report.explained} explained, "
        f"{len(report.crashes)} crash(es) ({status})"
    )
    for crash in report.crashes:
        print(
            f"[check]   crash iter={crash.iteration} stage={crash.stage} "
            f"{crash.error_type}: {crash.message}"
        )
        if crash.text:
            print("[check]   minimized repro:")
            for line in crash.text.splitlines():
                print(f"[check]     {line}")
    return report.ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="One-shot repository health check."
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also run the observability smoke gate (traced tiny pipeline)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="also run the crash-resume smoke gate (interrupt + resume a "
        "tiny checkpointed pipeline)",
    )
    parser.add_argument(
        "--fuzz",
        action="store_true",
        help="also run the hostile-input fuzz gate (500 seeded mutations "
        "through parser→CFG→GNN→explainers, zero crashes required)",
    )
    parser.add_argument(
        "--fuzz-iterations",
        type=int,
        default=500,
        help="mutation count for the --fuzz gate",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="also run the AST determinism lint over src/",
    )
    parser.add_argument(
        "--reduce",
        action="store_true",
        help="also run the static-reduction smoke gate (all passes on a "
        "tiny corpus, invariants checked directly)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also run the serving smoke gate (in-process daemon, one "
        "cold and one cached request, bit-identical responses)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="also run the resilience smoke gate (daemon under an "
        "every-stage fault plan: 100%% typed responses, breaker "
        "trip+recover; no-plan serving bit-identical to the engine)",
    )
    args = parser.parse_args(argv)
    root = _repo_root()
    results: dict[str, bool | str] = {}

    print(f"[check] repository root: {root}")
    results["ruff"] = _run_ruff(root)
    results["pytest"] = _run_pytest(root)
    results["corpus verification"] = _run_corpus_verification(
        samples=3, seed=0
    )
    results["batching smoke"] = _run_batching_smoke(root, samples=2, seed=0)
    if args.profile:
        results["profile smoke"] = _run_profile_smoke()
    if args.resume:
        results["resume smoke"] = _run_resume_smoke()
    if args.lint:
        results["determinism lint"] = _run_determinism_lint(root)
    if args.reduce:
        results["reduce smoke"] = _run_reduce_smoke(samples=3, seed=0)
    if args.serve:
        results["serve smoke"] = _run_serve_smoke()
    if args.chaos:
        results["chaos smoke"] = _run_chaos_smoke()
    if args.fuzz:
        results["fuzz smoke"] = _run_fuzz_smoke(iterations=args.fuzz_iterations)

    print("\n[check] summary")
    failed = False
    for gate, outcome in results.items():
        if outcome == _SKIPPED:
            status = "SKIP"
        elif outcome:
            status = "PASS"
        else:
            status = "FAIL"
            failed = True
        print(f"  {gate:<20} {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The full experimental pipeline: corpus → GNN → explainers.

``run_pipeline`` performs every setup step of Section V — generate the
(synthetic) dataset, train the GCN classifier, train CFGExplainer's Θ
and PGExplainer's mask predictor offline — and returns the artifacts
the individual experiments (Figure 2, Tables III–V) consume.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import kept lazy at runtime, like staticcheck's
    from repro.acfg.ingest import IngestPolicy
    from repro.harden.sanitize import QuarantineReport
    from repro.serve.engine import InferenceEngine

from repro.acfg import ACFGDataset, FeatureScaler, train_test_split
from repro.baselines import (
    GNNExplainerBaseline,
    PGExplainerBaseline,
    SubgraphXBaseline,
)
from repro.core import CFGExplainer, CFGExplainerModel, train_cfgexplainer
from repro.explain.base import Explainer
from repro.explain.counterfactual import CFExplainer
from repro.gnn import (
    EmbeddingCache,
    GCNClassifier,
    evaluate_accuracy,
    train_gnn,
)
from repro.malgen import generate_corpus
from repro.malgen.corpus import LabeledSample
from repro.nn.serialize import load_module_into, save_module
from repro.obs import add_counter, span as obs_span
from repro.reduce import LiftMap, ReduceConfig

__all__ = [
    "EXECUTION_ONLY_FIELDS",
    "ExperimentConfig",
    "PAPER_SCALE_CONFIG",
    "PIPELINE_STAGES",
    "PipelineArtifacts",
    "PipelineInterrupted",
    "build_untrained_artifacts",
    "run_pipeline",
]

#: Config fields that steer *how* a run executes (scheduling, gating)
#: without affecting any trained weight or measured number.  Checkpoint
#: compatibility validation ignores them: a pipeline trained serially
#: may be resumed or swept with any worker count.
EXECUTION_ONLY_FIELDS: frozenset[str] = frozenset(
    {
        "num_workers",
        "task_timeout_seconds",
        "task_retries",
        "retry_backoff_seconds",
        "verify_mode",
    }
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of the evaluation, with scaled-down defaults.

    ``PAPER_SCALE_CONFIG`` records the values the paper used on its
    Tesla P100; the defaults here run the full pipeline in a couple of
    minutes on CPU while keeping every architectural ratio.
    """

    # dataset
    samples_per_family: int = 20
    corpus_seed: int = 0
    size_multiplier: int = 3
    test_fraction: float = 0.25

    # GNN classifier Φ
    gnn_hidden: tuple[int, ...] = (64, 48, 32)
    gnn_epochs: int = 150
    gnn_batch_size: int = 16
    gnn_lr: float = 0.005

    #: Graphs per batched inference pass (evaluation, embedding cache).
    eval_batch_size: int = 64

    # CFGExplainer Θ
    explainer_epochs: int = 600
    explainer_minibatch: int = 16
    explainer_lr: float = 0.003

    # baselines
    gnnexplainer_epochs: int = 60
    pgexplainer_epochs: int = 12
    subgraphx_iterations: int = 25
    subgraphx_shapley_samples: int = 4

    # CFExplainer (counterfactual edge deletion; local, no offline stage)
    cfexplainer_iterations: int = 150
    cfexplainer_lr: float = 0.3
    cfexplainer_l1: float = 0.002

    # evaluation
    step_size: int = 10
    seed: int = 0

    #: Corpus invariant gate (repro.staticcheck): "strict" fails the run
    #: on any CFG/ACFG invariant violation, "warn" downgrades to a
    #: warning, None skips verification.
    verify_mode: str | None = "strict"

    #: Hostile-input ingestion policy (repro.harden): "quarantine" drops
    #: samples with fatal sanitizer findings and reports them on the
    #: artifacts, "raise" aborts on the first one, None (default) trusts
    #: the corpus.  Quarantine runs before the verify gate so hostile
    #: samples cannot crash the verifier.
    on_bad_input: str | None = None

    #: Static-analysis graph reduction (repro.reduce): a ReduceConfig
    #: shrinks every graph after quarantine + verification and before
    #: padding, recording per-graph lift maps on the artifacts; None
    #: (default) trains on the full graphs.  This is an identity-
    #: affecting field — checkpoints pin it.
    reduce: ReduceConfig | None = None

    # execution (repro.exec scheduler)
    #: Worker processes for the per-family sweeps and timing loops.
    #: 1 keeps the exact serial reference path (no subprocesses).
    num_workers: int = 1
    #: Per-task wall-clock timeout; a task over budget has its worker
    #: terminated and is retried/failed.  Enforced only with worker
    #: processes (``num_workers > 1``).  None disables the timeout.
    task_timeout_seconds: float | None = None
    #: Attempts beyond the first before a task becomes a TaskFailure.
    task_retries: int = 1
    #: Base delay before a retry (doubled per further attempt).
    retry_backoff_seconds: float = 0.5

    def __post_init__(self):
        # JSON/checkpoint round-trips turn tuples into lists; coerce
        # sequence fields so equality and hashing behave.
        object.__setattr__(
            self, "gnn_hidden", tuple(int(width) for width in self.gnn_hidden)
        )
        # JSON round-trips also flatten the nested ReduceConfig to a
        # plain dict; coerce it back so equality and validation hold.
        if isinstance(self.reduce, dict):
            object.__setattr__(self, "reduce", ReduceConfig(**self.reduce))
        if self.reduce is not None and not isinstance(self.reduce, ReduceConfig):
            raise ValueError(
                f"reduce must be a ReduceConfig or None, got {self.reduce!r}"
            )
        if self.samples_per_family <= 1:
            raise ValueError("need at least 2 samples per family to split")
        if self.eval_batch_size <= 0:
            raise ValueError("eval_batch_size must be positive")
        if self.verify_mode not in (None, "strict", "warn"):
            raise ValueError(
                f"verify_mode must be None, 'strict' or 'warn', got "
                f"{self.verify_mode!r}"
            )
        if self.on_bad_input not in (None, "quarantine", "raise"):
            raise ValueError(
                f"on_bad_input must be None, 'quarantine' or 'raise', got "
                f"{self.on_bad_input!r}"
            )
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise ValueError("task_timeout_seconds must be positive or None")
        if self.task_retries < 0:
            raise ValueError("task_retries cannot be negative")
        if self.retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds cannot be negative")

    def ingest_policy(self, verify: str | None = "config") -> "IngestPolicy":
        """The :class:`repro.acfg.IngestPolicy` this config implies.

        ``verify="config"`` (default) uses :attr:`verify_mode`; pass an
        explicit value (e.g. ``None`` for a corpus restored from a
        checkpoint that already passed the gate) to override it.
        """
        from repro.acfg import IngestPolicy

        return IngestPolicy(
            on_bad_input=self.on_bad_input,
            verify=self.verify_mode if verify == "config" else verify,
            reduce=self.reduce,
        )


#: The configuration reported in the paper (Section V-A), for reference
#: and for anyone with the hardware to run at full scale.
PAPER_SCALE_CONFIG = ExperimentConfig(
    samples_per_family=88,  # 1056 graphs / 12 families
    size_multiplier=20,  # graphs up to ~7000 blocks, like YANCFG
    gnn_hidden=(1024, 512, 128),
    gnn_epochs=500,
    explainer_epochs=2000,
)


@dataclass
class PipelineArtifacts:
    """Everything the experiments need, produced once by ``run_pipeline``."""

    config: ExperimentConfig
    corpus: list[LabeledSample]
    train_set: ACFGDataset
    test_set: ACFGDataset
    scaler: FeatureScaler
    gnn: GCNClassifier
    gnn_test_accuracy: float
    explainers: dict[str, Explainer]
    offline_training_seconds: dict[str, float] = field(default_factory=dict)
    samples_by_name: dict[str, LabeledSample] = field(default_factory=dict)
    #: Shared frozen-GNN forward cache over the train and test splits;
    #: CFGExplainer training and PGExplainer read Z / predictions from
    #: it instead of re-running Φ.
    embedding_cache: EmbeddingCache | None = None
    #: Ingestion quarantine report (repro.harden), present when the
    #: config's ``on_bad_input`` policy was active.
    quarantine: "QuarantineReport | None" = None
    #: ``graph name -> LiftMap`` when the config enabled reduction
    #: (repro.reduce); experiments use it to lift reduced explanations
    #: back onto original blocks.  None for unreduced runs.
    lift_maps: dict[str, LiftMap] | None = None

    def sample_for(self, graph_name: str) -> LabeledSample:
        return self.samples_by_name[graph_name]

    def lift_map_for(self, graph_name: str) -> LiftMap | None:
        """The lift map of one graph, or None for unreduced runs."""
        if self.lift_maps is None:
            return None
        return self.lift_maps.get(graph_name)

    def engine(self, explainer: str = "CFGExplainer") -> "InferenceEngine":
        """A serving :class:`repro.serve.InferenceEngine` over these
        frozen artifacts (lazy import: repro.serve depends on this
        module's consumers, not the other way around)."""
        from repro.serve.engine import InferenceEngine

        return InferenceEngine.from_artifacts(self, explainer=explainer)


#: Stage names persisted by a checkpointed :func:`run_pipeline`, in
#: execution order.  Sweep shards are persisted separately by
#: :func:`repro.exec.sweeps.run_sweeps`.
PIPELINE_STAGES: tuple[str, ...] = (
    "corpus",
    "dataset",
    "gnn",
    "theta",
    "pgexplainer",
)


class PipelineInterrupted(RuntimeError):
    """Raised by ``run_pipeline(..., stop_after=...)`` once the named
    stage has been computed and persisted — a controlled stand-in for a
    crash, used by the resume tests and the ``repro-check --resume``
    smoke gate."""

    def __init__(self, stage: str):
        super().__init__(f"pipeline interrupted after stage {stage!r}")
        self.stage = stage


def _build_classifier(config: ExperimentConfig, train_set, num_classes: int):
    return GCNClassifier(
        in_features=train_set[0].num_features,
        hidden=config.gnn_hidden,
        num_classes=num_classes,
        rng=np.random.default_rng(config.seed),
    )


def _explainers(
    config: ExperimentConfig,
    gnn: GCNClassifier,
    theta: CFGExplainerModel,
    pg: PGExplainerBaseline,
    seed: int,
) -> dict[str, Explainer]:
    """The five explainers a pipeline run serves, in table order."""
    return {
        "CFGExplainer": CFGExplainer(gnn, theta),
        "GNNExplainer": GNNExplainerBaseline(
            gnn, epochs=config.gnnexplainer_epochs, seed=seed
        ),
        "SubgraphX": SubgraphXBaseline(
            gnn,
            mcts_iterations=config.subgraphx_iterations,
            shapley_samples=config.subgraphx_shapley_samples,
            seed=seed,
        ),
        "PGExplainer": pg,
        "CFExplainer": CFExplainer(
            gnn,
            iterations=config.cfexplainer_iterations,
            lr=config.cfexplainer_lr,
            l1_weight=config.cfexplainer_l1,
            seed=seed,
        ),
    }


def build_untrained_artifacts(config: ExperimentConfig) -> PipelineArtifacts:
    """Build the full pipeline skeleton without training anything.

    Corpus, dataset, split and scaler are rebuilt deterministically from
    the config (the corpus is *not* re-verified: it passed the gate on
    the original run).  The GNN, CFGExplainer's Θ and PGExplainer's
    predictor come out freshly initialized and are expected to be
    overwritten by :func:`repro.eval.persistence.load_models_into` —
    this is how :mod:`repro.exec` worker processes rebuild the frozen
    models from a serialized spec.
    """
    corpus = generate_corpus(
        config.samples_per_family,
        seed=config.corpus_seed,
        size_multiplier=config.size_multiplier,
    )
    dataset = ACFGDataset.from_corpus(corpus, policy=config.ingest_policy(verify=None))
    train_raw, test_raw = train_test_split(
        dataset, config.test_fraction, seed=config.seed
    )
    scaler = FeatureScaler().fit(list(train_raw))
    train_set, test_set = train_raw.scaled(scaler), test_raw.scaled(scaler)

    gnn = _build_classifier(config, train_set, dataset.num_classes)
    embedding_cache = EmbeddingCache(gnn)
    theta = CFGExplainerModel(
        gnn.embedding_size,
        dataset.num_classes,
        rng=np.random.default_rng(config.seed + 1),
    )
    pg = PGExplainerBaseline(
        gnn,
        epochs=config.pgexplainer_epochs,
        seed=config.seed,
        embedding_cache=embedding_cache,
    )
    return PipelineArtifacts(
        config=config,
        corpus=corpus,
        train_set=train_set,
        test_set=test_set,
        scaler=scaler,
        gnn=gnn,
        gnn_test_accuracy=float("nan"),
        explainers=_explainers(config, gnn, theta, pg, config.seed),
        samples_by_name={s.program.name: s for s in corpus},
        embedding_cache=embedding_cache,
        quarantine=dataset.quarantine,
        lift_maps=dataset.lift_maps,
    )


def run_pipeline(
    config: ExperimentConfig | None = None,
    verbose: bool = False,
    resume_from: str | Path | None = None,
    stop_after: str | None = None,
    corpus_transform=None,
) -> PipelineArtifacts:
    """Run the whole setup stage and return the experiment artifacts.

    Stage boundaries are traced (``pipeline.corpus`` → ``.dataset`` →
    ``.train`` → ``.eval`` → ``.explain``) when a
    :func:`repro.obs.tracing` context is active; untraced runs pay
    nothing.  ``python -m repro.eval profile`` renders the resulting
    span tree and writes the :class:`~repro.obs.RunManifest`.

    ``resume_from`` names a run directory: every completed stage
    (:data:`PIPELINE_STAGES`) is persisted there atomically, and a rerun
    pointing at the same directory restores completed stages instead of
    recomputing them — a run killed after GNN training resumes without
    retraining.  The directory pins the experiment config; resuming with
    an incompatible config raises (execution-only knobs such as
    ``num_workers`` may differ).  ``stop_after`` (requires
    ``resume_from``) raises :class:`PipelineInterrupted` right after the
    named stage persists, simulating a mid-run crash.

    ``corpus_transform`` is an optional hook applied to the freshly
    generated corpus before dataset construction — the robustness drill
    uses it to splice in hostile samples
    (:func:`repro.harden.inject_hostile`) that the config's
    ``on_bad_input`` policy must then quarantine.  It runs only on
    generation, never on a corpus restored from a checkpoint.
    """
    config = config or ExperimentConfig()
    rng_seed = config.seed

    store = None
    if resume_from is not None:
        from repro.eval.persistence import StageStore

        store = StageStore(resume_from)
        store.bind_config(config)
    if stop_after is not None:
        if store is None:
            raise ValueError("stop_after requires resume_from")
        if stop_after not in PIPELINE_STAGES:
            raise ValueError(
                f"stop_after must be one of {PIPELINE_STAGES}, got {stop_after!r}"
            )

    def restored(stage: str) -> bool:
        return store is not None and store.complete(stage)

    def note_restored(stage: str) -> None:
        add_counter("pipeline.stage.restored")
        print(f"[resume] stage {stage}: restored from {store.path(stage)}")

    def note_persisted(stage: str) -> None:
        add_counter("pipeline.stage.persisted")
        if verbose:
            print(f"[resume] stage {stage}: persisted to {store.path(stage)}")

    def maybe_stop(stage: str) -> None:
        if stop_after == stage:
            raise PipelineInterrupted(stage)

    with obs_span("pipeline.corpus"):
        if restored("corpus"):
            corpus = pickle.loads((store.path("corpus") / "corpus.pkl").read_bytes())
            note_restored("corpus")
        else:
            corpus = generate_corpus(
                config.samples_per_family,
                seed=config.corpus_seed,
                size_multiplier=config.size_multiplier,
            )
            if corpus_transform is not None:
                corpus = corpus_transform(corpus)
            if store is not None:
                with store.writing("corpus") as tmp:
                    (tmp / "corpus.pkl").write_bytes(pickle.dumps(corpus))
                note_persisted("corpus")
    maybe_stop("corpus")

    with obs_span("pipeline.dataset"):
        dataset_restored = restored("dataset")
        # A restored corpus already passed the invariant gate on the
        # original run; don't pay for re-verification.
        dataset = ACFGDataset.from_corpus(
            corpus,
            policy=config.ingest_policy(
                verify=None if dataset_restored else "config"
            ),
        )
        train_raw, test_raw = train_test_split(
            dataset, config.test_fraction, seed=rng_seed
        )
        scaler = FeatureScaler()
        if dataset_restored:
            from repro.eval.persistence import CheckpointError, validate_scale_vector

            stage_dir = store.path("dataset")
            split = json.loads((stage_dir / "split.json").read_text())
            if (
                [g.name for g in train_raw] != split["train"]
                or [g.name for g in test_raw] != split["test"]
            ):
                raise CheckpointError(
                    "stored train/test split does not match the regenerated corpus"
                )
            scale = np.load(stage_dir / "scaler.npy")
            validate_scale_vector(scale, (train_raw[0].num_features,))
            scaler.scale = scale
            note_restored("dataset")
        else:
            scaler.fit(list(train_raw))
            if store is not None:
                with store.writing("dataset") as tmp:
                    (tmp / "split.json").write_text(
                        json.dumps(
                            {
                                "train": [g.name for g in train_raw],
                                "test": [g.name for g in test_raw],
                            }
                        )
                    )
                    np.save(tmp / "scaler.npy", scaler.scale)
                note_persisted("dataset")
        train_set, test_set = train_raw.scaled(scaler), test_raw.scaled(scaler)
    maybe_stop("dataset")

    if verbose:
        print(
            f"corpus: {len(corpus)} graphs, padded to N={dataset.n}; "
            f"train={len(train_set)} test={len(test_set)}"
        )

    gnn = _build_classifier(config, train_set, dataset.num_classes)
    with obs_span("pipeline.train"):
        if restored("gnn"):
            load_module_into(gnn, store.path("gnn") / "gnn.npz")
            note_restored("gnn")
        else:
            train_gnn(
                gnn,
                train_set,
                epochs=config.gnn_epochs,
                batch_size=config.gnn_batch_size,
                lr=config.gnn_lr,
                seed=rng_seed,
                verbose=verbose,
            )
            if store is not None:
                with store.writing("gnn") as tmp:
                    save_module(gnn, tmp / "gnn.npz")
                note_persisted("gnn")
    maybe_stop("gnn")

    with obs_span("pipeline.eval"):
        gnn_accuracy = evaluate_accuracy(
            gnn, test_set, batch_size=config.eval_batch_size
        )
        if verbose:
            print(f"GNN test accuracy: {gnn_accuracy:.3f}")

        # One shared cache of frozen-GNN forwards over both splits: Z and
        # predictions computed here feed CFGExplainer training,
        # PGExplainer's offline stage and the Figure 2 / Tables III-IV
        # experiments.
        embedding_cache = EmbeddingCache(gnn)
        embedding_cache.populate(train_set, batch_size=config.eval_batch_size)
        embedding_cache.populate(test_set, batch_size=config.eval_batch_size)

    offline: dict[str, float] = {}

    with obs_span("pipeline.explain"):
        with obs_span("pipeline.explain.CFGExplainer"):
            theta = CFGExplainerModel(
                gnn.embedding_size,
                dataset.num_classes,
                rng=np.random.default_rng(rng_seed + 1),
            )
            if restored("theta"):
                load_module_into(theta, store.path("theta") / "theta.npz")
                stored_offline = json.loads(
                    (store.path("theta") / "offline.json").read_text()
                )
                offline["CFGExplainer"] = stored_offline["seconds"]
                note_restored("theta")
            else:
                start = time.perf_counter()
                train_cfgexplainer(
                    theta,
                    gnn,
                    train_set,
                    num_epochs=config.explainer_epochs,
                    minibatch_size=config.explainer_minibatch,
                    lr=config.explainer_lr,
                    seed=rng_seed,
                    embedding_cache=embedding_cache,
                )
                offline["CFGExplainer"] = time.perf_counter() - start
                if store is not None:
                    with store.writing("theta") as tmp:
                        save_module(theta, tmp / "theta.npz")
                        (tmp / "offline.json").write_text(
                            json.dumps({"seconds": offline["CFGExplainer"]})
                        )
                    note_persisted("theta")
        maybe_stop("theta")

        with obs_span("pipeline.explain.PGExplainer"):
            pg = PGExplainerBaseline(
                gnn,
                epochs=config.pgexplainer_epochs,
                seed=rng_seed,
                embedding_cache=embedding_cache,
            )
            if restored("pgexplainer"):
                load_module_into(
                    pg.predictor, store.path("pgexplainer") / "pg_predictor.npz"
                )
                pg._trained = True
                stored_offline = json.loads(
                    (store.path("pgexplainer") / "offline.json").read_text()
                )
                offline["PGExplainer"] = stored_offline["seconds"]
                note_restored("pgexplainer")
            else:
                start = time.perf_counter()
                pg.fit(train_set)
                offline["PGExplainer"] = time.perf_counter() - start
                if store is not None:
                    with store.writing("pgexplainer") as tmp:
                        save_module(pg.predictor, tmp / "pg_predictor.npz")
                        (tmp / "offline.json").write_text(
                            json.dumps({"seconds": offline["PGExplainer"]})
                        )
                    note_persisted("pgexplainer")
        maybe_stop("pgexplainer")
        offline["GNNExplainer"] = 0.0  # local method: no offline stage
        offline["SubgraphX"] = 0.0
        offline["CFExplainer"] = 0.0

    return PipelineArtifacts(
        config=config,
        corpus=corpus,
        train_set=train_set,
        test_set=test_set,
        scaler=scaler,
        gnn=gnn,
        gnn_test_accuracy=gnn_accuracy,
        explainers=_explainers(config, gnn, theta, pg, rng_seed),
        offline_training_seconds=offline,
        samples_by_name={s.program.name: s for s in corpus},
        embedding_cache=embedding_cache,
        quarantine=dataset.quarantine,
        lift_maps=dataset.lift_maps,
    )

"""Saving and restoring trained pipeline state — crash-safely.

``run_pipeline`` takes a couple of minutes; analysts iterating on
explanations shouldn't retrain for every script run.  ``save_models``
writes the GNN, CFGExplainer's Θ, PGExplainer's predictor and the
feature scaler to a directory; ``load_models_into`` restores them into
a freshly built (untrained) pipeline of the same configuration.

Every write here is *atomic*: content is staged in a temporary sibling
(file or directory) and renamed into place only once complete, with a
``MANIFEST.json`` completeness marker listing the expected files.  A
process killed mid-save can therefore never leave a checkpoint that
half-loads — ``load_models_into`` validates the manifest, the stored
config and every parameter shape *before* mutating anything.

:class:`StageStore` extends the same discipline to whole pipeline runs:
each completed stage of :func:`repro.eval.pipeline.run_pipeline`
persists under ``<run_dir>/stages/<name>/`` so an interrupted run can
resume from its last completed stage (see ``resume_from``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.eval.pipeline import (
    EXECUTION_ONLY_FIELDS,
    ExperimentConfig,
    PipelineArtifacts,
)
from repro.nn.serialize import checked_parameter_arrays, save_module

__all__ = [
    "CheckpointError",
    "MANIFEST_NAME",
    "StageStore",
    "atomic_replace_dir",
    "atomic_write_bytes",
    "checkpoint_complete",
    "load_models_into",
    "save_models",
    "validate_config_compatible",
    "validate_scale_vector",
]

MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_SCHEMA = 1


class CheckpointError(RuntimeError):
    """An on-disk checkpoint is missing, incomplete or inconsistent."""


# ----------------------------------------------------------------------
# atomic write primitives
# ----------------------------------------------------------------------
def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


@contextmanager
def atomic_replace_dir(final: str | Path) -> Iterator[Path]:
    """Stage writes in a temp sibling directory, renamed in on success.

    Yields the temporary directory; on a clean exit it replaces
    ``final`` (removing any previous version), on an exception it is
    deleted, leaving ``final`` untouched.  Abandoned temp directories
    from killed processes (``.<name>.*``) are swept on entry.
    """
    final = Path(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    for stale in final.parent.glob(f".{final.name}.*"):
        if stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)
    tmp = Path(tempfile.mkdtemp(dir=final.parent, prefix=f".{final.name}."))
    try:
        yield tmp
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_manifest(directory: Path, **extra) -> None:
    files = sorted(p.name for p in directory.iterdir() if p.name != MANIFEST_NAME)
    payload = {"schema": _MANIFEST_SCHEMA, "files": files, **extra}
    (directory / MANIFEST_NAME).write_text(json.dumps(payload, indent=2))


def _read_manifest(directory: Path) -> dict:
    """Validate a checkpoint directory's completeness marker."""
    if not directory.is_dir():
        raise CheckpointError(f"checkpoint directory {directory} does not exist")
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(
            f"{directory} has no {MANIFEST_NAME} — the save was interrupted "
            "or predates atomic checkpoints; refusing to load it"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(f"unreadable manifest in {directory}: {error}") from error
    missing = [
        name for name in manifest.get("files", ()) if not (directory / name).is_file()
    ]
    if missing:
        raise CheckpointError(f"checkpoint {directory} is missing files: {missing}")
    return manifest


def checkpoint_complete(directory: str | Path) -> bool:
    """True when ``directory`` holds a complete, manifest-valid checkpoint."""
    try:
        _read_manifest(Path(directory))
    except CheckpointError:
        return False
    return True


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------
def validate_config_compatible(
    stored: ExperimentConfig, current: ExperimentConfig
) -> None:
    """Raise unless ``stored`` and ``current`` describe the same run.

    Every identity-affecting field must match — seed, corpus size and
    scaling, split fraction, architecture, training schedules — so a
    checkpoint can never be silently loaded over a different corpus or
    scaler.  Execution-only fields (:data:`EXECUTION_ONLY_FIELDS`:
    worker count, timeouts, verify gating) are allowed to differ.
    """
    if tuple(stored.gnn_hidden) != tuple(current.gnn_hidden):
        raise ValueError(
            f"checkpoint GNN shape {stored.gnn_hidden} != config {current.gnn_hidden}"
        )
    mismatched = [
        f"{f.name}: stored {getattr(stored, f.name)!r} != "
        f"current {getattr(current, f.name)!r}"
        for f in fields(ExperimentConfig)
        if f.name not in EXECUTION_ONLY_FIELDS
        and getattr(stored, f.name) != getattr(current, f.name)
    ]
    if mismatched:
        raise ValueError(
            "checkpoint was produced by an incompatible config — "
            + "; ".join(mismatched)
        )


def _read_config(path: Path) -> ExperimentConfig:
    """The :class:`ExperimentConfig` stored as JSON at ``path``.

    A stored value that is not a JSON object, or that names a field the
    config does not have (one a later version retired, say), raises the
    same ``ValueError`` as an incompatible config, naming the field.
    """
    stored = json.loads(path.read_text())
    if not isinstance(stored, dict):
        raise ValueError(
            f"stored config {path} is a JSON {type(stored).__name__}, not an object"
        )
    unknown = sorted(set(stored) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(
            "checkpoint was produced by an incompatible config — unknown "
            f"field(s) {', '.join(unknown)} in {path}"
        )
    return ExperimentConfig(**stored)


def validate_scale_vector(scale: np.ndarray, expected_shape: tuple[int, ...]) -> None:
    """Enforce :meth:`FeatureScaler.fit`'s invariants on a stored scale.

    ``fit`` maps zero column maxima to 1, so a legitimate scale vector
    is finite and strictly positive; anything else would divide by zero
    (or flip signs) on transform.
    """
    scale = np.asarray(scale)
    if scale.shape != tuple(expected_shape):
        raise CheckpointError(
            f"stored scaler shape {scale.shape} != expected {tuple(expected_shape)}"
        )
    if not np.all(np.isfinite(scale)):
        raise CheckpointError("stored scaler contains non-finite entries")
    if np.any(scale <= 0):
        raise CheckpointError(
            "stored scaler contains non-positive entries (fit() maps zero "
            "maxima to 1; this checkpoint is corrupt)"
        )


# ----------------------------------------------------------------------
# trained-model checkpoints
# ----------------------------------------------------------------------
def save_models(artifacts: PipelineArtifacts, directory: str | Path) -> None:
    """Persist every trained component of the pipeline, atomically.

    All files are staged in a temporary directory and renamed into
    ``directory`` in one step, with a ``MANIFEST.json`` completeness
    marker — a kill mid-save leaves either the previous checkpoint or
    nothing, never a partial directory.
    """
    directory = Path(directory)
    with atomic_replace_dir(directory) as tmp:
        save_module(artifacts.gnn, tmp / "gnn.npz")
        theta = artifacts.explainers["CFGExplainer"].theta
        save_module(theta, tmp / "theta.npz")
        pg = artifacts.explainers["PGExplainer"]
        save_module(pg.predictor, tmp / "pg_predictor.npz")
        np.save(tmp / "scaler.npy", artifacts.scaler.scale)
        (tmp / "config.json").write_text(json.dumps(asdict(artifacts.config)))
        (tmp / "offline_seconds.json").write_text(
            json.dumps(artifacts.offline_training_seconds)
        )
        (tmp / "metrics.json").write_text(
            json.dumps({"gnn_test_accuracy": artifacts.gnn_test_accuracy})
        )
        _write_manifest(tmp, kind="models")


def load_models_into(
    artifacts: PipelineArtifacts, directory: str | Path
) -> PipelineArtifacts:
    """Restore saved weights into ``artifacts`` (same configuration).

    Everything is validated *before* anything is mutated: the manifest
    completeness marker, the full stored-vs-current config (not just the
    GNN shape — a checkpoint from a different corpus, seed or scaler
    raises instead of loading silently), the scaler's invariants, and
    every parameter shape of all three modules.  After the weights land,
    the shared embedding cache is invalidated and repopulated so no
    consumer can read forwards of the pre-load weights.  Returns the
    mutated artifacts for chaining.
    """
    directory = Path(directory)
    _read_manifest(directory)

    validate_config_compatible(
        _read_config(directory / "config.json"), artifacts.config
    )

    scale = np.load(directory / "scaler.npy")
    expected = (
        artifacts.scaler.scale.shape
        if artifacts.scaler.scale is not None
        else (artifacts.train_set[0].num_features,)
    )
    validate_scale_vector(scale, tuple(expected))

    pg = artifacts.explainers["PGExplainer"]
    theta = artifacts.explainers["CFGExplainer"].theta
    staged = [
        (artifacts.gnn, checked_parameter_arrays(directory / "gnn.npz", artifacts.gnn)[0]),
        (theta, checked_parameter_arrays(directory / "theta.npz", theta)[0]),
        (
            pg.predictor,
            checked_parameter_arrays(directory / "pg_predictor.npz", pg.predictor)[0],
        ),
    ]
    offline = json.loads((directory / "offline_seconds.json").read_text())
    metrics_path = directory / "metrics.json"
    metrics = json.loads(metrics_path.read_text()) if metrics_path.is_file() else {}

    # -- everything validated; mutate ----------------------------------
    for module, arrays in staged:
        for param, array in zip(module.parameters(), arrays):
            param.data[...] = array
    artifacts.scaler.scale = scale
    artifacts.offline_training_seconds.update(offline)
    if "gnn_test_accuracy" in metrics:
        artifacts.gnn_test_accuracy = float(metrics["gnn_test_accuracy"])
    # The predictor now holds trained weights, regardless of whether
    # this artifacts object ever went through fit().
    pg._trained = True

    # Forwards cached against the pre-load weights are stale; rebuild
    # them so explainers and experiments read post-restore values.  (Â
    # depends only on graph content, but it is cheap to recompute and a
    # cleared cache can never serve a stale entry.)
    artifacts.gnn.a_hat_cache.clear()
    if artifacts.embedding_cache is not None:
        artifacts.embedding_cache.clear()
        batch = artifacts.config.eval_batch_size
        artifacts.embedding_cache.populate(artifacts.train_set, batch_size=batch)
        artifacts.embedding_cache.populate(artifacts.test_set, batch_size=batch)
    return artifacts


# ----------------------------------------------------------------------
# stage-level run checkpoints
# ----------------------------------------------------------------------
class StageStore:
    """Atomic per-stage checkpoints under ``<run_dir>/stages/<name>/``.

    Each stage directory is written via :func:`atomic_replace_dir` with
    a manifest marker, so ``complete`` only reports stages whose save
    finished.  The run directory pins the experiment config
    (``config.json`` at its root); binding a different config raises.
    """

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.stages_dir = self.run_dir / "stages"

    def path(self, stage: str) -> Path:
        return self.stages_dir / stage

    def complete(self, stage: str) -> bool:
        return checkpoint_complete(self.path(stage))

    @contextmanager
    def writing(self, stage: str) -> Iterator[Path]:
        """Stage a checkpoint; the manifest marker is written last."""
        with atomic_replace_dir(self.path(stage)) as tmp:
            yield tmp
            _write_manifest(tmp, kind="stage", stage=stage)

    def bind_config(self, config: ExperimentConfig) -> None:
        """Pin the run directory to ``config`` (or validate against it)."""
        path = self.run_dir / "config.json"
        if path.is_file():
            validate_config_compatible(_read_config(path), config)
        else:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, json.dumps(asdict(config)).encode())

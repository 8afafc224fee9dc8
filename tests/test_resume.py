"""Tests for stage-level checkpoint/resume of run_pipeline."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.eval import ExperimentConfig, run_pipeline
from repro.eval.persistence import StageStore
from repro.eval.pipeline import PIPELINE_STAGES, PipelineInterrupted
from repro.obs import metrics_registry

TINY = ExperimentConfig(
    samples_per_family=2,
    gnn_hidden=(8, 4),
    gnn_epochs=3,
    explainer_epochs=5,
    gnnexplainer_epochs=2,
    pgexplainer_epochs=1,
    subgraphx_iterations=2,
    subgraphx_shapley_samples=1,
    step_size=20,
)


@pytest.fixture(scope="module")
def reference():
    """An uncheckpointed run — ground truth for every resumed variant."""
    return run_pipeline(TINY)


def assert_same_models(a, b):
    for pa, pb in zip(a.gnn.parameters(), b.gnn.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    ta = a.explainers["CFGExplainer"].theta
    tb = b.explainers["CFGExplainer"].theta
    for pa, pb in zip(ta.parameters(), tb.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    graph = a.test_set.graphs[0]
    np.testing.assert_allclose(
        a.gnn.predict_proba(graph), b.gnn.predict_proba(graph), atol=1e-12
    )


class TestStageResume:
    def test_full_resume_restores_every_stage(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        first = run_pipeline(TINY, resume_from=run_dir)
        assert_same_models(first, reference)

        before = metrics_registry().snapshot()
        resumed = run_pipeline(TINY, resume_from=run_dir)
        delta = metrics_registry().delta_since(before)
        assert delta.get("pipeline.stage.restored", 0) == len(PIPELINE_STAGES)
        assert not delta.get("pipeline.stage.persisted", 0)
        assert_same_models(resumed, reference)
        assert resumed.gnn_test_accuracy == pytest.approx(
            reference.gnn_test_accuracy
        )
        assert resumed.offline_training_seconds["CFGExplainer"] > 0

    def test_interrupt_after_gnn_resumes_without_retraining(
        self, reference, tmp_path
    ):
        run_dir = tmp_path / "run"
        with pytest.raises(PipelineInterrupted) as excinfo:
            run_pipeline(TINY, resume_from=run_dir, stop_after="gnn")
        assert excinfo.value.stage == "gnn"
        gnn_path = run_dir / "stages" / "gnn" / "gnn.npz"
        gnn_bytes = gnn_path.read_bytes()
        # later stages never ran
        assert not (run_dir / "stages" / "theta").exists()

        resumed = run_pipeline(TINY, resume_from=run_dir)
        # the checkpoint was restored, not rewritten by a retrain
        assert gnn_path.read_bytes() == gnn_bytes
        assert_same_models(resumed, reference)

    def test_stop_after_each_stage_then_resume(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        for stage in PIPELINE_STAGES:
            with pytest.raises(PipelineInterrupted):
                run_pipeline(TINY, resume_from=run_dir, stop_after=stage)
        resumed = run_pipeline(TINY, resume_from=run_dir)
        assert_same_models(resumed, reference)

    def test_incompatible_config_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(PipelineInterrupted):
            run_pipeline(TINY, resume_from=run_dir, stop_after="corpus")
        with pytest.raises(ValueError, match="incompatible"):
            run_pipeline(replace(TINY, seed=1), resume_from=run_dir)

    @pytest.mark.parametrize(
        "stored, message",
        [
            # A run directory written while the config had a
            # ``batch_mode`` field.
            ({**asdict(TINY), "batch_mode": "batched"}, "batch_mode"),
            (list(asdict(TINY)), "JSON list"),
        ],
        ids=["retired_field", "json_list"],
    )
    def test_undecodable_stored_config_rejected(self, tmp_path, stored, message):
        store = StageStore(tmp_path / "run")
        store.run_dir.mkdir()
        (store.run_dir / "config.json").write_text(json.dumps(stored))
        with pytest.raises(ValueError, match=message):
            store.bind_config(TINY)

    def test_execution_knobs_may_change_between_runs(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(PipelineInterrupted):
            run_pipeline(TINY, resume_from=run_dir, stop_after="corpus")
        # worker count is execution-only; resuming with it changed is fine
        run_pipeline(replace(TINY, num_workers=4), resume_from=run_dir)

    def test_stop_after_requires_resume_dir(self):
        with pytest.raises(ValueError, match="resume_from"):
            run_pipeline(TINY, stop_after="gnn")

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="stop_after"):
            run_pipeline(TINY, resume_from=tmp_path / "r", stop_after="nope")

"""Tests for pipeline model persistence."""

import json

import numpy as np
import pytest

from repro.eval import ExperimentConfig, run_pipeline
from repro.eval.persistence import (
    MANIFEST_NAME,
    CheckpointError,
    load_models_into,
    save_models,
)
from repro.eval.pipeline import build_untrained_artifacts

TINY = ExperimentConfig(
    samples_per_family=2,
    gnn_hidden=(8, 4),
    gnn_epochs=3,
    explainer_epochs=5,
    gnnexplainer_epochs=2,
    pgexplainer_epochs=1,
    subgraphx_iterations=2,
    subgraphx_shapley_samples=1,
)


@pytest.fixture(scope="module")
def tiny_artifacts():
    return run_pipeline(TINY)


class TestPersistence:
    def test_roundtrip_restores_predictions(self, tiny_artifacts, tmp_path):
        save_models(tiny_artifacts, tmp_path / "models")

        fresh = run_pipeline(TINY)
        # Perturb fresh weights so restoration is observable.
        for param in fresh.gnn.parameters():
            param.data += 1.0
        load_models_into(fresh, tmp_path / "models")

        graph = tiny_artifacts.test_set.graphs[0]
        np.testing.assert_allclose(
            fresh.gnn.predict_proba(graph),
            tiny_artifacts.gnn.predict_proba(graph),
            atol=1e-12,
        )

    def test_restores_scaler_and_offline_times(self, tiny_artifacts, tmp_path):
        save_models(tiny_artifacts, tmp_path / "m")
        fresh = run_pipeline(TINY)
        fresh.scaler.scale = np.zeros_like(fresh.scaler.scale)
        load_models_into(fresh, tmp_path / "m")
        np.testing.assert_array_equal(
            fresh.scaler.scale, tiny_artifacts.scaler.scale
        )
        assert fresh.offline_training_seconds["CFGExplainer"] > 0

    def test_config_mismatch_raises(self, tiny_artifacts, tmp_path):
        save_models(tiny_artifacts, tmp_path / "m")
        other = run_pipeline(
            ExperimentConfig(
                samples_per_family=2,
                gnn_hidden=(6, 4),
                gnn_epochs=2,
                explainer_epochs=3,
                pgexplainer_epochs=1,
                subgraphx_iterations=2,
            )
        )
        with pytest.raises(ValueError, match="GNN shape"):
            load_models_into(other, tmp_path / "m")

    def test_theta_restored(self, tiny_artifacts, tmp_path):
        save_models(tiny_artifacts, tmp_path / "m")
        fresh = run_pipeline(TINY)
        load_models_into(fresh, tmp_path / "m")
        original = tiny_artifacts.explainers["CFGExplainer"].theta
        restored = fresh.explainers["CFGExplainer"].theta
        for a, b in zip(original.parameters(), restored.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gnn_hidden_list_coerced_to_tuple(self):
        config = ExperimentConfig(gnn_hidden=[8, 4])
        assert config.gnn_hidden == (8, 4)
        assert isinstance(config.gnn_hidden, tuple)
        # and equality with the tuple-built config holds (JSON round-trip)
        assert config == ExperimentConfig(gnn_hidden=(8, 4))

    def test_missing_manifest_refuses_without_mutation(
        self, tiny_artifacts, tmp_path
    ):
        save_models(tiny_artifacts, tmp_path / "m")
        (tmp_path / "m" / MANIFEST_NAME).unlink()
        fresh = build_untrained_artifacts(TINY)
        before = [p.data.copy() for p in fresh.gnn.parameters()]
        with pytest.raises(CheckpointError, match="MANIFEST"):
            load_models_into(fresh, tmp_path / "m")
        for param, prior in zip(fresh.gnn.parameters(), before):
            np.testing.assert_array_equal(param.data, prior)

    def test_full_config_validated_not_just_gnn_shape(
        self, tiny_artifacts, tmp_path
    ):
        save_models(tiny_artifacts, tmp_path / "m")
        stored = json.loads((tmp_path / "m" / "config.json").read_text())
        stored["samples_per_family"] = 3  # same architecture, different corpus
        (tmp_path / "m" / "config.json").write_text(json.dumps(stored))
        fresh = build_untrained_artifacts(TINY)
        with pytest.raises(ValueError, match="samples_per_family"):
            load_models_into(fresh, tmp_path / "m")

    @pytest.mark.parametrize(
        "edit, message",
        [
            # A run directory written while the config had a
            # ``batch_mode`` field.
            (lambda stored: {**stored, "batch_mode": "batched"}, "batch_mode"),
            (lambda stored: list(stored), "JSON list"),
        ],
        ids=["retired_field", "json_list"],
    )
    def test_undecodable_stored_config_rejected_before_mutation(
        self, tiny_artifacts, tmp_path, edit, message
    ):
        save_models(tiny_artifacts, tmp_path / "m")
        path = tmp_path / "m" / "config.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        fresh = build_untrained_artifacts(TINY)
        before = [p.data.copy() for p in fresh.gnn.parameters()]
        with pytest.raises(ValueError, match=message):
            load_models_into(fresh, tmp_path / "m")
        for param, prior in zip(fresh.gnn.parameters(), before):
            np.testing.assert_array_equal(param.data, prior)

    def test_execution_fields_may_differ(self, tiny_artifacts, tmp_path):
        save_models(tiny_artifacts, tmp_path / "m")
        from dataclasses import replace

        fresh = build_untrained_artifacts(replace(TINY, num_workers=4))
        load_models_into(fresh, tmp_path / "m")  # must not raise

    def test_corrupt_scaler_rejected_before_mutation(
        self, tiny_artifacts, tmp_path
    ):
        save_models(tiny_artifacts, tmp_path / "m")
        scale = np.load(tmp_path / "m" / "scaler.npy")
        np.save(tmp_path / "m" / "scaler.npy", np.zeros_like(scale))
        fresh = build_untrained_artifacts(TINY)
        good_scale = fresh.scaler.scale.copy()
        with pytest.raises(CheckpointError, match="non-positive"):
            load_models_into(fresh, tmp_path / "m")
        np.testing.assert_array_equal(fresh.scaler.scale, good_scale)

    def test_interrupted_save_preserves_previous_checkpoint(
        self, tiny_artifacts, tmp_path, monkeypatch
    ):
        save_models(tiny_artifacts, tmp_path / "m")

        import repro.eval.persistence as persistence

        real_save_module = persistence.save_module
        calls = {"n": 0}

        def dying_save_module(module, path):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt("killed mid-save")
            real_save_module(module, path)

        monkeypatch.setattr(persistence, "save_module", dying_save_module)
        with pytest.raises(KeyboardInterrupt):
            save_models(tiny_artifacts, tmp_path / "m")
        monkeypatch.setattr(persistence, "save_module", real_save_module)

        # no stray temp dirs, and the prior checkpoint still loads
        stray = [p for p in (tmp_path).iterdir() if p.name.startswith(".m.")]
        assert stray == []
        fresh = build_untrained_artifacts(TINY)
        load_models_into(fresh, tmp_path / "m")
        graph = tiny_artifacts.test_set.graphs[0]
        np.testing.assert_allclose(
            fresh.gnn.predict_proba(graph),
            tiny_artifacts.gnn.predict_proba(graph),
            atol=1e-12,
        )

    def test_embedding_cache_repopulated_after_load(
        self, tiny_artifacts, tmp_path
    ):
        save_models(tiny_artifacts, tmp_path / "m")
        fresh = build_untrained_artifacts(TINY)
        assert len(fresh.embedding_cache) == 0
        load_models_into(fresh, tmp_path / "m")
        expected = len(fresh.train_set) + len(fresh.test_set)
        assert len(fresh.embedding_cache) == expected
        graph = fresh.test_set.graphs[0]
        cached = fresh.embedding_cache.forward(graph)
        np.testing.assert_allclose(
            cached.probs, tiny_artifacts.gnn.predict_proba(graph), atol=1e-12
        )

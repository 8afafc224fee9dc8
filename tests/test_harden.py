"""Hostile-input hardening: sanitizer, quarantine policy, guards, fuzzer."""

from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.acfg import ACFGDataset, FeatureScaler
from repro.acfg.graph import ACFG, from_sample
from repro.acfg.ingest import IngestPolicy, ingest_corpus, ingest_sample
from repro.gnn import GCNClassifier, train_gnn
from repro.harden import (
    FLAG_REASONS,
    FuzzConfig,
    GraphSanitizer,
    HostileInputError,
    QuarantineReport,
    hostile_sample,
    inject_hostile,
    run_fuzz,
    sanitize_graphs,
)
from repro.harden.sanitize import _components
from repro.malgen import generate_corpus
from repro.nn import Adam, NumericalError, Tensor, clip_grad_norm, grad_norm
from repro.staticcheck import (
    CorpusVerificationError,
    FindingKind,
    Severity,
    verify_cfg,
    verify_corpus,
    verify_sample,
)
from tests.test_admit_equivalence import hostile_samples, two_block_sample


def clean_graph(n=6, n_real=4):
    adjacency = np.zeros((n, n))
    adjacency[0, 1] = 1.0
    adjacency[1, 2] = 1.0
    adjacency[2, 3] = 2.0
    adjacency[3, 0] = 1.0
    features = np.ones((n, 12)) * 0.5
    features[n_real:] = 0.0
    return ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real)


class TestGraphSanitizer:
    def test_clean_graph_has_no_findings(self):
        assert GraphSanitizer().check_acfg(clean_graph()) == []

    def test_nan_inf_negative_features_are_fatal(self):
        sanitizer = GraphSanitizer()
        for value, reason in [
            (np.nan, "nan_feature"),
            (np.inf, "inf_feature"),
            (-1.0, "negative_feature"),
        ]:
            graph = clean_graph()
            graph.features[1, 3] = value
            records = sanitizer.check_acfg(graph)
            assert [r.reason for r in records] == [reason]
            assert all(sanitizer.is_fatal(r) for r in records)

    def test_padding_rows_are_not_inspected(self):
        graph = clean_graph()
        graph.features[graph.n_real :, 0] = np.nan
        assert GraphSanitizer().check_acfg(graph) == []

    def test_bad_adjacency_value_is_fatal(self):
        sanitizer = GraphSanitizer()
        graph = clean_graph()
        graph.adjacency[0, 2] = 7.0
        records = sanitizer.check_acfg(graph)
        assert [r.reason for r in records] == ["bad_adjacency_value"]
        assert sanitizer.is_fatal(records[0])

    def test_self_loop_is_flag_only(self):
        sanitizer = GraphSanitizer()
        graph = clean_graph()
        graph.adjacency[2, 2] = 1.0
        records = sanitizer.check_acfg(graph)
        assert {r.reason for r in records} == {"self_loop"}
        assert not any(sanitizer.is_fatal(r) for r in records)

    def test_flag_reasons_can_be_promoted_to_fatal(self):
        sanitizer = GraphSanitizer(
            quarantine_reasons=GraphSanitizer().quarantine_reasons | FLAG_REASONS
        )
        graph = clean_graph()
        graph.adjacency[2, 2] = 1.0
        records = sanitizer.check_acfg(graph)
        assert all(sanitizer.is_fatal(r) for r in records)

    def test_oversized_graph_is_fatal(self):
        sanitizer = GraphSanitizer(max_nodes=3)
        records = sanitizer.check_acfg(clean_graph())
        assert "oversized_nodes" in {r.reason for r in records}

    def test_feature_dim_mismatch(self):
        sanitizer = GraphSanitizer(expected_features=13)
        records = sanitizer.check_acfg(clean_graph())
        assert "feature_dim_mismatch" in {r.reason for r in records}

    def test_empty_and_single_block_cfg_findings(self):
        sanitizer = GraphSanitizer()
        empty = sanitizer.check_sample(hostile_sample("empty"))
        assert [r.reason for r in empty] == ["empty_graph"]
        single = sanitizer.check_sample(hostile_sample("single_block"))
        assert "single_block" in {r.reason for r in single}


class TestSanitizeGraphs:
    def test_quarantine_drops_only_fatal(self):
        bad = clean_graph()
        bad.features[0, 0] = np.nan
        flagged = clean_graph()
        flagged.adjacency[1, 1] = 1.0
        kept, report = sanitize_graphs([clean_graph(), bad, flagged])
        assert len(kept) == 2
        assert report.inspected == 3
        assert len(report.quarantined) == 1
        assert report.by_reason()["nan_feature"] == 1

    def test_raise_policy(self):
        bad = clean_graph()
        bad.features[0, 0] = np.inf
        with pytest.raises(HostileInputError) as excinfo:
            sanitize_graphs([bad], on_bad_input="raise")
        assert excinfo.value.record.reason == "inf_feature"

    def test_none_policy_keeps_everything(self):
        bad = clean_graph()
        bad.features[0, 0] = np.nan
        kept, report = sanitize_graphs([bad], on_bad_input=None)
        assert len(kept) == 1
        assert report.records

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_bad_input"):
            sanitize_graphs([clean_graph()], on_bad_input="explode")

    def test_report_roundtrip_and_merge(self):
        bad = clean_graph()
        bad.features[0, 0] = np.nan
        _, a = sanitize_graphs([bad])
        _, b = sanitize_graphs([clean_graph()])
        merged = a.merged(b)
        assert merged.inspected == 2
        payload = merged.to_dict()
        assert payload["by_reason"] == {"nan_feature": 1}
        assert "quarantined" in merged.summary()


class TestHostileInjection:
    def test_injection_is_deterministic(self):
        corpus = generate_corpus(2, seed=5, families=("Bagle", "Bifrose"))
        a, names_a = inject_hostile(corpus, fraction=0.5, seed=9)
        b, names_b = inject_hostile(corpus, fraction=0.5, seed=9)
        assert names_a == names_b
        assert [s.program.name for s in a] == [s.program.name for s in b]

    def test_from_corpus_quarantines_injected(self):
        corpus = generate_corpus(3, seed=1, families=("Bagle", "Bifrose"))
        hostile_corpus, names = inject_hostile(corpus, fraction=0.5, seed=2)
        dataset = ACFGDataset.from_corpus(hostile_corpus, on_bad_input="quarantine")
        assert isinstance(dataset.quarantine, QuarantineReport)
        assert sorted(dataset.quarantine.quarantined) == sorted(names)
        assert len(dataset) == len(corpus)

    def test_from_corpus_raise_policy(self):
        corpus = generate_corpus(2, seed=1, families=("Bagle",))
        hostile_corpus, _ = inject_hostile(corpus, fraction=1.0, seed=2)
        with pytest.raises(HostileInputError):
            ACFGDataset.from_corpus(hostile_corpus, on_bad_input="raise")

    def test_quarantine_runs_before_verify(self):
        """Hostile samples must not reach the staticcheck verifier."""
        corpus = generate_corpus(2, seed=1, families=("Bagle",))
        hostile_corpus, _ = inject_hostile(corpus, fraction=0.5, seed=3)
        dataset = ACFGDataset.from_corpus(
            hostile_corpus, verify="strict", on_bad_input="quarantine"
        )
        assert dataset.quarantine.quarantined

    def test_entirely_hostile_corpus_raises(self):
        hostile_only = [hostile_sample("empty", name=f"e{i}") for i in range(3)]
        with pytest.raises(ValueError, match="survived"):
            ACFGDataset.from_corpus(hostile_only, on_bad_input="quarantine")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown hostile kind"):
            hostile_sample("zipbomb")

    def test_construction_error_is_quarantined(self):
        sample = hostile_sample("dangling_edge")
        with pytest.raises(ValueError):
            from_sample(sample)
        dataset_corpus = generate_corpus(2, seed=0, families=("Bagle",))
        dataset = ACFGDataset.from_corpus(
            dataset_corpus + [sample], on_bad_input="quarantine"
        )
        reasons = dataset.quarantine.by_reason()
        assert reasons.get("construction_error") == 1


@pytest.mark.parametrize("edge", [(0, 99), (0, -1), (-1, 1), (2, 0)])
class TestDanglingEdges:
    def test_sanitizer_records_fatal_construction_error(self, edge):
        sanitizer = GraphSanitizer()
        records = sanitizer.check_sample(two_block_sample(edge))
        assert [(r.reason, r.stage) for r in records] == [("construction_error", "cfg")]
        assert sanitizer.is_fatal(records[0])
        assert f"first {edge}" in records[0].detail

    @pytest.mark.parametrize("verify", [None, "strict", "warn"])
    def test_quarantined_by_ingest_sample(self, edge, verify):
        policy = IngestPolicy(on_bad_input="quarantine", verify=verify)
        result = ingest_sample(two_block_sample(edge), policy)
        assert not result.ok
        assert [r.reason for r in result.fatal] == ["construction_error"]

    def test_quarantined_by_ingest_corpus(self, edge):
        corpus = generate_corpus(1, seed=0, families=("Bagle",))
        sample = two_block_sample(edge)
        result = ingest_corpus(
            corpus + [sample], IngestPolicy(on_bad_input="quarantine", verify="strict")
        )
        assert result.quarantine.quarantined == [sample.program.name]
        assert len(result.graphs) == len(corpus)

    def test_raise_policy_raises_hostile_input_error(self, edge):
        with pytest.raises(HostileInputError, match="construction_error"):
            ingest_corpus(
                [two_block_sample(edge)],
                IngestPolicy(on_bad_input="raise", verify="strict"),
            )

    def test_verify_cfg_with_dataflow_reports_the_endpoint(self, edge):
        sample = two_block_sample(edge)
        findings = verify_cfg(sample.cfg, sample.program)
        assert FindingKind.EDGE_ENDPOINT in {f.kind for f in findings}

    def test_verify_sample_reports_the_endpoint_without_an_acfg(self, edge):
        findings = verify_sample(two_block_sample(edge))
        endpoint = [f for f in findings if f.kind is FindingKind.EDGE_ENDPOINT]
        assert [f.severity for f in endpoint] == [Severity.ERROR]

    def test_strict_verify_corpus_raises_verification_error(self, edge):
        with pytest.raises(CorpusVerificationError, match="edge_endpoint"):
            verify_corpus([two_block_sample(edge)], mode="strict")

    def test_from_sample_names_the_edge_and_block_count(self, edge):
        with pytest.raises(ValueError, match=rf"\({edge[0]} -> {edge[1]}\).*2-block"):
            from_sample(two_block_sample(edge))

    def test_trusting_ingest_sample_raises_value_error(self, edge):
        with pytest.raises(ValueError, match="2-block"):
            ingest_sample(two_block_sample(edge), IngestPolicy(verify="strict"))


def component_count(n, edges):
    """``_components`` checked against networkx's weak components."""
    edges = [(int(a), int(b)) for a, b in edges]
    reference = nx.DiGraph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    count = _components(n, edges)
    assert count == nx.number_weakly_connected_components(reference)
    return count


class TestComponentCount:
    def test_matches_networkx_on_default_and_hostile_corpora(self):
        sanitizer = GraphSanitizer()
        for sample in generate_corpus(2, seed=0) + hostile_samples():
            n = sample.cfg.node_count
            edges = [(s, t) for s, t, _ in sample.cfg.edges]
            if n < 2 or any(not (0 <= v < n) for edge in edges for v in edge):
                continue
            disconnected = component_count(n, edges) > 1
            cfg_reasons = {r.reason for r in sanitizer.check_sample(sample)}
            assert ("disconnected" in cfg_reasons) == disconnected
            acfg_reasons = {r.reason for r in sanitizer.check_acfg(from_sample(sample))}
            assert ("disconnected" in acfg_reasons) == disconnected

    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 2 * n))
            component_count(n, rng.integers(0, n, size=(m, 2)))

    def test_unreachable_sample_is_disconnected(self):
        assert component_count(3, [(0, 1)]) == 2
        records = GraphSanitizer().check_sample(hostile_sample("unreachable"))
        assert "disconnected" in {r.reason for r in records}


class TestFeatureScalerValidation:
    def test_transform_rejects_negative_features(self):
        scaler = FeatureScaler().fit([clean_graph()])
        bad = clean_graph()
        bad.features[1, 2] = -3.0
        with pytest.raises(NumericalError, match="negative"):
            scaler.transform(bad)

    def test_transform_rejects_nan(self):
        scaler = FeatureScaler().fit([clean_graph()])
        bad = clean_graph()
        bad.features[1, 2] = np.nan
        with pytest.raises(NumericalError, match="NaN/Inf"):
            scaler.transform(bad)

    def test_fit_rejects_negative_features(self):
        bad = clean_graph()
        bad.features[0, 0] = -1.0
        with pytest.raises(NumericalError):
            FeatureScaler().fit([bad])

    def test_clean_transform_unchanged(self):
        scaler = FeatureScaler().fit([clean_graph()])
        out = scaler.transform(clean_graph())
        assert np.all(np.isfinite(out.features))


class TestNumericalGuards:
    def test_grad_norm_and_clipping(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([4.0]), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert grad_norm([a, b]) == pytest.approx(5.0)
        pre = clip_grad_norm([a, b], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert grad_norm([a, b]) == pytest.approx(1.0)

    def test_clip_raises_on_nonfinite(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([np.nan])
        with pytest.raises(NumericalError):
            clip_grad_norm([a], max_norm=1.0)

    def test_optimizer_state_roundtrip(self):
        params = [Tensor(np.array([1.0, 2.0]), requires_grad=True)]
        optimizer = Adam(params, lr=0.1)
        params[0].grad = np.array([0.5, -0.5])
        optimizer.step()
        state = optimizer.state_dict()
        after_one = params[0].numpy().copy()
        params[0].grad = np.array([0.5, -0.5])
        optimizer.step()
        optimizer.load_state_dict(state)
        assert np.allclose(params[0].numpy(), after_one)


class TestTrainingRecovery:
    def _dataset(self):
        corpus = generate_corpus(3, seed=7, families=("Bagle", "Bifrose"))
        return ACFGDataset.from_corpus(corpus)

    def _model(self, dataset):
        return GCNClassifier(
            in_features=12,
            hidden=(8,),
            num_classes=dataset.num_classes,
            rng=np.random.default_rng(0),
        )

    def test_guarded_training_matches_unguarded(self):
        dataset = self._dataset()
        histories = []
        for guard in (False, True):
            model = self._model(dataset)
            histories.append(
                train_gnn(model, dataset, epochs=3, seed=0, guard=guard)
            )
        assert histories[0].losses == pytest.approx(histories[1].losses)

    def test_nan_loss_triggers_rollback_and_backoff(self):
        """Poisoned weights: every epoch rolls back, lr backs off, no raise.

        The epoch -1 snapshot is the poisoned model itself, so no epoch
        can recover to a finite loss — the point is that the guard turns
        each NaN step into a recorded rollback instead of a crash.
        """
        dataset = self._dataset()
        model = self._model(dataset)
        model.convs[0].weight.data[0, 0] = np.nan
        history = train_gnn(model, dataset, epochs=3, seed=0, max_recoveries=5)
        assert history.recovered_epochs == [0, 1, 2]
        assert history.losses == []

    def test_recovery_budget_exhaustion_raises(self):
        dataset = self._dataset()
        model = self._model(dataset)
        model.convs[0].weight.data[:] = np.nan
        # The fresh snapshot is also poisoned, so every epoch fails.
        with pytest.raises(NumericalError):
            train_gnn(model, dataset, epochs=5, seed=0, max_recoveries=2)

    def test_unguarded_training_poisons_silently(self):
        """guard=False is the seed's behavior: NaN flows through unnoticed."""
        dataset = self._dataset()
        model = self._model(dataset)
        model.convs[0].weight.data[0, 0] = np.nan
        history = train_gnn(model, dataset, epochs=2, seed=0, guard=False)
        assert history.losses and not np.isfinite(history.losses).any()
        assert history.recovered_epochs == []

    def test_loss_spike_validation(self):
        dataset = self._dataset()
        model = self._model(dataset)
        with pytest.raises(ValueError, match="loss_spike_factor"):
            train_gnn(model, dataset, epochs=1, loss_spike_factor=0.5)
        with pytest.raises(ValueError, match="lr_backoff"):
            train_gnn(model, dataset, epochs=1, lr_backoff=1.5)


HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"


class TestFuzzer:
    def test_smoke_campaign_no_crashes(self, tmp_path):
        report = run_fuzz(
            FuzzConfig(
                iterations=80, seed=3, out_dir=tmp_path, hostile_dir=HOSTILE_DIR
            )
        )
        assert report.ok, report.summary()
        assert report.iterations == 80
        assert report.parsed > 0
        assert report.rejected  # hostile mutations must get typed rejections
        assert not list(tmp_path.glob("crash_*.json"))

    def test_campaign_is_deterministic(self):
        a = run_fuzz(FuzzConfig(iterations=40, seed=11))
        b = run_fuzz(FuzzConfig(iterations=40, seed=11))
        assert a.to_dict() == b.to_dict()

    def test_crash_repro_persisted_and_minimized(self, tmp_path, monkeypatch):
        """A planted bug must surface as a minimized, persisted repro."""
        from repro.harden import fuzz as fuzz_module

        original = fuzz_module.parse_program

        def booby_trapped(text, *args, **kwargs):
            if "ret" in text:  # present in every seed listing
                raise RuntimeError("planted parser bug")
            return original(text, *args, **kwargs)

        monkeypatch.setattr(fuzz_module, "parse_program", booby_trapped)
        report = run_fuzz(
            FuzzConfig(
                iterations=10, seed=0, out_dir=tmp_path, minimize_budget=5000
            )
        )
        assert not report.ok
        crash = report.crashes[0]
        assert crash.stage == "parse"
        assert crash.error_type == "RuntimeError"
        # Greedy minimization strips everything but the trigger line.
        assert "ret" in crash.text
        assert len(crash.text.splitlines()) == 1
        assert list(tmp_path.glob("crash_*.json"))
        assert list(tmp_path.glob("crash_*.asm"))

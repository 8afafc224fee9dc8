"""Ingest verifies the graph it admits, not a fresh conversion."""

from dataclasses import replace
from pathlib import Path

import pytest

import repro.acfg.ingest as ingest_module
from repro.acfg.graph import from_sample
from repro.acfg.ingest import IngestPolicy, ingest_corpus, ingest_sample
from repro.disasm import ParseError, build_cfg, parse_program
from repro.harden.hostile import HOSTILE_KINDS, hostile_sample
from repro.malgen import generate_corpus
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.staticcheck import (
    CorpusVerificationError,
    FindingKind,
    Severity,
    verify_corpus,
    verify_sample,
)

HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"


def stale_from_sample(sample, pad_to=None):
    """``from_sample`` with one feature row gone stale."""
    graph = from_sample(sample, pad_to=pad_to)
    features = graph.features.copy()
    features[0, 0] += 3.0
    return replace(graph, features=features)


def hostile_corpus():
    samples = [hostile_sample(kind) for kind in sorted(HOSTILE_KINDS)]
    for path in sorted(HOSTILE_DIR.glob("*.asm")):
        try:
            program = parse_program(path.read_text(), name=path.stem)
        except ParseError:
            continue
        cfg = build_cfg(program)
        samples.append(
            LabeledSample(
                program=program,
                cfg=cfg,
                family="Bagle",
                label=0,
                motif_spans=[],
                block_tags=block_motif_tags(cfg, []),
            )
        )
    convertible = []
    for sample in samples:
        try:
            from_sample(sample)
        except Exception:
            continue
        convertible.append(sample)
    return convertible


@pytest.fixture(scope="module")
def default_corpus():
    return generate_corpus(2, seed=0)


@pytest.mark.parametrize("on_bad_input", [None, "quarantine"])
def test_stale_admitted_graph_is_rejected(default_corpus, monkeypatch, on_bad_input):
    monkeypatch.setattr(ingest_module, "from_sample", stale_from_sample)
    policy = IngestPolicy(on_bad_input=on_bad_input, verify="strict")
    result = ingest_sample(default_corpus[0], policy)
    assert not result.ok
    assert [r.reason for r in result.fatal] == ["invariant_violation"]
    assert FindingKind.FEATURE_MISMATCH.value in result.fatal[0].detail


def test_stale_corpus_graph_fails_strict_verification(default_corpus, monkeypatch):
    monkeypatch.setattr(ingest_module, "from_sample", stale_from_sample)
    with pytest.raises(CorpusVerificationError) as excinfo:
        ingest_corpus(default_corpus[:3], IngestPolicy(verify="strict"))
    kinds = {f.kind for f in excinfo.value.report.errors}
    assert kinds == {FindingKind.FEATURE_MISMATCH}


@pytest.mark.parametrize("corpus_name", ["default", "hostile"])
def test_findings_unchanged_on_clean_graphs(default_corpus, corpus_name):
    corpus = default_corpus if corpus_name == "default" else hostile_corpus()
    assert corpus
    graphs = [from_sample(sample) for sample in corpus]
    rebuilt = verify_corpus(corpus, mode="warn")
    admitted = verify_corpus(corpus, mode="warn", graphs=graphs)
    assert [s.findings for s in admitted.samples] == [s.findings for s in rebuilt.samples]

    policy = IngestPolicy(verify="warn")
    for sample in corpus:
        expected = [
            str(f) for f in verify_sample(sample) if f.severity >= Severity.ERROR
        ]
        records = ingest_sample(sample, policy).records
        assert [r.detail for r in records if r.stage == "verify"] == expected


def test_graph_count_must_match_corpus(default_corpus):
    with pytest.raises(ValueError):
        verify_corpus(default_corpus, graphs=[from_sample(default_corpus[0])])


"""Admission without the dataflow pass keeps every verdict it returns.

Ingest keeps only ERROR findings from the verifier, and the dataflow
pass emits none, so ``ingest_sample`` and ``ingest_corpus`` skip it.
These tests pin the premise (no dataflow kind is an ERROR), the outcome
(identical records, fatal findings and admitted graphs against a
reference that runs dataflow), and the one-pass feature matrix against
the per-block builder it replaced.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro.staticcheck as staticcheck
from repro.acfg import FEATURE_NAMES, NUM_FEATURES, cfg_feature_matrix
from repro.acfg.ingest import IngestPolicy, ingest_sample
from repro.disasm import ParseError, ProgramBuilder, build_cfg, parse_program
from repro.disasm.cfg import CFG, EdgeKind
from repro.disasm.isa import InstructionCategory
from repro.harden.hostile import HOSTILE_KINDS, hostile_sample
from repro.malgen import generate_corpus
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.staticcheck import FindingKind, Severity, verifier

HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"


def labeled(program, cfg=None):
    cfg = cfg if cfg is not None else build_cfg(program)
    return LabeledSample(
        program=program,
        cfg=cfg,
        family="Bagle",
        label=0,
        motif_spans=[],
        block_tags=block_motif_tags(cfg, []),
    )


def two_block_sample(edge):
    """A 2-block CFG whose only edge is ``edge``."""
    program = parse_program("mov eax, 1\njmp out\nout:\nret", name=f"edge{edge}")
    cfg = build_cfg(program)
    assert cfg.node_count == 2
    return labeled(program, CFG(cfg.blocks, [(*edge, EdgeKind.JUMP)], cfg.name))


def hostile_samples():
    """Every hostile kind plus every parseable file of the hostile corpus."""
    samples = [hostile_sample(kind) for kind in sorted(HOSTILE_KINDS)]
    for path in sorted(HOSTILE_DIR.glob("*.asm")):
        try:
            program = parse_program(path.read_text(), name=path.stem)
        except ParseError:
            continue
        samples.append(labeled(program))
    return samples


@pytest.fixture(scope="module")
def default_corpus():
    return generate_corpus(4, seed=0)


# ----------------------------------------------------------------------
# premise: the dataflow pass never produces an ERROR
# ----------------------------------------------------------------------
def dataflow_kinds():
    source = inspect.getsource(verifier._check_dataflow)
    return {FindingKind[name] for name in re.findall(r"FindingKind\.(\w+)", source)}


def test_dataflow_findings_are_never_errors():
    kinds = dataflow_kinds()
    assert kinds == {
        FindingKind.UNREACHABLE_BLOCK,
        FindingKind.DEAD_STORE,
        FindingKind.IRREDUCIBLE_LOOP,
    }
    for kind in kinds:
        severity = verifier._finding(kind, "").severity
        assert severity < Severity.ERROR, (
            f"{kind} is now {severity.name}: ingest drops the dataflow pass "
            "because it keeps only ERROR findings, so it must run it again"
        )


def test_dataflow_findings_seen_on_corpora_are_never_errors(default_corpus):
    seen = set()
    for sample in default_corpus + hostile_samples():
        n = sample.cfg.node_count
        if n and all(0 <= s < n and 0 <= t < n for s, t, _ in sample.cfg.edges):
            for finding in verifier._check_dataflow(sample.cfg):
                assert finding.severity < Severity.ERROR, finding
                seen.add(finding.kind)
    assert seen <= dataflow_kinds()
    assert FindingKind.DEAD_STORE in seen


# ----------------------------------------------------------------------
# outcome oracle: admission with and without dataflow
# ----------------------------------------------------------------------
def outcome(run):
    try:
        result = run()
    except Exception as error:  # trusted-input policies may raise
        return ("raised", type(error).__name__)
    graph = result.graph
    arrays = None if graph is None else (
        graph.adjacency, graph.features, graph.n_real
    )
    return (
        [record.to_dict() for record in result.records],
        [record.to_dict() for record in result.fatal],
        arrays,
    )


def assert_same_outcome(got, want, name):
    if "raised" in (got[0], want[0]) or want[2] is None:
        assert got == want, name
        return
    assert got[:2] == want[:2], name
    for got_part, want_part in zip(got[2], want[2]):
        assert np.array_equal(got_part, want_part), name


@pytest.mark.parametrize("on_bad_input", [None, "quarantine"])
@pytest.mark.parametrize("verify", ["strict", "warn"])
def test_admission_matches_dataflow_reference(
    default_corpus, monkeypatch, verify, on_bad_input
):
    policy = IngestPolicy(on_bad_input=on_bad_input, verify=verify)
    calls = []

    def verify_with_dataflow(acfg, cfg, program=None, *, dataflow=True):
        calls.append(dataflow)
        return verifier.verify_acfg(acfg, cfg, program, dataflow=True)

    samples = default_corpus + hostile_samples()
    for sample in samples:
        got = outcome(lambda: ingest_sample(sample, policy))
        with monkeypatch.context() as patch:
            patch.setattr(staticcheck, "verify_acfg", verify_with_dataflow)
            want = outcome(lambda: ingest_sample(sample, policy))
        assert_same_outcome(got, want, sample.program.name)
    # The reference really verified, and ingest asked for no dataflow.
    assert len(calls) >= len(default_corpus)
    assert set(calls) == {False}


# ----------------------------------------------------------------------
# feature-matrix oracle: one pass vs the per-block builder it replaced
# ----------------------------------------------------------------------
_CATEGORY_FEATURES = (
    (2, InstructionCategory.TRANSFER),
    (3, InstructionCategory.CALL),
    (4, InstructionCategory.ARITHMETIC),
    (5, InstructionCategory.COMPARE),
    (6, InstructionCategory.MOV),
    (7, InstructionCategory.TERMINATION),
    (8, InstructionCategory.DATA_DECLARATION),
)


def block_features(block, out_degree):
    """The 12-dimensional feature vector for one basic block."""
    features = np.zeros(NUM_FEATURES, dtype=np.float64)
    for instruction in block.instructions:
        features[0] += instruction.numeric_constant_count
        features[1] += instruction.string_constant_count
        category = instruction.category
        for index, wanted in _CATEGORY_FEATURES:
            if category is wanted:
                features[index] += 1
                break
    features[9] = len(block.instructions)
    features[10] = out_degree
    features[11] = len(block.instructions)
    return features


def reference_feature_matrix(cfg):
    if cfg.node_count == 0:
        return np.zeros((0, NUM_FEATURES), dtype=np.float64)
    out_degrees = np.zeros(cfg.node_count, dtype=int)
    successor_sets = {}
    for source, target, _ in cfg.edges:
        successor_sets.setdefault(source, set()).add(target)
    for source, targets in successor_sets.items():
        out_degrees[source] = len(targets)
    return np.stack(
        [block_features(block, int(out_degrees[block.index])) for block in cfg.blocks]
    )


def assert_same_features(cfg):
    got = cfg_feature_matrix(cfg)
    want = reference_feature_matrix(cfg)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), cfg.name
    return got


def test_feature_matrix_matches_reference_on_default_corpus(default_corpus):
    for sample in default_corpus:
        assert_same_features(sample.cfg)


def test_feature_matrix_matches_reference_on_hostile_corpus():
    # Edges that leave a 2-block graph at either end, as source or target.
    edges = [(-1, 1), (2, 0), (0, 2)]
    dangling = 0
    for sample in hostile_samples() + [two_block_sample(e) for e in edges]:
        cfg = sample.cfg
        n = cfg.node_count
        if any(not 0 <= v < n for edge in cfg.edges for v in edge[:2]):
            # The reference indexes raw endpoints; the matrix rejects them.
            with pytest.raises(ValueError, match=f"leaves the {n}-block graph"):
                cfg_feature_matrix(cfg)
            dangling += 1
        else:
            assert_same_features(cfg)
    assert dangling > len(edges)  # the hostile corpus holds one more


def test_feature_matrix_of_empty_cfg():
    features = assert_same_features(CFG([], [], "empty"))
    assert features.shape == (0, NUM_FEATURES)


def constants_program():
    b = ProgramBuilder("constants")
    b.emit("mov", "eax", "42")
    b.emit("xor", "edx", "87BDC1D7h")
    b.emit("cmp", "eax", "0x10")
    b.emit("add", "eax", "-8")
    b.emit("mov", "ebx", "42")  # a repeated operand counts every time
    b.emit("push", "'cmd.exe'")
    b.emit("push", '"run"')
    b.emit("mov", "eax", "ebx")
    b.emit("nop")
    b.emit("db", "'abc'", "0")
    b.emit("dd", "0FFh")
    b.emit("ret")
    return b.build()


def test_feature_matrix_counts_constants_and_declarations():
    features = assert_same_features(build_cfg(constants_program()))
    row = dict(zip(FEATURE_NAMES, features[0]))
    assert row["numeric_constants"] == 7
    assert row["string_constants"] == 3
    assert row["data_declaration_instructions"] == 2
    assert row["total_instructions"] == row["instructions_in_vertex"] == 12


def test_feature_matrix_collapses_parallel_edges():
    program = parse_program("mov eax, 1\njmp out\nout:\nret", name="parallel")
    cfg = build_cfg(program)
    parallel = CFG(
        cfg.blocks,
        cfg.edges + [(0, 1, EdgeKind.FALLTHROUGH), (0, 1, EdgeKind.CALL)],
        "parallel",
    )
    features = assert_same_features(parallel)
    assert features[0][FEATURE_NAMES.index("offspring")] == 1
    assert features[1][FEATURE_NAMES.index("offspring")] == 0

"""CFG/ACFG invariant verifier: a lint pass with typed findings.

Every number downstream of CFG recovery — Figure 2, Tables III–V —
silently trusts a handful of structural invariants: blocks partition
the instruction list, leaders are exactly where the algorithm says,
edges carry the paper's 0/1/2 weights, terminators match their
out-edge kinds, and each block's 12-dim Table I feature vector agrees
with its instructions.  This module checks all of them and reports
violations as :class:`Finding` objects with severities, so a corpus
gate (:func:`repro.staticcheck.verify_corpus`) can fail fast in strict
mode while analysis-grade signals (unreachable blocks, dead stores)
ride along as warnings/infos.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.acfg.features import FEATURE_NAMES, cfg_feature_matrix
from repro.acfg.graph import ACFG, from_sample
from repro.disasm.cfg import CFG, EdgeKind, find_leaders
from repro.disasm.program import Program
from repro.malgen.corpus import LabeledSample
from repro.staticcheck.dataflow import dead_stores, unreachable_blocks
from repro.staticcheck.dominators import irreducible_edges

__all__ = [
    "Finding",
    "FindingKind",
    "Severity",
    "verify_acfg",
    "verify_cfg",
    "verify_sample",
]


class Severity(enum.IntEnum):
    """How bad a finding is; strict gates fail on ``ERROR`` only."""

    INFO = 10
    WARNING = 20
    ERROR = 30


class FindingKind(enum.Enum):
    """Typed finding categories, one per verified invariant."""

    EMPTY_BLOCK = "empty_block"
    BLOCK_INDEX_MISMATCH = "block_index_mismatch"
    BLOCK_PARTITION = "block_partition"
    LEADER_MISMATCH = "leader_mismatch"
    EDGE_ENDPOINT = "edge_endpoint"
    TERMINATOR_EDGE = "terminator_edge"
    FALLTHROUGH_TARGET = "fallthrough_target"
    EDGE_WEIGHT = "edge_weight"
    ADJACENCY_MISMATCH = "adjacency_mismatch"
    NODE_COUNT_MISMATCH = "node_count_mismatch"
    FEATURE_MISMATCH = "feature_mismatch"
    PADDING_NONZERO = "padding_nonzero"
    UNREACHABLE_BLOCK = "unreachable_block"
    DEAD_STORE = "dead_store"
    IRREDUCIBLE_LOOP = "irreducible_loop"


#: Default severity per kind: structural invariants are errors; the
#: dataflow-derived signals are analysis results, not defects (dead
#: code is *expected* in malware), so they never fail a strict gate.
_SEVERITIES: dict[FindingKind, Severity] = {
    FindingKind.UNREACHABLE_BLOCK: Severity.WARNING,
    FindingKind.DEAD_STORE: Severity.INFO,
    FindingKind.IRREDUCIBLE_LOOP: Severity.WARNING,
}


@dataclass(frozen=True)
class Finding:
    """One verifier result: what invariant, where, and why."""

    kind: FindingKind
    severity: Severity
    message: str
    block_index: int | None = None

    def __str__(self) -> str:
        where = f" block {self.block_index}" if self.block_index is not None else ""
        return f"[{self.severity.name}] {self.kind.value}{where}: {self.message}"


def _finding(
    kind: FindingKind, message: str, block_index: int | None = None
) -> Finding:
    return Finding(
        kind=kind,
        severity=_SEVERITIES.get(kind, Severity.ERROR),
        message=message,
        block_index=block_index,
    )


# ----------------------------------------------------------------------
# CFG structure
# ----------------------------------------------------------------------
def _check_partition(cfg: CFG, program: Program | None) -> list[Finding]:
    findings: list[Finding] = []
    for position, block in enumerate(cfg.blocks):
        if block.index != position:
            findings.append(
                _finding(
                    FindingKind.BLOCK_INDEX_MISMATCH,
                    f"block at position {position} carries index {block.index}",
                    block.index,
                )
            )
        if not block.instructions:
            findings.append(
                _finding(FindingKind.EMPTY_BLOCK, "block has no instructions", block.index)
            )

    expected_start = 0
    for block in cfg.blocks:
        if block.start != expected_start:
            findings.append(
                _finding(
                    FindingKind.BLOCK_PARTITION,
                    f"block starts at instruction {block.start}, expected "
                    f"{expected_start} (blocks must tile the program)",
                    block.index,
                )
            )
        expected_start = block.start + len(block.instructions)

    if program is not None:
        if expected_start != len(program):
            findings.append(
                _finding(
                    FindingKind.BLOCK_PARTITION,
                    f"blocks cover {expected_start} instructions, program has "
                    f"{len(program)}",
                )
            )
        for block in cfg.blocks:
            stop = block.start + len(block.instructions)
            if stop > len(program):
                continue  # already reported as a partition error
            if tuple(program.instructions[block.start : stop]) != block.instructions:
                findings.append(
                    _finding(
                        FindingKind.BLOCK_PARTITION,
                        "block instructions differ from the program slice "
                        f"[{block.start}:{stop}]",
                        block.index,
                    )
                )
    return findings


def _check_leaders(cfg: CFG, program: Program) -> list[Finding]:
    expected = set(find_leaders(program)) if program.instructions else set()
    actual = {block.start for block in cfg.blocks}
    findings: list[Finding] = []
    for start in sorted(expected - actual):
        findings.append(
            _finding(
                FindingKind.LEADER_MISMATCH,
                f"instruction {start} is a leader but starts no block",
            )
        )
    for start in sorted(actual - expected):
        findings.append(
            _finding(
                FindingKind.LEADER_MISMATCH,
                f"block starts at instruction {start}, which is not a leader",
            )
        )
    return findings


def _check_edges(cfg: CFG) -> list[Finding]:
    findings: list[Finding] = []
    n = len(cfg.blocks)
    start_of = {block.start: block.index for block in cfg.blocks}

    for source, target, kind in cfg.edges:
        if not (0 <= source < n and 0 <= target < n):
            findings.append(
                _finding(
                    FindingKind.EDGE_ENDPOINT,
                    f"edge ({source} -> {target}, {kind.value}) leaves the "
                    f"{n}-block graph",
                )
            )
            continue
        if kind is EdgeKind.FALLTHROUGH:
            source_block = cfg.blocks[source]
            next_start = source_block.start + len(source_block.instructions)
            if start_of.get(next_start) != target:
                findings.append(
                    _finding(
                        FindingKind.FALLTHROUGH_TARGET,
                        f"fallthrough from block {source} reaches block {target}, "
                        "not the next block in layout",
                        source,
                    )
                )

    out_kinds: dict[int, list[EdgeKind]] = {b.index: [] for b in cfg.blocks}
    for source, target, kind in cfg.edges:
        if 0 <= source < n:
            out_kinds[source].append(kind)

    for block in cfg.blocks:
        if not block.instructions:
            continue
        terminator = block.terminator
        kinds = out_kinds[block.index]
        counts = {k: kinds.count(k) for k in EdgeKind}

        def complain(expected: str) -> None:
            actual = ", ".join(k.value for k in kinds) or "none"
            findings.append(
                _finding(
                    FindingKind.TERMINATOR_EDGE,
                    f"terminator '{terminator}' expects {expected}; "
                    f"out-edges are [{actual}]",
                    block.index,
                )
            )

        if terminator.is_return:
            if kinds:
                complain("no out-edges")
        elif terminator.is_unconditional_jump:
            if counts[EdgeKind.JUMP] != 1 or len(kinds) != 1:
                complain("exactly one jump edge")
        elif terminator.is_conditional_jump:
            if counts[EdgeKind.JUMP] != 1 or counts[EdgeKind.CALL] != 0:
                complain("one jump edge plus an optional fallthrough")
            elif counts[EdgeKind.FALLTHROUGH] > 1:
                complain("at most one fallthrough edge")
        elif terminator.is_call and terminator.target is not None:
            if counts[EdgeKind.CALL] != 1 or counts[EdgeKind.JUMP] != 0:
                complain("one call edge plus an optional fallthrough")
            elif counts[EdgeKind.FALLTHROUGH] > 1:
                complain("at most one fallthrough edge")
        else:
            if counts[EdgeKind.JUMP] or counts[EdgeKind.CALL]:
                complain("at most one fallthrough edge")
            elif counts[EdgeKind.FALLTHROUGH] > 1:
                complain("at most one fallthrough edge")
    return findings


def _check_dataflow(cfg: CFG) -> list[Finding]:
    findings: list[Finding] = []
    for index in sorted(unreachable_blocks(cfg)):
        findings.append(
            _finding(
                FindingKind.UNREACHABLE_BLOCK,
                "no path from the entry block reaches this block",
                index,
            )
        )
    for store in dead_stores(cfg):
        findings.append(
            _finding(FindingKind.DEAD_STORE, str(store), store.block_index)
        )
    if any(block.index == 0 for block in cfg.blocks):
        for source, target in irreducible_edges(cfg):
            findings.append(
                _finding(
                    FindingKind.IRREDUCIBLE_LOOP,
                    f"retreating edge {source} -> {target} closes a "
                    "multiple-entry loop (target does not dominate source); "
                    "natural-loop analysis cannot see this loop and chain "
                    "collapse must not merge across it",
                    source,
                )
            )
    return findings


def verify_cfg(
    cfg: CFG, program: Program | None = None, *, dataflow: bool = True
) -> list[Finding]:
    """Check every structural CFG invariant; optionally add dataflow signals.

    With ``program`` the partition and leader checks compare against the
    source instruction list; without it only intra-CFG consistency runs.
    """
    findings = _check_partition(cfg, program)
    if program is not None and cfg.blocks:
        findings.extend(_check_leaders(cfg, program))
    findings.extend(_check_edges(cfg))
    # The dataflow passes index blocks by edge endpoint; a dangling edge
    # is already an ERROR, so they are skipped rather than run on it.
    if dataflow and cfg.blocks and not _has_endpoint_finding(findings):
        findings.extend(_check_dataflow(cfg))
    return findings


def _has_endpoint_finding(findings: list[Finding]) -> bool:
    return any(f.kind is FindingKind.EDGE_ENDPOINT for f in findings)


# ----------------------------------------------------------------------
# ACFG consistency
# ----------------------------------------------------------------------
def verify_acfg(
    acfg: ACFG,
    cfg: CFG,
    program: Program | None = None,
    *,
    dataflow: bool = True,
) -> list[Finding]:
    """Verify an ACFG against the CFG it claims to represent.

    Expects *raw* (unscaled) features — run this before
    :class:`repro.acfg.FeatureScaler`, as the corpus gate does.
    """
    findings = verify_cfg(cfg, program, dataflow=dataflow)
    if not _has_endpoint_finding(findings):  # else no adjacency to rebuild
        findings.extend(_check_acfg(acfg, cfg))
    return findings


def _check_acfg(acfg: ACFG, cfg: CFG) -> list[Finding]:
    findings: list[Finding] = []
    n_real = acfg.n_real
    if n_real != cfg.node_count:
        findings.append(
            _finding(
                FindingKind.NODE_COUNT_MISMATCH,
                f"ACFG says {n_real} real nodes, CFG has {cfg.node_count}",
            )
        )
        return findings  # block-aligned checks below would misreport

    allowed = np.isin(acfg.adjacency, (0.0, 1.0, 2.0))
    if not allowed.all():
        bad = np.argwhere(~allowed)[:3]
        findings.append(
            _finding(
                FindingKind.EDGE_WEIGHT,
                "adjacency contains values outside {0, 1, 2} at "
                + ", ".join(f"({i}, {j})" for i, j in bad),
            )
        )

    expected_adjacency = cfg.adjacency_matrix().astype(np.float64)
    actual = acfg.adjacency[:n_real, :n_real]
    if not np.array_equal(actual, expected_adjacency):
        for i, j in np.argwhere(actual != expected_adjacency):
            expected_weight = expected_adjacency[i, j]
            got = actual[i, j]
            kind = (
                FindingKind.EDGE_WEIGHT
                if expected_weight > 0 and got > 0
                else FindingKind.ADJACENCY_MISMATCH
            )
            findings.append(
                _finding(
                    kind,
                    f"A[{i}, {j}] = {got:g}, CFG edges say {expected_weight:g}",
                    int(i),
                )
            )

    if acfg.n > n_real:
        pad_adjacency = (
            acfg.adjacency[n_real:, :].any() or acfg.adjacency[:, n_real:].any()
        )
        if pad_adjacency:
            findings.append(
                _finding(
                    FindingKind.PADDING_NONZERO,
                    "padding rows/columns of the adjacency are not all zero",
                )
            )
        if acfg.features[n_real:].any():
            findings.append(
                _finding(
                    FindingKind.PADDING_NONZERO,
                    "padding rows of the feature matrix are not all zero",
                )
            )

    expected_features = cfg_feature_matrix(cfg)
    actual_features = acfg.features[:n_real]
    if actual_features.shape != expected_features.shape:
        findings.append(
            _finding(
                FindingKind.FEATURE_MISMATCH,
                f"feature matrix is {actual_features.shape}, expected "
                f"{expected_features.shape}",
            )
        )
    elif n_real and not np.allclose(actual_features, expected_features):
        rows = np.where(~np.all(np.isclose(actual_features, expected_features), axis=1))[0]
        for row in rows:
            columns = np.where(
                ~np.isclose(actual_features[row], expected_features[row])
            )[0]
            names = ", ".join(
                f"{FEATURE_NAMES[c]}={actual_features[row, c]:g} "
                f"(expected {expected_features[row, c]:g})"
                for c in columns[:3]
            )
            findings.append(
                _finding(
                    FindingKind.FEATURE_MISMATCH,
                    f"stale feature vector: {names}",
                    int(row),
                )
            )
    return findings


def verify_sample(sample: LabeledSample, *, dataflow: bool = True) -> list[Finding]:
    """Verify one corpus sample: program ↔ CFG ↔ freshly derived ACFG.

    A CFG with a dangling edge has no ACFG to derive; its CFG findings
    (the ``EDGE_ENDPOINT`` ERRORs included) are returned as they are.
    """
    findings = verify_cfg(sample.cfg, sample.program, dataflow=dataflow)
    if not _has_endpoint_finding(findings):
        findings.extend(_check_acfg(from_sample(sample), sample.cfg))
    return findings

"""Ingestion quarantine: typed structural/numerical checks on hostile graphs.

CFGExplainer's input domain is adversarial by construction — malware
authors control the binaries that become CFGs — so ingestion treats
every sample as hostile until checked.  A :class:`GraphSanitizer`
inspects corpus samples at two stages (the recovered CFG, then the
built ACFG) and emits typed :class:`QuarantineRecord` findings; the
``on_bad_input`` policy decides whether a fatal finding quarantines the
sample (drop + report) or raises :class:`HostileInputError`.

Findings are split into two severities:

* **fatal** reasons (:data:`DEFAULT_QUARANTINE_REASONS`) mark graphs
  that would corrupt training — empty graphs, NaN/Inf/negative
  features, absurd sizes, invalid adjacency values.  Under
  ``on_bad_input="quarantine"`` these samples are dropped and counted;
  under ``"raise"`` the first one aborts ingestion.
* **flag** reasons (self-loops, disconnected components, duplicate
  CFG edges, single-block graphs can be promoted) occur in legitimate
  code — spin loops, unreachable stubs — so they are recorded and
  counted but do not drop the sample under the default policy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.acfg.graph import ACFG

__all__ = [
    "DEFAULT_QUARANTINE_REASONS",
    "FLAG_REASONS",
    "GraphSanitizer",
    "HostileInputError",
    "ON_BAD_INPUT_POLICIES",
    "QuarantineRecord",
    "QuarantineReport",
    "sanitize_graphs",
]

#: Accepted values of the ``on_bad_input`` ingestion policy.
ON_BAD_INPUT_POLICIES = (None, "quarantine", "raise")

#: Reasons that drop (or abort on) a sample by default.
DEFAULT_QUARANTINE_REASONS: frozenset[str] = frozenset(
    {
        "empty_graph",
        "single_block",
        "nan_feature",
        "inf_feature",
        "negative_feature",
        "oversized_nodes",
        "oversized_edges",
        "bad_adjacency_value",
        "feature_dim_mismatch",
        "construction_error",
    }
)

#: Reasons recorded but tolerated by default (present in legitimate code).
FLAG_REASONS: frozenset[str] = frozenset(
    {"self_loop", "disconnected", "duplicate_edges"}
)


@dataclass(frozen=True)
class QuarantineRecord:
    """One typed finding about one sample.

    ``stage`` names where the finding surfaced: ``"cfg"`` (recovered
    control flow graph), ``"acfg"`` (built attributed graph), or
    ``"construction"`` (the CFG→ACFG conversion itself failed).
    """

    name: str
    family: str | None
    reason: str
    detail: str
    stage: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "reason": self.reason,
            "detail": self.detail,
            "stage": self.stage,
        }


class HostileInputError(ValueError):
    """A fatal sanitizer finding under the ``on_bad_input="raise"`` policy."""

    def __init__(self, record: QuarantineRecord):
        super().__init__(
            f"hostile input {record.name!r} ({record.stage}): "
            f"{record.reason} — {record.detail}"
        )
        self.record = record


@dataclass
class QuarantineReport:
    """What ingestion saw: every finding, and which samples were dropped."""

    inspected: int = 0
    records: list[QuarantineRecord] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def flagged(self) -> int:
        """Samples with at least one non-fatal finding."""
        fatal = set(self.quarantined)
        return len({r.name for r in self.records} - fatal)

    def by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return dict(sorted(counts.items()))

    def merged(self, other: "QuarantineReport") -> "QuarantineReport":
        return QuarantineReport(
            inspected=self.inspected + other.inspected,
            records=self.records + other.records,
            quarantined=self.quarantined + other.quarantined,
        )

    def to_dict(self) -> dict:
        return {
            "inspected": self.inspected,
            "quarantined": list(self.quarantined),
            "by_reason": self.by_reason(),
            "records": [r.to_dict() for r in self.records],
        }

    def summary(self) -> str:
        lines = [
            f"inspected {self.inspected} sample(s): "
            f"{len(self.quarantined)} quarantined, {self.flagged} flagged"
        ]
        for reason, count in self.by_reason().items():
            lines.append(f"  {reason:<22} {count}")
        for name in self.quarantined:
            reasons = sorted({r.reason for r in self.records if r.name == name})
            lines.append(f"  - {name}: {', '.join(reasons)}")
        return "\n".join(lines)


def _components(n: int, edges: Iterable[Sequence[int]]) -> int:
    """Weakly connected component count via union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


@dataclass(frozen=True)
class GraphSanitizer:
    """Structural and numerical checks with configurable severities."""

    max_nodes: int = 50_000
    max_edges: int = 500_000
    #: Feature width every graph must match (None = don't check).
    expected_features: int | None = None
    #: Reasons treated as fatal; everything else is a flag.
    quarantine_reasons: frozenset[str] = DEFAULT_QUARANTINE_REASONS

    def is_fatal(self, record: QuarantineRecord) -> bool:
        return record.reason in self.quarantine_reasons

    # ------------------------------------------------------------------
    # CFG-level checks (pre-conversion, edge list still available)
    # ------------------------------------------------------------------
    def check_sample(self, sample) -> list[QuarantineRecord]:
        """Inspect a :class:`~repro.malgen.corpus.LabeledSample`'s CFG."""
        cfg = sample.cfg
        name = sample.program.name
        family = sample.family
        records: list[QuarantineRecord] = []

        def note(reason: str, detail: str) -> None:
            records.append(QuarantineRecord(name, family, reason, detail, "cfg"))

        if cfg.node_count == 0:
            note("empty_graph", "CFG has no basic blocks")
            return records
        n = cfg.node_count
        pairs = [(s, t) for s, t, _ in cfg.edges]
        dangling = [(s, t) for s, t in pairs if not (0 <= s < n and 0 <= t < n)]
        if dangling:
            detail = f"{len(dangling)} edge(s) leave the {n}-block graph, first {dangling[0]}"
            note("construction_error", detail)
        if cfg.node_count == 1:
            note("single_block", "CFG is a single basic block")
        if cfg.node_count > self.max_nodes:
            note("oversized_nodes", f"{cfg.node_count} blocks > {self.max_nodes}")
        if cfg.edge_count > self.max_edges:
            note("oversized_edges", f"{cfg.edge_count} edges > {self.max_edges}")
        dupes = len(pairs) - len(set(pairs))
        if dupes:
            note("duplicate_edges", f"{dupes} duplicate edge(s) in the edge list")
        self_loops = sum(1 for s, t in pairs if s == t)
        if self_loops:
            note("self_loop", f"{self_loops} self-loop edge(s)")
        if n > 1 and not dangling:
            if _components(n, set(pairs)) > 1:
                note("disconnected", "CFG has more than one weak component")
        return records

    # ------------------------------------------------------------------
    # ACFG-level checks (numerical payload)
    # ------------------------------------------------------------------
    def check_acfg(self, graph: ACFG) -> list[QuarantineRecord]:
        records: list[QuarantineRecord] = []

        def note(reason: str, detail: str) -> None:
            records.append(
                QuarantineRecord(graph.name, graph.family, reason, detail, "acfg")
            )

        if graph.n_real == 0:
            note("empty_graph", "ACFG has no real nodes")
            return records
        if graph.n_real == 1:
            note("single_block", "ACFG has a single real node")
        if graph.n_real > self.max_nodes:
            note("oversized_nodes", f"{graph.n_real} nodes > {self.max_nodes}")
        if (
            self.expected_features is not None
            and graph.num_features != self.expected_features
        ):
            note(
                "feature_dim_mismatch",
                f"{graph.num_features} features != {self.expected_features}",
            )
        real = graph.features[: graph.n_real]
        nan_count = int(np.isnan(real).sum())
        if nan_count:
            note("nan_feature", f"{nan_count} NaN feature value(s)")
        inf_count = int(np.isinf(real).sum())
        if inf_count:
            note("inf_feature", f"{inf_count} infinite feature value(s)")
        finite = real[np.isfinite(real)]
        negative = int((finite < 0).sum())
        if negative:
            note("negative_feature", f"{negative} negative feature value(s)")
        adjacency = graph.adjacency[: graph.n_real, : graph.n_real]
        bad_values = set(np.unique(adjacency)) - {0.0, 1.0, 2.0}
        if bad_values:
            note("bad_adjacency_value", f"values {sorted(bad_values)} not in {{0,1,2}}")
        if np.any(np.diag(adjacency) != 0):
            note("self_loop", f"{int((np.diag(adjacency) != 0).sum())} self-loop(s)")
        if graph.n_real > 1:
            if _components(graph.n_real, np.argwhere(adjacency).tolist()) > 1:
                note("disconnected", "ACFG has more than one weak component")
        return records


def sanitize_graphs(
    graphs: list[ACFG],
    on_bad_input: str | None = "quarantine",
    sanitizer: GraphSanitizer | None = None,
) -> tuple[list[ACFG], QuarantineReport]:
    """Apply ACFG-level checks to already-built graphs.

    Returns ``(kept_graphs, report)``.  With ``on_bad_input="raise"``
    the first fatal finding raises :class:`HostileInputError`; with
    ``None`` every graph is kept (the report still records findings).
    """
    if on_bad_input not in ON_BAD_INPUT_POLICIES:
        raise ValueError(
            f"on_bad_input must be one of {ON_BAD_INPUT_POLICIES}, "
            f"got {on_bad_input!r}"
        )
    sanitizer = sanitizer or GraphSanitizer()
    report = QuarantineReport(inspected=len(graphs))
    kept: list[ACFG] = []
    for graph in graphs:
        records = sanitizer.check_acfg(graph)
        report.records.extend(records)
        fatal = [r for r in records if sanitizer.is_fatal(r)]
        if fatal and on_bad_input == "raise":
            raise HostileInputError(fatal[0])
        if fatal and on_bad_input == "quarantine":
            report.quarantined.append(graph.name)
            continue
        kept.append(graph)
    return kept, report

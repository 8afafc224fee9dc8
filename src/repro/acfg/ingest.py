"""The single ingestion path: sanitize → verify → reduce.

Exactly one implementation of the hostile-input ordering exists in the
repository, and it lives here.  Two consumers share it:

* **Corpus construction** — :meth:`repro.acfg.ACFGDataset.from_corpus`
  calls :func:`ingest_corpus` to turn a generated (or loaded) corpus
  into ACFGs, quarantining hostile samples, gating on the
  :mod:`repro.staticcheck` invariants, and optionally shrinking every
  graph through :mod:`repro.reduce` — all before padding.
* **Serving** — :class:`repro.serve.engine.InferenceEngine` calls
  :func:`ingest_sample` on every submission, running the *same* checks
  in the *same* order on a single graph, but collecting findings into a
  typed result instead of raising, so the daemon can turn them into
  typed request rejections.

The ordering is a security invariant, not a convenience: quarantine
runs **first** so hostile samples cannot crash the verifier, the
verifier runs **second** so reduction never sees a structurally invalid
CFG, and reduction runs **last** (before padding/scaling) so its
dominator analyses operate on verified structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.acfg.graph import ACFG, from_sample
from repro.malgen.corpus import LabeledSample
from repro.obs import add_counter
from repro.obs import span as obs_span

if TYPE_CHECKING:  # pragma: no cover - types only (lazy at runtime)
    from repro.harden.sanitize import (
        GraphSanitizer,
        QuarantineRecord,
        QuarantineReport,
    )
    from repro.reduce import LiftMap, ReduceConfig, ReductionStats

__all__ = [
    "CorpusIngest",
    "IngestPolicy",
    "SampleIngest",
    "ingest_corpus",
    "ingest_sample",
]


@dataclass(frozen=True)
class IngestPolicy:
    """Every knob of the sanitize → verify → reduce path, in one place.

    ``on_bad_input`` is the :mod:`repro.harden` quarantine policy
    (``None`` trusts the input, ``"quarantine"`` drops fatal samples,
    ``"raise"`` aborts on the first one); ``verify`` is the
    :mod:`repro.staticcheck` invariant gate mode (``None`` / ``"warn"``
    / ``"strict"``); ``reduce`` an optional
    :class:`repro.reduce.ReduceConfig` applied after both gates.
    ``sanitizer`` overrides the default :class:`GraphSanitizer` (custom
    size bounds, promoted reasons).
    """

    on_bad_input: str | None = None
    verify: str | None = None
    reduce: "ReduceConfig | None" = None
    sanitizer: "GraphSanitizer | None" = None

    def __post_init__(self):
        from repro.harden.sanitize import ON_BAD_INPUT_POLICIES

        if self.on_bad_input not in ON_BAD_INPUT_POLICIES:
            raise ValueError(
                f"on_bad_input must be one of {ON_BAD_INPUT_POLICIES}, "
                f"got {self.on_bad_input!r}"
            )
        if self.verify not in (None, "strict", "warn"):
            raise ValueError(
                f"verify must be None, 'strict' or 'warn', got {self.verify!r}"
            )


@dataclass
class CorpusIngest:
    """What survived corpus ingestion, plus every finding along the way."""

    samples: list[LabeledSample]
    graphs: list[ACFG]
    quarantine: "QuarantineReport | None" = None
    lift_maps: "dict[str, LiftMap] | None" = None
    reduction: "ReductionStats | None" = None


@dataclass
class SampleIngest:
    """One submission's trip through sanitize → verify → reduce.

    ``graph`` is the model-ready (reduced, unscaled, unpadded) ACFG, or
    ``None`` when a fatal finding stopped the path.  ``fatal`` holds the
    findings that stopped it; ``records`` every finding including
    non-fatal flags.  ``lift`` is the reduction lift map (``None`` when
    reduction was off or an identity).
    """

    sample: LabeledSample
    graph: ACFG | None
    records: "list[QuarantineRecord]" = field(default_factory=list)
    fatal: "list[QuarantineRecord]" = field(default_factory=list)
    lift: "LiftMap | None" = None
    original: ACFG | None = None

    @property
    def ok(self) -> bool:
        return self.graph is not None and not self.fatal


def _sanitize_one(
    sample: LabeledSample,
    sanitizer: "GraphSanitizer",
    graph: ACFG | None = None,
    cfg_checks: bool = True,
) -> "tuple[ACFG | None, list[QuarantineRecord]]":
    """Sanitizer checks + CFG→ACFG conversion for one sample.

    Conversion happens inside the try/except so a sample whose
    construction explodes is quarantined as ``construction_error``
    rather than crashing ingestion.  A prebuilt ``graph`` is checked
    instead of a conversion; ``cfg_checks=False`` skips the CFG checks.
    """
    from repro.harden.sanitize import QuarantineRecord

    records = sanitizer.check_sample(sample) if cfg_checks else []
    if any(r.reason == "construction_error" for r in records):
        return None, records  # an edge leaves the graph: nothing to convert
    if graph is None:
        try:
            graph = from_sample(sample)
        except Exception as error:  # hostile input can fail anywhere
            records.append(
                QuarantineRecord(
                    sample.program.name,
                    sample.family,
                    "construction_error",
                    f"{type(error).__name__}: {error}",
                    "construction",
                )
            )
            return None, records
    records.extend(sanitizer.check_acfg(graph))
    return graph, records


def _reduce_many(
    samples: list[LabeledSample],
    graphs: list[ACFG],
    reduce_config: "ReduceConfig",
    on_bad_input: str | None,
    report: "QuarantineReport | None",
):
    """Run :func:`repro.reduce.reduce_acfg` over converted samples.

    Returns ``(reduced_graphs, lift_maps_by_name, corpus_stats)``.  A
    graph whose reduction raises is quarantined (when the policy
    allows) with reason ``reduction_error`` instead of crashing
    ingestion, so reduction composes with the hostile-input pipeline.
    """
    from repro.harden.sanitize import HostileInputError, QuarantineRecord
    from repro.reduce import merge_stats, reduce_acfg

    kept: list[ACFG] = []
    lift_maps: dict[str, object] = {}
    stats = []
    for sample, graph in zip(samples, graphs):
        try:
            result = reduce_acfg(graph, cfg=sample.cfg, config=reduce_config)
        except (ArithmeticError, ValueError) as error:
            record = QuarantineRecord(
                sample.program.name,
                sample.family,
                "reduction_error",
                f"{type(error).__name__}: {error}",
                "reduce",
            )
            if on_bad_input == "quarantine":
                if report is not None:
                    report.records.append(record)
                    report.quarantined.append(sample.program.name)
                add_counter("reduce.quarantined")
                continue
            if on_bad_input == "raise":
                raise HostileInputError(record) from error
            raise
        kept.append(result.graph)
        lift_maps[result.graph.name] = result.lift
        stats.append(result.stats)
    totals = merge_stats(stats)
    add_counter("reduce.graphs", len(kept))
    add_counter("reduce.nodes_before", totals.nodes_before)
    add_counter("reduce.nodes_after", totals.nodes_after)
    add_counter("reduce.edges_before", totals.edges_before)
    add_counter("reduce.edges_after", totals.edges_after)
    add_counter("reduce.blocks_merged", totals.blocks_merged)
    add_counter("reduce.chains_collapsed", totals.chains_collapsed)
    add_counter("reduce.unreachable_pruned", totals.unreachable_pruned)
    add_counter("reduce.dead_store_bypassed", totals.dead_store_bypassed)
    add_counter("reduce.leaves_pruned", totals.leaves_pruned)
    return kept, lift_maps, totals


def ingest_corpus(
    corpus: list[LabeledSample],
    policy: IngestPolicy,
    span_prefix: str = "dataset",
) -> CorpusIngest:
    """Corpus-wide sanitize → verify → reduce with batch semantics.

    Matches the historical :meth:`ACFGDataset.from_corpus` contract
    exactly: a fatal sanitizer finding under ``on_bad_input="raise"``
    raises :class:`~repro.harden.HostileInputError`; ``verify="strict"``
    raises :class:`~repro.staticcheck.CorpusVerificationError` on any
    invariant violation over the post-quarantine corpus.
    """
    report = None
    graphs: list[ACFG]
    if policy.on_bad_input is not None:
        from repro.harden.sanitize import (
            GraphSanitizer,
            HostileInputError,
            QuarantineReport,
        )

        sanitizer = policy.sanitizer or GraphSanitizer()
        report = QuarantineReport(inspected=len(corpus))
        kept_samples: list[LabeledSample] = []
        kept_graphs: list[ACFG] = []
        with obs_span(f"{span_prefix}.sanitize"):
            for sample in corpus:
                graph, records = _sanitize_one(sample, sanitizer)
                report.records.extend(records)
                fatal = [r for r in records if sanitizer.is_fatal(r)]
                if fatal:
                    if policy.on_bad_input == "raise":
                        raise HostileInputError(fatal[0])
                    report.quarantined.append(sample.program.name)
                    add_counter("harden.quarantined")
                    for record in fatal:
                        add_counter(f"harden.quarantine.{record.reason}")
                    continue
                if records:
                    add_counter("harden.flagged")
                kept_samples.append(sample)
                kept_graphs.append(graph)
            add_counter("harden.inspected", len(corpus))
        corpus, graphs = kept_samples, kept_graphs
    else:
        graphs = []

    if policy.on_bad_input is None:
        graphs = [from_sample(sample) for sample in corpus]

    if policy.verify is not None:
        # Imported here: repro.staticcheck depends on repro.acfg.
        from repro.staticcheck import verify_corpus

        # Verify the graphs this ingest admits, not fresh conversions.
        # Dataflow findings are never ERRORs, so the gate skips them.
        with obs_span(f"{span_prefix}.verify"):
            verify_corpus(corpus, mode=policy.verify, graphs=graphs, dataflow=False)

    lift_maps = None
    reduction = None
    if policy.reduce is not None:
        with obs_span(f"{span_prefix}.reduce"):
            graphs, lift_maps, reduction = _reduce_many(
                corpus, graphs, policy.reduce, policy.on_bad_input, report
            )
    return CorpusIngest(
        samples=list(corpus),
        graphs=graphs,
        quarantine=report,
        lift_maps=lift_maps,
        reduction=reduction,
    )


def ingest_sample(
    sample: LabeledSample,
    policy: IngestPolicy,
    graph: ACFG | None = None,
    skip_cfg_checks: bool = False,
    stage_hook=None,
) -> SampleIngest:
    """One submission through the same path, with collecting semantics.

    Unlike :func:`ingest_corpus` this never raises on hostile content:
    fatal sanitizer findings and strict-mode verifier errors land in
    ``result.fatal`` as typed :class:`QuarantineRecord` entries, so a
    serving front door can map them to typed rejections.  (A policy of
    ``on_bad_input=None`` still trusts the input and converts blindly,
    exactly like the corpus path.)

    A prebuilt ``graph`` (or ``skip_cfg_checks=True``) is for
    submissions that arrive as bare ACFGs with no recovered CFG
    attached: sanitizer CFG checks and the verifier need instructions,
    so only the ACFG-level checks run.

    ``stage_hook(stage)`` is the resilience seam: called at each stage
    *boundary* — ``"sanitize"``, ``"verify"``, ``"reduce"`` — before the
    stage's own error handling, and unconditionally (even when the
    policy skips the stage) so deadlines and injected faults see every
    boundary.  Whatever it raises propagates to the caller untouched:
    an injected fault must look like an infrastructure failure (retry,
    degrade), never like a hostile-input verdict (quarantine).
    """
    from repro.harden.sanitize import GraphSanitizer, QuarantineRecord

    prebuilt = graph
    skip_cfg_checks = skip_cfg_checks or prebuilt is not None
    result = SampleIngest(sample=sample, graph=None)
    sanitizer = policy.sanitizer or GraphSanitizer()

    if stage_hook is not None:
        stage_hook("sanitize")
    if policy.on_bad_input is not None:
        graph, records = _sanitize_one(
            sample, sanitizer, prebuilt, cfg_checks=not skip_cfg_checks
        )
        result.records.extend(records)
        result.fatal = [r for r in result.records if sanitizer.is_fatal(r)]
        if result.fatal:
            add_counter("harden.quarantined")
            for record in result.fatal:
                add_counter(f"harden.quarantine.{record.reason}")
            return result
        if result.records:
            add_counter("harden.flagged")
        add_counter("harden.inspected", 1)
    else:
        graph = prebuilt if prebuilt is not None else from_sample(sample)

    if stage_hook is not None:
        stage_hook("verify")
    if policy.verify is not None and not skip_cfg_checks:
        from repro.staticcheck import Severity, verify_acfg

        # The admitted graph itself, so the classifier never sees an ACFG the
        # verifier did not check; dataflow findings are never ERRORs, so skip them.
        findings = verify_acfg(graph, sample.cfg, sample.program, dataflow=False)
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        if errors:
            for finding in errors:
                result.records.append(
                    QuarantineRecord(
                        sample.program.name,
                        sample.family,
                        "invariant_violation",
                        str(finding),
                        "verify",
                    )
                )
            if policy.verify == "strict":
                result.fatal = result.records[-len(errors):]
                add_counter("staticcheck.rejected", 1)
                return result

    result.original = graph
    if stage_hook is not None:
        stage_hook("reduce")
    if policy.reduce is not None and graph is not None:
        try:
            graphs, lift_maps, _ = _reduce_many(
                [sample], [graph], policy.reduce, "raise", None
            )
        except Exception as error:
            record = getattr(error, "record", None)
            if record is None:
                record = QuarantineRecord(
                    sample.program.name,
                    sample.family,
                    "reduction_error",
                    f"{type(error).__name__}: {error}",
                    "reduce",
                )
            result.records.append(record)
            result.fatal.append(record)
            return result
        graph = graphs[0]
        lift = lift_maps.get(graph.name)
        result.lift = None if lift is None or lift.is_identity else lift

    result.graph = graph
    return result

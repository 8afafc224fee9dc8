"""Corpus-wide verification: the strict/warn gate the pipeline calls."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

from repro.acfg.graph import ACFG
from repro.malgen.corpus import LabeledSample
from repro.staticcheck.verifier import (
    Finding,
    FindingKind,
    Severity,
    verify_acfg,
    verify_sample,
)

__all__ = [
    "CorpusVerification",
    "CorpusVerificationError",
    "SampleVerification",
    "verify_corpus",
]


@dataclass(frozen=True)
class SampleVerification:
    """Findings for one corpus sample."""

    name: str
    family: str
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity >= Severity.ERROR)


@dataclass
class CorpusVerification:
    """Aggregated verification report over a whole corpus."""

    samples: list[SampleVerification] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        return [f for sample in self.samples for f in sample.findings]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    @property
    def ok(self) -> bool:
        """Whether the corpus is free of ERROR-severity findings."""
        return not self.errors

    def counts_by_kind(self) -> dict[FindingKind, int]:
        return dict(Counter(f.kind for f in self.findings))

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"verified {len(self.samples)} samples: "
            f"{len(self.errors)} errors, "
            f"{sum(1 for f in self.findings if f.severity == Severity.WARNING)} "
            f"warnings, "
            f"{sum(1 for f in self.findings if f.severity == Severity.INFO)} infos"
        ]
        for kind, count in sorted(
            self.counts_by_kind().items(), key=lambda item: item[0].value
        ):
            lines.append(f"  {kind.value:24s} {count}")
        for sample in self.samples:
            for finding in sample.errors:
                lines.append(f"  {sample.name} ({sample.family}): {finding}")
        return "\n".join(lines)


class CorpusVerificationError(RuntimeError):
    """Raised by strict-mode verification when any invariant fails."""

    def __init__(self, report: CorpusVerification):
        super().__init__(
            f"corpus verification failed with {len(report.errors)} error(s):\n"
            + report.summary()
        )
        self.report = report


def verify_corpus(
    corpus: list[LabeledSample],
    mode: str = "strict",
    *,
    dataflow: bool = True,
    graphs: list[ACFG] | None = None,
) -> CorpusVerification:
    """Verify every sample of a corpus against the CFG/ACFG invariants.

    ``mode="strict"`` raises :class:`CorpusVerificationError` on any
    ERROR-severity finding; ``mode="warn"`` emits a ``UserWarning``
    instead.  Both return the full report (warnings/infos included).
    ``graphs`` (one raw, unscaled ACFG per sample) checks those graphs
    against their samples instead of converting each sample afresh.
    """
    if mode not in {"strict", "warn"}:
        raise ValueError(f"mode must be 'strict' or 'warn', got {mode!r}")
    if graphs is not None and len(graphs) != len(corpus):
        raise ValueError(f"{len(graphs)} graphs for {len(corpus)} samples")
    report = CorpusVerification()
    for index, sample in enumerate(corpus):
        if graphs is None:
            findings = verify_sample(sample, dataflow=dataflow)
        else:
            findings = verify_acfg(
                graphs[index], sample.cfg, sample.program, dataflow=dataflow
            )
        report.samples.append(
            SampleVerification(
                name=sample.program.name,
                family=sample.family,
                findings=tuple(findings),
            )
        )
    if not report.ok:
        if mode == "strict":
            raise CorpusVerificationError(report)
        warnings.warn(
            f"corpus verification found {len(report.errors)} invariant "
            "violation(s); see report.summary()",
            stacklevel=2,
        )
    return report

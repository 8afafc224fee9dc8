"""Engine layer: one implementation of the request path.

:class:`InferenceEngine` owns frozen model artifacts (classifier Φ,
feature scaler, trained explainers) plus the sanitize → verify →
(optional reduce) → classify → explain sequence for a *single*
submission.  The same ingestion primitives back corpus construction
(:func:`repro.acfg.ingest_corpus`) and this per-request path
(:func:`repro.acfg.ingest_sample`), so there is exactly one ordering of
the security-sensitive stages in the repository.

The engine is deliberately synchronous and thread-compatible but not
thread-managing: :meth:`admit` is pure/read-only and safe from any
thread, while :meth:`classify`/:meth:`explain_graph` touch the shared
A-hat/embedding caches and must stay on one thread.  The service layer
(:mod:`repro.serve.daemon`) builds queueing, micro-batching and caching
on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.acfg import ACFG, FeatureScaler, IngestPolicy, ingest_sample
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.nn.guards import NumericalError, assert_finite_array
from repro.obs import add_counter, fingerprint_graph
from repro.resilience import Deadline

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.explain.base import Explainer
    from repro.explain.explanation import Explanation
    from repro.gnn.model import GCNClassifier
    from repro.harden.sanitize import QuarantineRecord
    from repro.reduce import LiftMap

__all__ = [
    "DegradedResponse",
    "EngineResponse",
    "InferenceEngine",
    "PreparedRequest",
    "RequestRejected",
    "submission_from_text",
]

#: Typed rejection reasons the front door can emit.  ``backpressure``
#: is raised by the daemon's bounded admission queue; ``oversize`` and
#: ``quarantine`` by the engine's ingestion gate.
REJECTION_REASONS = ("backpressure", "oversize", "quarantine")


class RequestRejected(RuntimeError):
    """A submission the service refused, with a typed reason.

    ``reason`` is one of :data:`REJECTION_REASONS`; ``records`` carries
    the underlying :class:`~repro.harden.QuarantineRecord` findings for
    ingestion rejections (empty for backpressure).
    """

    def __init__(
        self,
        reason: str,
        detail: str = "",
        records: "Sequence[QuarantineRecord]" = (),
    ):
        if reason not in REJECTION_REASONS:
            raise ValueError(
                f"reason must be one of {REJECTION_REASONS}, got {reason!r}"
            )
        super().__init__(f"request rejected ({reason}): {detail}" if detail else
                         f"request rejected ({reason})")
        self.reason = reason
        self.detail = detail
        self.records = list(records)


def submission_from_text(text: str, name: str = "submission") -> LabeledSample:
    """Wrap raw assembly text as an unlabeled serving submission."""
    from repro.disasm import build_cfg, parse_program

    program = parse_program(text, name=name)
    cfg = build_cfg(program)
    return LabeledSample(
        program=program,
        cfg=cfg,
        family="unknown",
        label=0,
        motif_spans=[],
        block_tags=block_motif_tags(cfg, []),
    )


@dataclass
class PreparedRequest:
    """A submission that survived admission, ready to classify.

    ``graph`` is model-ready (reduced when the policy reduces, scaled,
    unpadded); ``original`` the unreduced/unscaled ACFG used as the
    lift target and fingerprint source; ``lift`` the reduction lift map
    (None when reduction was off or an identity).
    """

    sample: LabeledSample
    graph: ACFG
    fingerprint: str
    original: ACFG | None = None
    lift: "LiftMap | None" = None
    #: Per-request wall budget, checked at every downstream stage
    #: boundary; ``None`` means unbounded (the pre-resilience default).
    deadline: Deadline | None = None


@dataclass
class EngineResponse:
    """What the service returns for one accepted submission."""

    name: str
    fingerprint: str
    probabilities: np.ndarray
    predicted_class: int
    family: str
    explainer: str
    explanation: "Explanation"
    #: True when the response was served from the explanation cache.
    cached: bool = False


@dataclass
class DegradedResponse(EngineResponse):
    """A response the resilience layer salvaged instead of failing.

    Same shape as :class:`EngineResponse` — callers that only read the
    classification fields need no branch — plus the typed degradation
    record.  ``degradation_reason`` is one of
    :data:`repro.resilience.DEGRADATION_REASONS`; ``explanation`` is
    a real (fallback-explainer) explanation for ``explainer_fallback``
    and ``None`` for every deeper rung; for ``unavailable`` even the
    classification fields are placeholders (``predicted_class == -1``).
    """

    explanation: "Explanation | None" = None
    degradation_reason: str = "unavailable"
    #: Stage whose failure caused the degradation.
    failed_stage: str = ""
    #: One of :data:`repro.exec.tasks.FAILURE_KINDS`.
    failure_kind: str = "exception"
    detail: str = ""

    @property
    def degraded(self) -> bool:
        return True


# Non-degraded responses answer False so callers can branch uniformly.
EngineResponse.degraded = property(lambda self: False)


class InferenceEngine:
    """Frozen artifacts + the single-submission request path."""

    def __init__(
        self,
        gnn: "GCNClassifier",
        scaler: FeatureScaler,
        explainers: "dict[str, Explainer]",
        families: tuple[str, ...],
        policy: IngestPolicy | None = None,
        default_explainer: str = "CFGExplainer",
        batch_size: int = 64,
        step_size: int = 10,
    ):
        if default_explainer not in explainers:
            raise ValueError(
                f"unknown explainer {default_explainer!r}; "
                f"have {sorted(explainers)}"
            )
        self.gnn = gnn
        self.scaler = scaler
        self.explainers = dict(explainers)
        if "Gradient" not in self.explainers:
            # Every engine carries the cheap saliency explainer so the
            # resilience ladder always has a rung below the heavy ones.
            from repro.baselines.gradient import GradientExplainer

            self.explainers["Gradient"] = GradientExplainer(gnn)
        self.families = tuple(families)
        #: Serving always sanitizes: the front door faces untrusted
        #: input, so a policy of ``on_bad_input=None`` is upgraded to
        #: ``"quarantine"`` by :meth:`from_artifacts`.
        self.policy = policy if policy is not None else IngestPolicy(
            on_bad_input="quarantine", verify="strict"
        )
        self.default_explainer = default_explainer
        self.batch_size = batch_size
        self.step_size = step_size

    @classmethod
    def from_artifacts(cls, artifacts, explainer: str = "CFGExplainer"):
        """Build an engine over :class:`repro.eval.PipelineArtifacts`.

        ``artifacts`` is duck-typed (``config``/``gnn``/``scaler``/
        ``explainers``/``train_set``) so :mod:`repro.eval` can stay
        ignorant of this module.  The ingestion policy follows the
        training config — reduction **must** match what the model was
        trained on — except that sanitation is never disabled for
        serving.
        """
        config = artifacts.config
        policy = IngestPolicy(
            on_bad_input=config.on_bad_input or "quarantine",
            verify=config.verify_mode,
            reduce=config.reduce,
        )
        return cls(
            gnn=artifacts.gnn,
            scaler=artifacts.scaler,
            explainers=dict(artifacts.explainers),
            families=tuple(artifacts.train_set.families),
            policy=policy,
            default_explainer=explainer,
            step_size=config.step_size,
        )

    # ------------------------------------------------------------------
    # admission (safe from any thread)
    # ------------------------------------------------------------------
    def admit(
        self,
        sample: LabeledSample,
        graph: ACFG | None = None,
        deadline: Deadline | None = None,
        stage_hook=None,
    ) -> PreparedRequest:
        """Run sanitize → verify → reduce and prepare a model-ready graph.

        Raises :class:`RequestRejected` with reason ``"oversize"`` when
        the sanitizer's size bounds fired, ``"quarantine"`` for every
        other fatal finding (hostile structure, NaN features, invariant
        violations, failed construction/reduction).  A prebuilt
        ``graph`` serves bare-ACFG submissions (ACFG-level checks only).

        ``deadline`` is carried onto the returned request and checked at
        each admission stage boundary (raising
        :class:`~repro.resilience.DeadlineExceeded`); ``stage_hook`` is
        the resilience seam forwarded to
        :func:`~repro.acfg.ingest_sample` — whatever it raises (e.g. an
        injected fault) propagates untouched, distinct from the typed
        :class:`RequestRejected` verdicts.
        """
        if deadline is None and stage_hook is None:
            hook = None
        else:
            def hook(stage: str) -> None:
                if deadline is not None:
                    deadline.check(stage)
                if stage_hook is not None:
                    stage_hook(stage)

        result = ingest_sample(sample, self.policy, graph=graph, stage_hook=hook)
        if not result.ok:
            reason = "quarantine"
            detail = "fatal ingestion finding"
            if result.fatal:
                first = result.fatal[0]
                if any(r.reason.startswith("oversized") for r in result.fatal):
                    reason = "oversize"
                detail = f"{first.reason} at {first.stage}: {first.detail}"
            add_counter(f"serve.rejected.{reason}")
            raise RequestRejected(reason, detail, result.records)
        fingerprint = fingerprint_graph(result.original)
        return PreparedRequest(
            sample=sample,
            graph=self.scaler.transform(result.graph),
            fingerprint=fingerprint,
            original=result.original,
            lift=result.lift,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # model stages (single-threaded: shared caches underneath)
    # ------------------------------------------------------------------
    def classify(self, requests: Sequence[PreparedRequest]) -> np.ndarray:
        """Class probabilities ``[len(requests), C]`` via one batched pass."""
        probabilities = self.gnn.predict_proba_batch(
            [request.graph for request in requests], batch_size=self.batch_size
        )
        # Surface kernel NaN/Inf as a typed NumericalError here, where
        # the resilience layer can retry or degrade, instead of letting
        # non-finite probabilities poison argmax/cache downstream.
        assert_finite_array(probabilities, "serving class probabilities")
        add_counter("serve.classified", len(requests))
        return probabilities

    def explain_graph(
        self,
        graph: ACFG,
        original: ACFG | None = None,
        lift: "LiftMap | None" = None,
        explainer: str | None = None,
        step_size: int | None = None,
    ) -> "Explanation":
        """Explain one classified graph, lifting through ``lift`` if real.

        This is *the* implementation of the reduce-aware explain
        branch; ``python -m repro.eval``'s Table V loop and the daemon
        both call it.
        """
        implementation = self.explainers[explainer or self.default_explainer]
        step = self.step_size if step_size is None else step_size
        if lift is not None and not lift.is_identity:
            if original is None:
                raise ValueError("a lifted explanation needs the original graph")
            explanation = implementation.explain_lifted(
                graph, original, lift, step_size=step
            )
        else:
            explanation = implementation.explain(graph, step_size=step)
        if explanation.node_scores is not None:
            assert_finite_array(
                explanation.node_scores, "serving explanation scores"
            )
        return explanation

    def execute(
        self,
        request: PreparedRequest,
        probabilities: np.ndarray | None = None,
        explainer: str | None = None,
    ) -> EngineResponse:
        """Classify (unless pre-batched) and explain one admitted request."""
        if probabilities is None:
            probabilities = self.classify([request])[0]
        probabilities = np.asarray(probabilities, dtype=float)
        explanation = self.explain_graph(
            request.graph, request.original, request.lift, explainer
        )
        predicted = int(np.argmax(probabilities))
        family = (
            self.families[predicted]
            if predicted < len(self.families)
            else str(predicted)
        )
        add_counter("serve.responses")
        return EngineResponse(
            name=request.sample.program.name,
            fingerprint=request.fingerprint,
            probabilities=probabilities,
            predicted_class=predicted,
            family=family,
            explainer=explainer or self.default_explainer,
            explanation=explanation,
        )

    # ------------------------------------------------------------------
    # one-shot conveniences
    # ------------------------------------------------------------------
    def submit(
        self, sample: LabeledSample, explainer: str | None = None
    ) -> EngineResponse:
        """The full request path for one submission, no service layer."""
        return self.execute(self.admit(sample), explainer=explainer)

    def submit_text(
        self, text: str, name: str = "submission", explainer: str | None = None
    ) -> EngineResponse:
        return self.submit(submission_from_text(text, name=name), explainer=explainer)

    def submit_graph(self, graph: ACFG, name: str | None = None) -> EngineResponse:
        """Serve a bare (unscaled, unreduced) ACFG with no CFG attached."""
        return self.execute(self.admit(_bare_sample(graph, name), graph=graph))


@dataclass
class _BareProgram:
    """Just enough ``Program`` surface for a CFG-less ACFG submission."""

    name: str
    instructions: tuple = field(default_factory=tuple)


def _bare_sample(graph: ACFG, name: str | None = None) -> LabeledSample:
    sample = LabeledSample(
        program=_BareProgram(name or graph.name),
        cfg=None,
        family=graph.family,
        label=graph.label,
        motif_spans=[],
        block_tags=list(graph.block_tags),
    )
    return sample

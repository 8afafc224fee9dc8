"""Thread-safe span recording around the program's public layer functions.

The traced run times each layer from outside: :func:`instrument` shadows
the public methods the benchmark drives (``InferenceEngine.admit`` /
``classify`` / ``execute``, ``ServeDaemon.submit``, every
``Explainer.explain`` and ``GCNClassifier.embed`` / ``subgraph_proba``)
with instance attributes that record a span and call the original, and
:meth:`Instrumentation.remove` deletes them again.  No program file is
changed, and ``repro.obs.tracing`` is never enabled while daemon threads
run: its span stack is process-global.

Spans live in memory (:class:`SpanRecorder`) and are written as JSONL
when the run ends.  Each span records its name, start, end, parent and
request id; a layer's self time is its duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "SpanRecord",
    "SpanRecorder",
    "Instrumentation",
    "instrument",
    "self_times",
    "tail_percentile",
]

#: Percentiles :func:`tail_percentile` may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class SpanRecord:
    """One timed region; times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Handle:
    """What ``SpanRecorder.span`` yields: the span id plus its attributes."""

    __slots__ = ("id", "attrs")

    def __init__(self, span_id: int):
        self.id = span_id
        self.attrs: dict = {}


class SpanRecorder:
    """In-memory span store, safe to use from any number of threads.

    Nesting is tracked per thread.  A span opened on a thread with no
    open span, but for a request whose root span is known, is parented
    to that root, so a request's work on the daemon's service thread
    hangs under the client's ``request`` span.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._roots: dict[str, int] = {}
        self.spans: list[SpanRecord] = []

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def _parent_for(self, request: str | None) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1][0]
        if request is None:
            return None
        with self._lock:
            return self._roots.get(request)

    @contextmanager
    def span(self, name: str, request: str | None = None, root: bool = False):
        """Time the body as one span; yields a handle with ``id``/``attrs``.

        ``request`` defaults to the enclosing span's request on this
        thread.  ``root=True`` marks the span as its request's root.
        """
        stack = self._stack()
        if request is None and stack:
            request = stack[-1][1]
        parent = self._parent_for(request)
        handle = _Handle(self._new_id())
        if root and request is not None:
            with self._lock:
                self._roots[request] = handle.id
        stack.append((handle.id, request))
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(
                SpanRecord(
                    handle.id, name, start, end, parent, request,
                    threading.current_thread().name, handle.attrs,
                )
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request: str | None = None,
        parent: int | None = None,
    ) -> None:
        """Add a span measured between two known instants (e.g. two
        ``stage_hook`` boundaries, or admission end → classify start)."""
        if parent is None:
            parent = self._parent_for(request)
        self._append(
            SpanRecord(
                self._new_id(), name, start, end, parent, request,
                threading.current_thread().name,
            )
        )

    def write_jsonl(self, path: Path, header: dict | None = None) -> None:
        """Write one JSON object per span (times relative to the first
        span's start), preceded by an optional header line."""
        origin = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            if header is not None:
                sink.write(json.dumps({"type": "header", **header}) + "\n")
            for record in sorted(self.spans, key=lambda s: s.start):
                row = asdict(record)
                row["start"] = record.start - origin
                row["end"] = record.end - origin
                sink.write(json.dumps({"type": "span", **row}) + "\n")


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record.parent is not None:
            children[record.parent].append((record.start, record.end))
    result: dict[int, float] = {}
    for record in spans:
        covered = 0.0
        cursor = record.start
        for start, end in sorted(children.get(record.id, ())):
            start, end = max(start, cursor), min(end, record.end)
            if end > start:
                covered += end - start
                cursor = end
        result[record.id] = record.duration - covered
    return result


def tail_percentile(
    values, min_beyond: int = 10
) -> tuple[float | None, float, int]:
    """The highest of :data:`TAIL_CANDIDATES` with at least ``min_beyond``
    samples beyond it, as ``(percentile, value, sample_count)``.

    ``percentile`` is None (and ``value`` NaN) when even the median has
    fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    for q in TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= min_beyond:
            return q, percentile(ordered, q), count
    return None, math.nan, count


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Instrumentation:
    """The installed layer wrappers; :meth:`remove` restores the originals."""

    def __init__(self):
        self._patched: list[tuple[object, str]] = []
        #: request id -> perf_counter() when its admission returned
        self.admitted_at: dict[str, float] = {}
        #: request id -> perf_counter() when its execute returned
        self.executed_at: dict[str, float] = {}
        self._marks_lock = threading.Lock()

    def patch(self, owner: object, attribute: str, make) -> None:
        if attribute in vars(owner):
            raise RuntimeError(f"{owner!r}.{attribute} is already wrapped")
        setattr(owner, attribute, make(getattr(owner, attribute)))
        self._patched.append((owner, attribute))

    def remove(self) -> None:
        while self._patched:
            owner, attribute = self._patched.pop()
            delattr(owner, attribute)

    def _mark(self, table: dict[str, float], request: str, when: float) -> None:
        with self._marks_lock:
            table[request] = when

    def _take(self, table: dict[str, float], request: str) -> float | None:
        with self._marks_lock:
            return table.pop(request, None)


def _name_of(sample) -> str:
    return sample.program.name


def instrument(
    recorder: SpanRecorder,
    gnn,
    explainers: dict,
    engine=None,
    daemon=None,
) -> Instrumentation:
    """Wrap the layer entry points the benchmark drives."""
    from repro.serve.engine import RequestRejected

    inst = Instrumentation()

    if daemon is not None:
        def wrap_submit(original):
            def submit(sample, explainer=None):
                name = _name_of(sample)
                with recorder.span("request", request=name, root=True) as handle:
                    response = original(sample, explainer)
                executed = inst._take(inst.executed_at, name)
                if executed is not None:
                    recorder.record(
                        "daemon.handoff", executed, time.perf_counter(),
                        request=name, parent=handle.id,
                    )
                return response
            return submit

        inst.patch(daemon, "submit", wrap_submit)

    if engine is not None:
        def wrap_admit(original):
            def admit(sample, graph=None, deadline=None, stage_hook=None):
                name = _name_of(sample)
                marks: list[tuple[str, float]] = []

                def hook(stage: str) -> None:
                    marks.append((stage, time.perf_counter()))
                    if stage_hook is not None:
                        stage_hook(stage)

                with recorder.span("ingest.admit", request=name) as handle:
                    try:
                        prepared = original(
                            sample, graph=graph, deadline=deadline, stage_hook=hook
                        )
                    except RequestRejected:
                        handle.attrs["rejected"] = True
                        raise
                end = time.perf_counter()
                # sanitize → verify → reduce (+ fingerprint and scale)
                bounds = marks + [("end", end)]
                for (stage, start), (_, stop) in zip(bounds, bounds[1:]):
                    recorder.record(
                        f"ingest.{stage}", start, stop, request=name, parent=handle.id
                    )
                inst._mark(inst.admitted_at, name, end)
                return prepared
            return admit

        def wrap_classify(original):
            def classify(requests):
                started = time.perf_counter()
                for request in requests:
                    name = _name_of(request.sample)
                    admitted = inst._take(inst.admitted_at, name)
                    if admitted is not None:
                        recorder.record(
                            "daemon.queue_wait", admitted, started, request=name
                        )
                with recorder.span("gnn.classify") as handle:
                    handle.attrs["graphs"] = len(requests)
                    return original(requests)
            return classify

        def wrap_execute(original):
            def execute(request, probabilities=None, explainer=None):
                name = _name_of(request.sample)
                with recorder.span("serve.execute", request=name):
                    response = original(
                        request, probabilities=probabilities, explainer=explainer
                    )
                inst._mark(inst.executed_at, name, time.perf_counter())
                return response
            return execute

        inst.patch(engine, "admit", wrap_admit)
        inst.patch(engine, "classify", wrap_classify)
        inst.patch(engine, "execute", wrap_execute)

    def wrap_explain(name: str):
        def make(original):
            def explain(graph, step_size=10):
                with recorder.span(f"explain.{name}"):
                    return original(graph, step_size=step_size)
            return explain
        return make

    for name, explainer in explainers.items():
        inst.patch(explainer, "explain", wrap_explain(name))

    def wrap_gnn(span_name: str):
        def make(original):
            def call(*args, **kwargs):
                with recorder.span(span_name):
                    return original(*args, **kwargs)
            return call
        return make

    inst.patch(gnn, "embed", wrap_gnn("gnn.embed"))
    inst.patch(gnn, "subgraph_proba", wrap_gnn("gnn.subgraph_forward"))
    return inst

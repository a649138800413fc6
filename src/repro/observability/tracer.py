"""The structured tracing core: a thread-safe span tree plus point events.

Two implementations of one protocol:

* :class:`Tracer` — the real thing.  ``span(name, **attrs)`` opens a
  timed span (a context manager) nested under the calling thread's
  current span, or under an explicitly passed ``parent`` — which is how
  the module engine attaches group spans to their layer.
  ``event``/``gauge``/``inc``/``observe`` record point events and
  metrics.  Every span start/end, point event and gauge sample is also
  appended to ``events`` (and pushed to an optional ``sink``) in
  emission order, ready for JSONL serialisation.
* :class:`NullTracer` — the no-op default (:data:`NULL_TRACER`).  Its
  class attribute ``enabled = False`` is the *entire* cost model of
  disabled tracing: instrumented hot paths guard every hook with
  ``tracer is not None and tracer.enabled`` and never call further.

Timestamps are monotonic (``time.perf_counter``) relative to tracer
construction, so traces are replayable and diffable across runs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Protocol, runtime_checkable

_SCALARS = (str, int, float, bool, type(None))


def sanitize(value: Any):
    """Coerce an attribute value into something JSON-serialisable."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    if isinstance(value, dict):
        return {str(key): sanitize(item) for key, item in value.items()}
    return str(value)


class Span:
    """One timed node of the span tree."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "end", "children", "thread_id")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict,
        start: float,
        thread_id: int = 0,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: float | None = None
        self.children: list["Span"] = []
        self.thread_id = thread_id

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Span({self.span_id}, {self.name!r}, {self.duration * 1000:.2f}ms)"


@runtime_checkable
class TracerLike(Protocol):
    """What instrumented code needs: the protocol both tracers satisfy."""

    enabled: bool

    def span(self, name: str, parent: "Span | None" = None, **attrs): ...

    def event(self, name: str, span: "Span | None" = None, **attrs) -> None: ...

    def inc(self, name: str, amount: int = 1) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...

    def observe(self, name: str, value: float) -> None: ...


class _SpanHandle:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer.finish(self.span)


class _NullHandle:
    """A reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is a *class* attribute so the guard in instrumented code
    costs one attribute load and one truthiness check.  Every guard
    checks it first, so none of these methods is called during
    inference: ``tests/test_observability.py`` counts 0 calls over the
    Figure-2 sweep and the stress terms.
    """

    enabled = False

    def span(self, name: str, parent: Span | None = None, **attrs):
        return _NULL_HANDLE

    def event(self, name: str, span: Span | None = None, **attrs) -> None:
        return None

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


NULL_TRACER = NullTracer()
"""The shared no-op tracer; safe to pass anywhere a tracer is accepted."""


class Tracer:
    """A recording tracer; see the module docstring for the contract.

    ``sink`` is an optional callable invoked with every event dict as it
    is emitted (e.g. :class:`repro.observability.events.JsonlWriter`);
    ``metrics`` lets several per-command tracers (the REPL) share one
    registry.
    """

    enabled = True

    def __init__(
        self,
        sink: Callable[[dict], None] | None = None,
        metrics=None,
        retain_events: bool = True,
    ) -> None:
        from repro.observability.metrics import Metrics

        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_id = 1
        self.roots: list[Span] = []
        self.spans: dict[int, Span] = {}
        self.events: list[dict] = []
        self.sink = sink
        self.metrics = metrics if metrics is not None else Metrics()
        self.retain_events = retain_events
        """When False, events and finished spans are streamed to ``sink``
        but not accumulated in memory — the long-lived serve daemon would
        otherwise grow its trace buffers without bound under traffic."""
        self._clock0 = time.perf_counter()

    # ------------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._clock0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------

    def span(self, name: str, parent: Span | None = None, **attrs) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("solve", n=3) as s:``.

        The parent is the calling thread's current span unless ``parent``
        is given explicitly (cross-thread attachment).
        """
        timestamp = self._now()
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                span_id,
                parent.span_id if parent is not None else None,
                name,
                sanitize(attrs),
                timestamp,
                threading.get_ident(),
            )
            if self.retain_events:
                self.spans[span_id] = span
                if parent is None:
                    self.roots.append(span)
            if parent is not None:
                parent.children.append(span)
            self._emit(
                {
                    "event": "span_start",
                    "ts": round(timestamp, 6),
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "name": name,
                    "attrs": span.attrs,
                    "thread": span.thread_id,
                }
            )
        self._stack().append(span)
        return _SpanHandle(self, span)

    def finish(self, span: Span) -> None:
        """Close a span (normally via the context manager)."""
        timestamp = self._now()
        span.end = timestamp
        stack = self._stack()
        if span in stack:
            # Pop through to this span — tolerates a child left open by a
            # contained crash, so the tree stays well-formed.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            self._emit(
                {
                    "event": "span_end",
                    "ts": round(timestamp, 6),
                    "span": span.span_id,
                    "name": span.name,
                    "dur": round(span.duration, 6),
                }
            )

    def event(self, name: str, span: Span | None = None, **attrs) -> None:
        """Record a point event, attached to the current (or given) span."""
        if span is None:
            span = self.current()
        with self._lock:
            self._emit(
                {
                    "event": "point",
                    "ts": round(self._now(), 6),
                    "span": span.span_id if span is not None else None,
                    "name": name,
                    "attrs": sanitize(attrs),
                }
            )

    # -- metrics bridges ------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.metrics.inc(name, amount)

    def gauge(self, name: str, value: float) -> None:
        """Record a gauge sample: stored in metrics *and* traced."""
        self.metrics.gauge(name, value)
        with self._lock:
            self._emit(
                {
                    "event": "gauge",
                    "ts": round(self._now(), 6),
                    "name": name,
                    "value": value,
                }
            )

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # ------------------------------------------------------------------

    def emit_metrics_event(self) -> None:
        """Append the final metrics-summary event (CLI does this at exit)."""
        with self._lock:
            self._emit({"event": "metrics", "ts": round(self._now(), 6), **self.metrics.to_dict()})

    def _emit(self, payload: dict) -> None:
        payload["v"] = 1
        if self.retain_events:
            self.events.append(payload)
        if self.sink is not None:
            self.sink(payload)

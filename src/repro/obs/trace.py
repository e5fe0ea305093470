"""Hierarchical tracing for the SliceLine search.

A :class:`Tracer` hands out :class:`Span` context managers::

    tracer = Tracer()
    with tracer.span("level2.pairs", candidates=123):
        ...

Spans nest (a span opened while another is active becomes its child), carry
wall-clock time, free-form attributes, and — when the tracer is created with
``track_memory=True`` — the ``tracemalloc`` traced-allocation high-water
mark observed by span exit.

When tracing is off the instrumented code paths receive :data:`NULL_TRACER`,
whose ``span`` method returns a shared no-op context manager.  The no-op
path allocates nothing and does no timing, so the disabled-mode cost of an
instrumentation point is one method call (see
``benchmarks/bench_obs_overhead.py`` for the <2% end-to-end bound).

Tracers are not thread-safe: spans must be opened and closed from one
thread.  Parallel sections (thread pools in the executors and the slice
evaluation) are recorded as a single span around the fork/join point.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    """One node of the trace tree."""

    name: str
    elapsed_seconds: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: tracemalloc traced-allocation high-water mark (bytes) observed by
    #: span exit; ``None`` when memory tracking is off
    mem_peak_bytes: int | None = None

    def annotate(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attrs.update(attrs)

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named *name*."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict:
        """JSON-ready representation (schema documented in EXPERIMENTS.md)."""
        out: dict[str, Any] = {
            "name": self.name,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.mem_peak_bytes is not None:
            out["mem_peak_bytes"] = self.mem_peak_bytes
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _OpenSpan:
    """Context manager that times one span and links it into the tree."""

    __slots__ = ("_tracer", "_span", "_started")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._started = 0.0

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.elapsed_seconds = time.perf_counter() - self._started
        if self._tracer.track_memory:
            self._span.mem_peak_bytes = tracemalloc.get_traced_memory()[1]
        popped = self._tracer._stack.pop()
        assert popped is self._span, "span stack corrupted (nested misuse)"


class Tracer:
    """Collects a tree of timed spans for one (or more) SliceLine runs.

    Parameters
    ----------
    track_memory:
        When true, ``tracemalloc`` is started (if not already tracing) and
        every span records the traced-allocation high-water mark at exit.
        The tracer stops ``tracemalloc`` again in :meth:`close` only if it
        was the one to start it.
    """

    enabled = True

    def __init__(self, track_memory: bool = False) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.num_spans = 0
        self.track_memory = track_memory
        self._started_tracemalloc = False
        if track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a new span as a child of the innermost active span."""
        span = Span(name=name, attrs=attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.spans.append(span)
        self.num_spans += 1
        return _OpenSpan(self, span)

    @property
    def current(self) -> Span | None:
        """The innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def find(self, name: str) -> Span | None:
        """First span named *name* anywhere in the recorded trees."""
        for root in self.spans:
            if root.name == name:
                return root
            found = root.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self):
        for root in self.spans:
            yield from root.iter_spans()

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.spans]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def close(self) -> None:
        """Release resources (stops tracemalloc if this tracer started it)."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False


class _NullSpan:
    """Shared no-op span: enters/exits without timing or allocation."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled-mode tracer: every ``span()`` is the shared no-op span."""

    enabled = False
    track_memory = False
    spans: tuple = ()
    num_spans = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def find(self, name: str) -> None:
        return None

    def iter_spans(self):
        return iter(())

    def to_dict(self) -> dict:
        return {"spans": []}

    def close(self) -> None:
        return None


#: Shared disabled-mode tracer instance (the default everywhere).
NULL_TRACER = NullTracer()


def resolve_tracer(trace: "bool | Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize a user-facing ``trace`` argument to a tracer instance.

    ``None``/``False`` yield :data:`NULL_TRACER`; ``True`` creates a fresh
    :class:`Tracer`; ``"memory"`` creates one with allocation tracking; an
    existing tracer is returned unchanged.
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    if trace == "memory":
        return Tracer(track_memory=True)
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise TypeError(
        f"trace must be None, bool, 'memory', or a Tracer, got {trace!r}"
    )

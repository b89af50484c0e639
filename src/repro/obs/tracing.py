"""Span tracing with deterministic IDs and cross-process stitching.

``with trace("syn.search"):`` times a pipeline stage twice — wall clock
(``perf_counter``) and CPU (``process_time``), so an I/O- or
scheduling-bound stage is distinguishable from a compute-bound one — and
records a :class:`Span` into the active :class:`SpanRecorder`'s bounded
ring buffer.  Each completed span also lands in the active metrics
registry as a ``span.<name>`` duration histogram, which is how per-stage
latency survives the worker boundary even when the spans themselves are
ring-evicted.

Since PR 10 spans are no longer process-local diagnostics: every
recorder carries a *trace context* (a structural path like
``("root", "task", 3, 7)``), and span IDs are derived from that context
with the same BLAKE2 scheme :class:`~repro.util.rng.RngFactory` uses for
child streams — never from wall clock, ``os.urandom``, or pids.  The
:class:`~repro.runtime.DeterministicExecutor` runs every task under a
fresh recorder whose context is the task's submission path, ships the
recorded spans back beside the task's metrics snapshot, and
:meth:`SpanRecorder.adopt`\\ s them into the parent's trace tree in
submission order — so the merged tree is byte-identical (in its
:meth:`~SpanRecorder.structural` view) for any ``jobs``.

Two ID disciplines keep that invariance honest:

* **Per-name counters, not a flat sequence.**  A derived span ID is
  ``blake2(context + (name, k))`` where ``k`` counts *earlier spans of
  the same name* in this recorder.  Placement-dependent spans (see
  below) then only perturb their own name's counter — an
  ``engine.bind_index`` that fires on one worker's cache miss but not
  another's cannot shift the ID of the ``syn.search`` that follows it.
* **Placement spans are excluded from the invariant view.**
  ``engine.bind_index`` fires on binding-index cache *misses*, inside
  the ``engine.build`` span of the build that missed, and
  worker-resident caches legitimately see different request streams per
  chunk layout — the exact caveat ``engine.cache.*`` counters carry in
  :func:`~repro.obs.metrics.invariant_snapshot`.
  :data:`PLACEMENT_SPAN_NAMES` names them; :meth:`SpanRecorder.structural`
  strips them (and every wall-clock field) by default.

Nesting is tracked through an explicit stack, so every span knows its
depth, enclosing span name *and* enclosing span ID; spans are appended
on *exit* (children before parents), the natural order for a ring
buffer.  A full ring counts what it evicts (``dropped`` property plus a
``trace.dropped_spans`` counter in the active registry) so truncated
traces are detectable.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Iterator, Mapping

from repro.obs.metrics import inc, observe

__all__ = [
    "PLACEMENT_SPAN_NAMES",
    "Span",
    "SpanRecorder",
    "deterministic_span_id",
    "get_recorder",
    "query_span_id",
    "record_complete",
    "trace",
    "use_recorder",
]

#: Span names tied to worker-resident cache placement: the binding-index
#: build that fires only on a cache miss, and the trajectory build that
#: encloses it (the tracing analogue of ``engine.cache.*`` counters).
#: The structural trace view strips them by default.
PLACEMENT_SPAN_NAMES: tuple[str, ...] = ("engine.build", "engine.bind_index")


def deterministic_span_id(*path: object) -> str:
    """A 64-bit hex span/trace ID derived from a structural key path.

    Same construction as :class:`~repro.util.rng.RngFactory` children:
    ``repr`` the path, BLAKE2 it.  Equal paths give equal IDs in every
    process and every run — wall clock, ``os.urandom`` and salted
    ``hash()`` never enter.
    """
    data = repr(path).encode("utf-8")
    return hashlib.blake2b(data, digest_size=8).hexdigest()


@lru_cache(maxsize=16384)
def query_span_id(query_id: str) -> str:
    """The canonical span ID of a query's causal root span.

    A pure function of the query ID, so the provenance event ledger
    (emitted in workers) and the query span itself (recorded by the
    submitting process) agree on the link without shipping state.
    """
    return deterministic_span_id("query", str(query_id))


@dataclass(frozen=True)
class Span:
    """One completed traced stage.

    Attributes
    ----------
    name:
        Stage name (``"syn.search"``, ``"engine.build"``, ...).
    start_s:
        ``perf_counter`` value at entry (process-relative, for ordering
        and gap analysis, not an absolute timestamp).
    wall_s:
        Elapsed wall-clock time.
    cpu_s:
        Elapsed process CPU time.
    depth:
        Nesting depth at entry (0 = no enclosing span).
    parent:
        Name of the enclosing span, if any.
    trace_id:
        ID of the trace tree this span belongs to (rewritten to the
        parent's trace on :meth:`SpanRecorder.adopt`).
    span_id:
        Deterministic ID of this span (see module doc).
    parent_id:
        ``span_id`` of the enclosing span, if any.
    links:
        ``span_id``\\ s of causally related spans outside the enclosing
        chain (e.g. a query span links the worker chunk that served it).
    attrs:
        Structural attributes as a tuple of ``(key, value)`` pairs —
        deterministically computed values only, part of the invariant
        view.
    """

    name: str
    start_s: float
    wall_s: float
    cpu_s: float
    depth: int
    parent: str | None
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    links: tuple[str, ...] = ()
    attrs: tuple[tuple[str, Any], ...] = ()


class SpanRecorder:
    """Bounded ring buffer of completed spans with a trace context.

    Parameters
    ----------
    capacity:
        Spans kept; older ones are evicted FIFO (and counted — see
        :attr:`dropped`).  Bounded so tracing may stay enabled through
        arbitrarily long campaigns.
    context:
        Structural path this recorder's trace/span IDs derive from.  The
        process default is ``("root",)``; the executor gives each task
        ``parent_context + ("task", wave, index)``, which is what makes
        worker-recorded span IDs independent of scheduling.
    """

    def __init__(
        self, capacity: int = 1024, context: tuple = ("root",)
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._spans: deque[Span] = deque(maxlen=int(capacity))
        self._stack: list[tuple[str, str]] = []
        self.context = tuple(context)
        self.trace_id = deterministic_span_id("trace", *self.context)
        self._name_counts: dict[str, int] = {}
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._spans.maxlen or 0

    @property
    def spans(self) -> tuple[Span, ...]:
        """Recorded spans, oldest first (completion order)."""
        return tuple(self._spans)

    @property
    def active(self) -> tuple[str, ...]:
        """Names of spans currently open, outermost first."""
        return tuple(name for name, _ in self._stack)

    @property
    def dropped(self) -> int:
        """Spans lost to ring eviction (here or in adopted snapshots)."""
        return self._dropped

    def clear(self) -> None:
        self._spans.clear()
        self._dropped = 0
        self._name_counts.clear()

    # -- internals -----------------------------------------------------
    def _derive_id(self, name: str) -> str:
        count = self._name_counts.get(name, 0)
        self._name_counts[name] = count + 1
        return deterministic_span_id(*self.context, name, count)

    def _append(self, span: Span) -> None:
        if len(self._spans) == self._spans.maxlen:
            self._dropped += 1
            inc("trace.dropped_spans")
        self._spans.append(span)

    # -- snapshot / adopt ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A picklable copy that ships across the worker boundary."""
        return {
            "context": self.context,
            "trace_id": self.trace_id,
            "spans": tuple(self._spans),
            "dropped": self._dropped,
        }

    def adopt(self, snapshot: Mapping[str, Any]) -> None:
        """Stitch a task recorder's snapshot into this trace tree.

        Top-level task spans are re-parented under the span currently
        open here (the one wrapping the executor wave) and every adopted
        span is rebased onto this recorder's ``trace_id`` and depth, so
        a query's life reads as one causal trace.  Adopting in
        submission order is what keeps the merged tree byte-identical
        under any ``jobs``.

        Adopted spans are *not* re-observed into ``span.<name>``
        histograms — their durations already merged with the task's
        metrics snapshot.  The snapshot's own drop count folds into
        :attr:`dropped` without re-counting the metric for the same
        reason.
        """
        parent_name, parent_id = (
            self._stack[-1] if self._stack else (None, None)
        )
        depth_base = len(self._stack)
        for span in snapshot.get("spans", ()):
            self._append(
                replace(
                    span,
                    trace_id=self.trace_id,
                    depth=span.depth + depth_base,
                    parent=span.parent if span.parent is not None else parent_name,
                    parent_id=(
                        span.parent_id
                        if span.parent_id is not None
                        else parent_id
                    ),
                )
            )
        self._dropped += int(snapshot.get("dropped", 0))

    # -- invariant view ------------------------------------------------
    def structural(
        self,
        include_placement: bool = False,
    ) -> dict[str, Any]:
        """The deterministic view of the trace tree.

        Wall-clock fields (``start_s``, ``wall_s``, ``cpu_s``) are real
        but never reproducible; placement spans
        (:data:`PLACEMENT_SPAN_NAMES`) depend on cache misses and so vary
        with worker count.  Both are stripped here — what remains
        (names, IDs, parent links, order, links, attrs, the drop count)
        is byte-identical for any ``jobs``, the tracing analogue of
        :func:`~repro.obs.metrics.invariant_snapshot`.
        """
        spans = []
        for span in self._spans:
            if not include_placement and span.name in PLACEMENT_SPAN_NAMES:
                continue
            spans.append(
                {
                    "name": span.name,
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "parent": span.parent,
                    "depth": span.depth,
                    "links": list(span.links),
                    "attrs": {k: v for k, v in span.attrs},
                }
            )
        return {
            "trace_id": self.trace_id,
            "dropped_spans": self._dropped,
            "spans": spans,
        }


#: Active-recorder stack; the bottom entry is the process default.
_STACK: list[SpanRecorder] = [SpanRecorder()]


def get_recorder() -> SpanRecorder:
    """The recorder :func:`trace` currently appends to."""
    return _STACK[-1]


@contextmanager
def use_recorder(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Make ``recorder`` the active one for the duration of the block."""
    _STACK.append(recorder)
    try:
        yield recorder
    finally:
        _STACK.pop()


@contextmanager
def trace(
    name: str,
    links: tuple[str, ...] = (),
    attrs: tuple[tuple[str, Any], ...] = (),
) -> Iterator[str]:
    """Time a stage: ring-buffer span + ``span.<name>`` histogram entry.

    Yields the span's ID, derived from the recorder context, so later
    spans can link to it.
    """
    recorder = _STACK[-1]
    parent_name, parent_id = (
        recorder._stack[-1] if recorder._stack else (None, None)
    )
    depth = len(recorder._stack)
    sid = recorder._derive_id(name)
    recorder._stack.append((name, sid))
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        yield sid
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        recorder._stack.pop()
        recorder._append(
            Span(
                name=name,
                start_s=wall0,
                wall_s=wall,
                cpu_s=cpu,
                depth=depth,
                parent=parent_name,
                trace_id=recorder.trace_id,
                span_id=sid,
                parent_id=parent_id,
                links=tuple(links),
                attrs=tuple(attrs),
            )
        )
        observe(f"span.{name}", wall)


def record_complete(
    name: str,
    wall_s: float,
    cpu_s: float = 0.0,
    span_id: str | None = None,
    links: tuple[str, ...] = (),
    attrs: tuple[tuple[str, Any], ...] = (),
) -> str:
    """Record an already-timed span (no enclosing ``with`` block).

    For stages whose lifetime does not match a call scope — a fleet
    query span runs from ``submit()`` to the tick that answers it.  The
    span lands under whatever span is currently open, with the given
    duration, and feeds the ``span.<name>`` histogram like any other.
    Returns the span's ID.
    """
    recorder = _STACK[-1]
    parent_name, parent_id = (
        recorder._stack[-1] if recorder._stack else (None, None)
    )
    sid = recorder._derive_id(name) if span_id is None else str(span_id)
    recorder._append(
        Span(
            name=name,
            start_s=time.perf_counter(),
            wall_s=float(wall_s),
            cpu_s=float(cpu_s),
            depth=len(recorder._stack),
            parent=parent_name,
            trace_id=recorder.trace_id,
            span_id=sid,
            parent_id=parent_id,
            links=tuple(links),
            attrs=tuple(attrs),
        )
    )
    observe(f"span.{name}", float(wall_s))
    return sid

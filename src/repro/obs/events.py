"""Query-level decision provenance: a bounded, mergeable event ledger.

Aggregate counters (:mod:`repro.obs.metrics`) say *how often* the
pipeline rejected a SYN candidate or dropped a tracking lock; they
cannot say *which query* it happened to, or why estimate #8317 of a
10k-query campaign came back 40 m off.  The event ledger closes that
gap: instrumented stages :func:`emit` small structured records —
"SYN search over a shrunk 120 m window, best peak 0.61 below the
relaxed threshold 0.64" — tagged with the currently active *query id*,
and the error-attribution reporter (:mod:`repro.obs.report`) later
joins them back into per-query narratives.

Since PR 10 every exported event also carries a *trace exemplar*: the
deterministic span ID of the query's causal root span
(:func:`~repro.obs.tracing.query_span_id`, a pure function of the query
id, so worker-side emits and the submitting process's query span agree
without shipping state).  A suspicious exported fleet estimate can
therefore be walked back — event → query span → the search span that
produced it.

Design constraints, matching the metrics layer it sits beside:

1. **Deterministic merge.**  The ledger follows the exact discipline of
   :class:`~repro.obs.metrics.MetricsRegistry`: every task run by
   :class:`~repro.runtime.DeterministicExecutor` — inline or pooled —
   writes to its own task-scoped ledger, and the executor folds the
   snapshots back in submission order.  Event payloads carry only
   deterministically computed values (no wall clock, no pids), so the
   merged stream is byte-identical for any ``jobs``.
2. **Provenance vs diagnostics.**  Engine-cache hit/miss *legitimately*
   depends on worker chunk layout (each chunk builds its own engine) —
   the same caveat the metrics determinism suite documents for
   ``engine.cache.*`` counters.  Such events are emitted with
   ``diagnostic=True``; :meth:`EventLedger.to_dicts` and the JSONL
   export exclude them by default, which is what keeps the exported
   provenance stream layout-free while in-process consumers may still
   inspect cache behaviour.
3. **Bounded.**  The ledger stops appending at ``capacity`` and counts
   what it dropped, so it may stay enabled through arbitrarily long
   campaigns.  Because merges happen in the same order for every
   ``jobs``, the drop point is deterministic too.
4. **Cheap, dependency-free.**  An emit is one tuple construction and a
   list append; standard library only.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import IO, Any, Iterator, Mapping

from repro.obs.tracing import query_span_id

__all__ = [
    "EventLedger",
    "current_query_id",
    "emit",
    "get_ledger",
    "use_ledger",
    "use_query_id",
]

#: Default ledger bound: ~8 events/query keeps 12k+ queries of context.
DEFAULT_CAPACITY = 100_000


class EventLedger:
    """Append-only bounded record of pipeline decisions.

    Events are stored as ``(kind, query_id, span_id, diagnostic,
    data)`` tuples; ``data`` is a plain dict of JSON-serialisable
    values.  Once
    ``capacity`` events are held, further emits are counted as dropped
    rather than evicting older context (the head of a campaign is as
    explanatory as its tail, and a deterministic cut keeps the exported
    stream jobs-invariant).
    """

    __slots__ = ("capacity", "_events", "_dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._events: list[
            tuple[str, str | None, str | None, bool, dict[str, Any]]
        ] = []
        self._dropped = 0

    # -- writes --------------------------------------------------------
    def emit(
        self,
        kind: str,
        query_id: str | None = None,
        span_id: str | None = None,
        diagnostic: bool = False,
        **data: Any,
    ) -> None:
        """Record one event (dropped silently once at capacity)."""
        if len(self._events) >= self.capacity:
            self._dropped += 1
            return
        self._events.append((kind, query_id, span_id, diagnostic, data))

    # -- reads ---------------------------------------------------------
    @property
    def events(
        self,
    ) -> tuple[tuple[str, str | None, str | None, bool, dict], ...]:
        """All held events, oldest first."""
        return tuple(self._events)

    @property
    def dropped(self) -> int:
        """Events refused because the ledger was full."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def to_dicts(self, include_diagnostic: bool = False) -> list[dict[str, Any]]:
        """Events as JSON-ready dicts: ``seq``, ``kind``, ``query_id``,
        ``span_id``, ``data``.

        ``seq`` numbers the *exported* stream, so the default
        provenance-only export is contiguous regardless of how many
        diagnostic events interleaved it.  ``span_id`` is the trace
        exemplar — the query span the event belongs to, if any.
        """
        out = []
        for kind, query_id, span_id, diagnostic, data in self._events:
            if diagnostic and not include_diagnostic:
                continue
            out.append(
                {
                    "seq": len(out),
                    "kind": kind,
                    "query_id": query_id,
                    "span_id": span_id,
                    "data": data,
                }
            )
        return out

    def write_jsonl(
        self, path_or_fh: str | IO[str], include_diagnostic: bool = False
    ) -> int:
        """Export one JSON object per line; returns the events written."""
        records = self.to_dicts(include_diagnostic=include_diagnostic)

        def _write(fh: IO[str]) -> None:
            for record in records:
                fh.write(json.dumps(record) + "\n")

        if isinstance(path_or_fh, str):
            with open(path_or_fh, "w") as fh:
                _write(fh)
        else:
            _write(path_or_fh)
        return len(records)

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain picklable copy (ships across the worker boundary)."""
        return {"events": list(self._events), "dropped": self._dropped}

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a task ledger's snapshot in, preserving emit order.

        Merging snapshots in submission order reproduces exactly the
        appends an inline run would have made, including where the
        capacity cut falls, so the merged ledger cannot depend on
        ``jobs``.
        """
        for event in snapshot.get("events", ()):
            if len(self._events) >= self.capacity:
                self._dropped += 1
            else:
                self._events.append(tuple(event))
        self._dropped += int(snapshot.get("dropped", 0))

    def clear(self) -> None:
        """Drop all events and the drop count."""
        self._events.clear()
        self._dropped = 0


#: Active-ledger stack; the bottom entry is the process default.
_STACK: list[EventLedger] = [EventLedger()]

#: Active query-id stack; ``None`` outside any query scope.
_QUERY_IDS: list[str | None] = [None]


def get_ledger() -> EventLedger:
    """The ledger :func:`emit` currently appends to."""
    return _STACK[-1]


@contextmanager
def use_ledger(ledger: EventLedger) -> Iterator[EventLedger]:
    """Make ``ledger`` the active one for the duration of the block."""
    _STACK.append(ledger)
    try:
        yield ledger
    finally:
        _STACK.pop()


def current_query_id() -> str | None:
    """The query id events are being tagged with, if any."""
    return _QUERY_IDS[-1]


@contextmanager
def use_query_id(query_id: str) -> Iterator[None]:
    """Tag every event emitted inside the block with ``query_id``.

    The scope is process-local state, so a task function that answers
    several queries wraps each one — the id then propagates through
    every instrumented layer (engine, SYN search, tracker, exchange)
    without threading a parameter down the call chain.
    """
    _QUERY_IDS.append(str(query_id))
    try:
        yield
    finally:
        _QUERY_IDS.pop()


def emit(kind: str, diagnostic: bool = False, **data: Any) -> None:
    """Record an event on the active ledger, tagged with the active query.

    When a query id is in scope the event also carries that query's
    deterministic span ID as its trace exemplar (see module doc).
    """
    query_id = _QUERY_IDS[-1]
    span_id = None if query_id is None else query_span_id(query_id)
    _STACK[-1].emit(
        kind,
        query_id=query_id,
        span_id=span_id,
        diagnostic=diagnostic,
        **data,
    )

"""Observability: metrics, span tracing and logging for the pipeline.

The paper's §V claims are latency contracts (~1.2 ms SYN search, 0.52 s
context exchange, 0.1 s tracking periods); a tracking-grade system needs
to *see* per-stage latency, cache behaviour, delivery statistics and
worker skew, not infer them from end-to-end wall clock.  This package is
the dependency-free substrate for that:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  with counters, gauges and fixed-bucket histograms, plus a
  snapshot/merge API.  :class:`~repro.runtime.DeterministicExecutor`
  runs every task against a task-scoped registry and merges the
  snapshots back in submission order, so merged counters are
  byte-identical for any ``jobs`` (the same invariance the runtime
  guarantees for results).
* :mod:`repro.obs.tracing` — lightweight ``with trace("syn.search"):``
  spans with wall/CPU timings, recorded into a bounded ring buffer and
  mirrored into a ``span.<name>`` duration histogram of the current
  metrics registry.
* :mod:`repro.obs.logconfig` — stdlib-``logging`` integration: every
  module logs through ``get_logger(...)`` under the ``repro`` namespace,
  silent by default (NullHandler), opt-in via
  :func:`configure_logging` or the CLI's ``--log-level``.
* :mod:`repro.obs.events` — a bounded, JSONL-exportable
  :class:`EventLedger` of per-query decision provenance (SYN peaks and
  accept/reject causes, tracker lock transitions, exchange outcomes),
  keyed by a propagated query id and merged through the executor
  exactly like metrics, so the exported stream is jobs-invariant.
* :mod:`repro.obs.report` — joins ``query.outcome`` events with their
  provenance trails into error-attribution reports (error mass by root
  cause, worst-query narratives); CLI:
  ``python -m repro.experiments report --events events.jsonl``.
* :mod:`repro.obs.trend` — bench trend history
  (``benchmarks/history/BENCH_<id>.json``) and a tolerance-banded
  comparer that fails CI on timing regressions.
* :mod:`repro.obs.names` — the canonical registry of every metric
  name; a CI lint fails on emit sites using undeclared names.

Everything is read after a run, from files: the experiments CLI's
``--metrics-out`` (counters, gauges, span histograms and its stage
latency table), ``--trace-out`` (the span ring), ``--events-out`` (the
provenance ledger) and its ``report`` mode.  There is no live endpoint.

Nothing here imports beyond the standard library, and all hot-path
primitives are plain dict operations — cheap enough to leave enabled
everywhere (the t-runtime speedup contract is measured with
instrumentation on).
"""

from repro.obs.events import (
    EventLedger,
    current_query_id,
    get_ledger,
    use_ledger,
    use_query_id,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    MetricsRegistry,
    get_registry,
    inc,
    invariant_snapshot,
    observe,
    set_gauge,
    use_registry,
)
from repro.obs.tracing import (
    Span,
    SpanRecorder,
    deterministic_span_id,
    get_recorder,
    query_span_id,
    record_complete,
    trace,
    use_recorder,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS_S",
    "EventLedger",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "configure_logging",
    "current_query_id",
    "deterministic_span_id",
    "get_ledger",
    "get_logger",
    "get_recorder",
    "get_registry",
    "inc",
    "invariant_snapshot",
    "observe",
    "query_span_id",
    "record_complete",
    "set_gauge",
    "trace",
    "use_ledger",
    "use_query_id",
    "use_recorder",
    "use_registry",
]

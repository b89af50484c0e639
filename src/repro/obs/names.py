"""Canonical registry of every metric name the pipeline emits.

Metric names are stringly-typed at the emit site (``inc("fleet.ticks")``
is the whole point of a zero-ceremony hot path), which invites silent
drift: a renamed counter, a typo'd histogram, a dashboard watching a
series that no longer exists.  This module is the single place a name
is *declared*; a CI lint (``tests/test_obs_names.py``) extracts every
literal passed to ``inc`` / ``observe`` / ``set_gauge`` across ``src/``
and fails on any name (or dynamic-family prefix) not registered here.

Two kinds of entries:

* **Exact names** (:data:`COUNTERS`, :data:`HISTOGRAMS`,
  :data:`GAUGES`) — the fixed series.
* **Prefix families** (:data:`COUNTER_PREFIXES`,
  :data:`HISTOGRAM_PREFIXES`, :data:`GAUGE_PREFIXES`) — series whose
  tail is computed (``fleet.queries.rejected.{err}``,
  ``span.{name}``).  An f-string emit passes the lint when its static
  prefix matches a registered family.

Keep entries sorted; a removal here should mean the series is truly
gone from the code (the lint also reports registered-but-unused names
so dead entries are visible).
"""

from __future__ import annotations

__all__ = [
    "COUNTERS",
    "COUNTER_PREFIXES",
    "GAUGES",
    "GAUGE_PREFIXES",
    "HISTOGRAMS",
    "HISTOGRAM_PREFIXES",
    "is_registered_counter",
    "is_registered_gauge",
    "is_registered_histogram",
]

COUNTERS: frozenset[str] = frozenset(
    {
        "campaign.chunks",
        "campaign.drives",
        "campaign.queries",
        "campaign.runs",
        "campaign.simulations",
        "engine.estimates",
        "engine.estimates.resolved",
        "engine.estimates.unresolved",
        "experiments.runs",
        "fleet.queries",
        "fleet.replays",
        "fleet.searches",
        "fleet.store.ingests",
        "fleet.store.measurements",
        "fleet.store.sessions_opened",
        "fleet.store.vehicles_admitted",
        "fleet.store.vehicles_dropped",
        "fleet.submits",
        "fleet.ticks",
        "runtime.shared.checkout.hit",
        "runtime.shared.checkout.load",
        "runtime.shared.derived.build",
        "runtime.shared.derived.hit",
        "runtime.shared.publish",
        "runtime.shared.publish.spooled",
        "stream.replays",
        "syn.accepted",
        "syn.multi_syn_yields",
        "syn.no_window",
        "syn.rejected.heading",
        "syn.rejected.threshold",
        "syn.searches",
        "syn.searches.anchored",
        "syn.windows",
        "trace.dropped_spans",
        "tracker.anchor_retries",
        "tracker.full_retries",
        "tracker.lock_acquired",
        "tracker.lock_dropped.failures",
        "tracker.lock_dropped.staleness",
        "tracker.stream_updates",
        "tracker.updates",
        "tracker.updates.anchored",
        "tracker.updates.degraded",
        "tracker.updates.no_context",
        "v2v.bytes_on_air",
        "v2v.exchange.aborts",
        "v2v.exchange.backoff_suppressed",
        "v2v.exchange.idle",
        "v2v.exchange.nack_rounds",
        "v2v.exchange.retransmitted_fragments",
        "v2v.fragments.lost",
        "v2v.fragments.sent",
        "v2v.packets.tx",
        "v2v.receive.expired_messages",
        "v2v.retransmissions",
        "v2v.transfers",
    }
)

#: Computed counter families: the emit site interpolates the tail
#: (cache name, experiment id, query or chunk rejection cause,
#: tracker/exchange mode, receive outcome).
COUNTER_PREFIXES: tuple[str, ...] = (
    "engine.cache.",
    "experiments.runs.",
    "fleet.queries.rejected.",
    "fleet.store.ingests.rejected.",
    "tracker.updates.",
    "v2v.exchange.",
    "v2v.receive.",
)

HISTOGRAMS: frozenset[str] = frozenset(
    {
        "fleet.query_latency_s",
        "fleet.tick_s",
        "stream.update_s",
    }
)

#: Computed histogram families: per-stage span durations.
HISTOGRAM_PREFIXES: tuple[str, ...] = ("span.",)

GAUGES: frozenset[str] = frozenset(
    {
        "campaign.jobs",
        "campaign.route_length_m",
        "fleet.store.sessions",
        "fleet.store.vehicles",
    }
)

#: Computed gauge families: none; every gauge is a fixed series.
GAUGE_PREFIXES: tuple[str, ...] = ()


def _registered(
    name: str, exact: frozenset[str], prefixes: tuple[str, ...]
) -> bool:
    return name in exact or any(name.startswith(p) for p in prefixes)


def is_registered_counter(name: str) -> bool:
    """Whether ``name`` is a declared counter (exact or by family)."""
    return _registered(name, COUNTERS, COUNTER_PREFIXES)


def is_registered_histogram(name: str) -> bool:
    """Whether ``name`` is a declared histogram (exact or by family)."""
    return _registered(name, HISTOGRAMS, HISTOGRAM_PREFIXES)


def is_registered_gauge(name: str) -> bool:
    """Whether ``name`` is a declared gauge (exact or by family)."""
    return _registered(name, GAUGES, GAUGE_PREFIXES)

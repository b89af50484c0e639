"""Deterministic batched request path over the fleet store.

``submit()`` enqueues a pair query; ``tick()`` answers everything
pending in one deterministic sweep:

1. **Plan** (parent, serial): every query serves its two trajectories
   out of the store's resident builders and runs
   :meth:`RupsTracker.plan_update` — context bookkeeping, staleness
   decision, mode selection, trimming.  Queries that fail to serve
   (unknown vehicle, drive still too short) become error estimates here
   and never reach a search.
2. **Search** (workers, pure): all pending pairs are split into
   fixed-size chunks (:func:`~repro.runtime.fixed_chunks` — layout set
   by ``chunk_pairs``, never by ``jobs``, because the cross-pair batched
   kernel's floats may depend on batch composition) and fanned out over
   a :class:`~repro.runtime.DeterministicExecutor`.  With shared statics
   on, every searched trajectory is published (content-keyed: a payload
   already spooled is not rewritten) and ships as a
   :class:`~repro.runtime.shared.SharedRef`; workers hold a resident
   engine per config in the derived-object cache.
3. **Absorb** (parent, serial, submission order): each estimate folds
   back via :meth:`RupsTracker.absorb_update`, which decides every rung
   of the tracking ladder.  A plan it leaves undecided names its next
   search, and steps 2–3 repeat over those plans until every query is
   answered — the same loop :meth:`RupsTracker.update` runs for one
   session.

Because every state transition happens in the submitting process and
the searches are pure, results, merged (invariant) metrics and the
provenance event stream are byte-identical for any ``jobs`` — the same
contract the campaign runtime enforces.  Wall-clock query latencies are
real but never reproducible, so they are recorded into the service's
*local* :attr:`FleetService.latency` registry, never the active
(merged, exported) one.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine, RupsEstimate
from repro.core.tracking import TrackerPlan, TrackerUpdate
from repro.core.trajectory import GsmTrajectory
from repro.fleet.store import FleetStore
from repro.obs.events import emit, use_query_id
from repro.obs.logconfig import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    inc,
    register_aux_registry,
    unregister_aux_registry,
)
from repro.obs.tracing import (
    deterministic_span_id,
    query_span_id,
    record_complete,
    trace,
)
from repro.runtime import DeterministicExecutor, fixed_chunks
from repro.runtime import shared as shared_store

__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "FleetEstimate",
    "FleetQuery",
    "FleetService",
    "FleetTicket",
]

_log = get_logger(__name__)

#: Pair searches per worker chunk.  Fixed — never derived from ``jobs``
#: — so the cross-pair kernel sees the same batch composition (and
#: produces the same floats) under any worker count.
DEFAULT_CHUNK_PAIRS = 8


@dataclass(frozen=True)
class FleetQuery:
    """One relative-distance request: ``own_id`` asks about ``other_id``.

    ``context_age_s`` reports how stale the neighbour context is when
    the V2V exchange lost this period's refresh (see
    :meth:`RupsTracker.update`); 0 means fresh.
    """

    query_id: str
    own_id: str
    other_id: str
    context_age_s: float = 0.0


@dataclass(frozen=True)
class FleetEstimate:
    """The service's answer to one :class:`FleetQuery`.

    ``error`` is set — and everything else unresolved — when the query
    could not be served at all (``"unknown_vehicle"``, ``"too_short"``);
    otherwise the fields mirror the session's
    :class:`~repro.core.tracking.TrackerUpdate`.
    """

    query_id: str
    own_id: str
    other_id: str
    distance_m: float | None
    resolved: bool
    mode: str
    locked: bool
    degraded: bool
    cause: str | None = None
    error: str | None = None


@dataclass
class FleetTicket:
    """Handle returned by :meth:`FleetService.submit`.

    ``estimate`` is filled by the tick that answers the query; until
    then it is ``None``.  ``submitted_s`` is the submission wall clock
    (perf-counter domain), used only for the local latency histogram.
    """

    query: FleetQuery
    submitted_s: float
    estimate: FleetEstimate | None = None


def _fleet_engine(config: RupsConfig) -> RupsEngine:
    """The worker-resident fleet engine for this config.

    One engine per distinct config per process (derived-object cache),
    reused by every chunk the worker executes.  Fleet chunks only
    estimate: the store's builders serve every trajectory.
    """
    return shared_store.derived(
        ("fleet.engine", shared_store.content_key(config)),
        lambda: RupsEngine(config),
    )


def _fleet_chunk_task(item: tuple) -> list[RupsEstimate]:
    """Search one chunk of pending pairs (pure; runs in any worker).

    The chunk carries refs (or, with shared statics off, the
    trajectories themselves); the whole chunk is estimated by one
    cross-pair batched SYN kernel call, with each pair's provenance
    events tagged by its query id.

    The chunk's span ID is precomputed by the submitting process (a pure
    function of tick index, round index and chunk index), so the parent
    can link each query span to the exact chunk that served it without
    waiting for the worker's span snapshot.
    """
    pairs_in, anchors, query_ids, config, span_id = item
    engine = _fleet_engine(config)
    pairs = [
        (shared_store.resolve(own), shared_store.resolve(other))
        for own, other in pairs_in
    ]
    inc("fleet.chunks")
    with trace(
        "fleet.search_chunk",
        span_id=span_id,
        attrs=(("pairs", len(pairs)),),
    ):
        return engine.estimate_relative_distance_batch(
            pairs, query_ids=list(query_ids), anchors=list(anchors)
        )


class FleetService:
    """Batched, deterministic relative-distance service over a store.

    Parameters
    ----------
    store:
        The fleet's resident state (builders + sessions).
    jobs:
        Worker processes for the search fan-out (``1`` = inline).
        Ignored when ``executor`` is given.
    chunk_pairs:
        Pair searches per worker chunk (fixed layout; see module doc).
    shared_statics:
        Ship trajectories to workers as content-addressed refs (one
        publish per distinct trajectory per tick) instead of pickled
        payloads.  Only engaged when a pool exists (``jobs > 1``).
    executor:
        Reuse an existing executor (its ``jobs`` wins; the caller keeps
        ownership — it is not closed here).
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`; when given,
        every tick ends with an anomaly check that can dump the recent
        span/event tail to JSONL (lock-drop storm, SLO breach).

    Attributes
    ----------
    latency:
        A *local* :class:`~repro.obs.metrics.MetricsRegistry` holding
        wall-clock histograms (``fleet.query_latency_s``,
        ``fleet.tick_s``).  Deliberately never merged into the active
        registry: wall clock is real but not reproducible, and the
        active registry carries the fleet's jobs-invariant metrics.  It
        *is* registered as the ``"fleet.latency"`` auxiliary registry,
        so the live ``/metrics`` endpoint and the SLO evaluator can see
        the service's latency distributions while it runs.
    """

    def __init__(
        self,
        store: FleetStore,
        jobs: int | None = 1,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
        shared_statics: bool = True,
        executor: DeterministicExecutor | None = None,
        flight: "object | None" = None,
    ) -> None:
        if chunk_pairs < 1:
            raise ValueError("chunk_pairs must be >= 1")
        self.store = store
        self.chunk_pairs = int(chunk_pairs)
        self.shared_statics = bool(shared_statics)
        self._owns_executor = executor is None
        self.executor = executor or DeterministicExecutor(jobs=jobs)
        self.latency = MetricsRegistry()
        self.flight = flight
        self._pending: list[FleetTicket] = []
        self._ticks = 0
        register_aux_registry("fleet.latency", self.latency)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Tear the owned executor down (a shared one is left alone)."""
        if self._owns_executor:
            self.executor.close()
        unregister_aux_registry("fleet.latency", self.latency)

    # -- request path --------------------------------------------------
    def submit(self, query: FleetQuery) -> FleetTicket:
        """Enqueue one pair query; answered by the next :meth:`tick`.

        Batching is the point: a tick answers *all* pending queries
        through shared cross-pair kernel batches, so per-query cost
        amortises with load.  The returned ticket's ``estimate`` is
        filled when its tick runs.
        """
        ticket = FleetTicket(query=query, submitted_s=time.perf_counter())
        self._pending.append(ticket)
        inc("fleet.submits")
        return ticket

    @property
    def n_pending(self) -> int:
        """Queries waiting for the next tick."""
        return len(self._pending)

    def estimate(
        self, query: FleetQuery, at_time_s: float | None = None
    ) -> FleetEstimate:
        """Convenience: submit one query and tick immediately."""
        ticket = self.submit(query)
        self.tick(at_time_s=at_time_s)
        assert ticket.estimate is not None
        return ticket.estimate

    def tick(self, at_time_s: float | None = None) -> list[FleetEstimate]:
        """Answer every pending query; results in submission order.

        ``at_time_s`` bounds the served trajectories (``None`` = all
        ingested data).  After planning, the tick runs rounds: one
        batched search over every undecided plan, then
        :meth:`RupsTracker.absorb_update` in submission order, until
        every plan is decided.  Every session absorbs its results before
        the next tick, so queries against one pair in successive ticks
        walk the tracker's ladder exactly as a dedicated
        :meth:`RupsTracker.update` loop would.
        """
        tickets, self._pending = self._pending, []
        if not tickets:
            return []
        start_s = time.perf_counter()
        tick_idx = self._ticks
        self._ticks += 1
        inc("fleet.ticks")
        inc("fleet.queries", len(tickets))

        # Per-query causal links, accumulated phase by phase and written
        # onto each query span at the end of the tick.  Every linked ID
        # is a pure function of tick/round/chunk indices, so the links
        # are as jobs-invariant as the results they explain.
        links: list[list[str]] = [[] for _ in tickets]

        with trace("fleet.tick", attrs=(("queries", len(tickets)),)):
            # Phase 1 — plan (serial, state-mutating).
            results: list[FleetEstimate | None] = [None] * len(tickets)
            plans: list[TrackerPlan | None] = [None] * len(tickets)
            searches: list[int] = []
            with trace("fleet.plan") as plan_sid:
                for i, ticket in enumerate(tickets):
                    links[i].append(plan_sid)
                    q = ticket.query
                    own, err = self._serve(q.own_id, at_time_s)
                    other = None
                    if err is None:
                        other, err = self._serve(q.other_id, at_time_s)
                    if err is not None:
                        inc(f"fleet.queries.rejected.{err}")
                        with use_query_id(q.query_id):
                            emit(
                                "fleet.query",
                                own=q.own_id,
                                other=q.other_id,
                                resolved=False,
                                error=err,
                            )
                        results[i] = FleetEstimate(
                            query_id=q.query_id,
                            own_id=q.own_id,
                            other_id=q.other_id,
                            distance_m=None,
                            resolved=False,
                            mode="none",
                            locked=False,
                            degraded=True,
                            error=err,
                        )
                        continue
                    tracker = self.store.session(q.own_id, q.other_id)
                    with use_query_id(q.query_id):
                        plan = tracker.plan_update(
                            own, other, context_age_s=q.context_age_s
                        )
                    plans[i] = plan
                    if plan.update is not None:
                        results[i] = self._from_update(q, plan.update)
                    else:
                        searches.append(i)

            # Phases 2 and 3, one round per rung of the ladder: search
            # every undecided plan (pure, batched, fanned out), then
            # absorb in submission order (serial, state-mutating).
            pending, rounds = searches, 0
            while pending:
                estimates, chunk_sids = self._batched_estimates(
                    [plans[i] for i in pending],
                    [tickets[i].query.query_id for i in pending],
                    tick_idx=tick_idx,
                    round_idx=rounds,
                )
                undecided: list[int] = []
                with trace("fleet.absorb", attrs=(("round", rounds),)) as absorb_sid:
                    for i, estimate, sid in zip(pending, estimates, chunk_sids):
                        links[i] += (sid, absorb_sid)
                        q = tickets[i].query
                        tracker = self.store.session(q.own_id, q.other_id)
                        with use_query_id(q.query_id):
                            update = tracker.absorb_update(plans[i], estimate)
                        if update is None:
                            undecided.append(i)
                        else:
                            results[i] = self._from_update(q, update)
                pending = undecided
                rounds += 1

            # Wall clock goes to the local registry only (see class doc).
            end_s = time.perf_counter()
            self.latency.observe("fleet.tick_s", end_s - start_s)
            out: list[FleetEstimate] = []
            for i, (ticket, result) in enumerate(zip(tickets, results)):
                assert result is not None
                ticket.estimate = result
                self.latency.observe(
                    "fleet.query_latency_s", end_s - ticket.submitted_s
                )
                # The query's causal root span: same ID the event ledger
                # stamps on every exported event for this query id, so a
                # bad exported estimate walks back — event → query span →
                # linked chunk span — in one join.
                record_complete(
                    "fleet.query",
                    wall_s=end_s - ticket.submitted_s,
                    span_id=query_span_id(result.query_id),
                    links=tuple(links[i]),
                    attrs=(
                        ("query_id", result.query_id),
                        ("resolved", result.resolved),
                    ),
                )
                out.append(result)
        _log.debug(
            "fleet tick: queries=%d searches=%d rounds=%d",
            len(tickets),
            len(searches),
            rounds,
        )
        if self.flight is not None:
            self.flight.after_tick(self)
        return out

    # -- internals -----------------------------------------------------
    def _serve(
        self, vehicle_id: str, at_time_s: float | None
    ) -> tuple[GsmTrajectory | None, str | None]:
        """Serve a vehicle's trajectory, or name why it cannot be."""
        try:
            return self.store.trajectory(vehicle_id, at_time_s=at_time_s), None
        except KeyError:
            return None, "unknown_vehicle"
        except ValueError:
            return None, "too_short"

    def _batched_estimates(
        self,
        plans: list[TrackerPlan],
        query_ids: list[str],
        tick_idx: int,
        round_idx: int,
    ) -> tuple[list[RupsEstimate], list[str]]:
        """Run every plan's next search via fixed-size chunks over the
        executor.

        Returns the estimates plus, aligned with ``plans``, the span ID
        of the chunk that computed each one.  Chunk span IDs are derived
        here — ``(fleet.search, tick, round, chunk)`` — and handed to
        the workers, so the submitting process can link query spans to
        chunks without waiting for worker span snapshots, and the IDs
        stay invariant under any worker count (chunk layout is fixed by
        ``chunk_pairs``, never by ``jobs``).
        """
        pairs = [plan.pair for plan in plans]
        if self.shared_statics and self.executor.jobs > 1:
            # Refs, not payloads, ship: publishing is content-idempotent.
            publish = self.executor.publish
            pairs = [(publish(own), publish(other)) for own, other in pairs]
        anchors = [plan.anchor for plan in plans]
        items = []
        pair_sids: list[str] = []
        for chunk_idx, (chunk, chunk_anchors, ids) in enumerate(
            zip(
                fixed_chunks(pairs, self.chunk_pairs),
                fixed_chunks(anchors, self.chunk_pairs),
                fixed_chunks(query_ids, self.chunk_pairs),
            )
        ):
            sid = deterministic_span_id(
                "fleet.search", tick_idx, round_idx, chunk_idx
            )
            items.append((chunk, chunk_anchors, ids, self.store.config, sid))
            pair_sids.extend([sid] * len(chunk))
        inc("fleet.searches", len(plans))
        with trace(
            "fleet.search_wave",
            attrs=(("round", round_idx), ("chunks", len(items))),
        ):
            chunk_results = self.executor.map_ordered(_fleet_chunk_task, items)
        out: list[RupsEstimate] = []
        for estimates in chunk_results:
            out.extend(estimates)
        return out, pair_sids

    @staticmethod
    def _from_update(q: FleetQuery, update: TrackerUpdate) -> FleetEstimate:
        estimate = update.estimate
        # Intern the worker-produced strings: unpickled task results
        # carry fresh (equal but distinct) string objects, while inline
        # runs share one interned literal — pickling a whole result
        # list memoises by identity, so without canonical identity the
        # serialized bytes would differ between pooled and inline runs
        # even though every value is equal.
        return FleetEstimate(
            query_id=q.query_id,
            own_id=q.own_id,
            other_id=q.other_id,
            distance_m=estimate.distance_m,
            resolved=estimate.resolved,
            mode=sys.intern(update.mode),
            locked=update.locked_after,
            degraded=update.degraded,
            cause=sys.intern(estimate.cause) if estimate.cause else estimate.cause,
        )

"""Deterministic batched request path over the fleet store.

``submit()`` enqueues a pair query; ``tick()`` answers everything
pending in one deterministic sweep, in the calling process:

1. **Plan** (serial): a query serves its two trajectories out of the
   store's resident builders and runs :meth:`RupsTracker.plan_update`
   — context bookkeeping, staleness decision, mode selection,
   trimming.  Queries that fail to serve (unknown vehicle, drive still
   too short) become error estimates here and never reach a search.  A
   session holds one undecided plan at a time: a second query for the
   same ordered pair waits, and is planned in the round after the
   first is decided.
2. **Search** (pure): every undecided plan's search runs in one
   :meth:`RupsEngine.estimate_relative_distance_batch` call on the
   service's engine, under the round's ``fleet.search_wave`` span.
3. **Absorb** (serial, submission order): each estimate folds back via
   :meth:`RupsTracker.absorb_update`, which decides every rung of the
   tracking ladder.  A plan it leaves undecided names its next search,
   and steps 1–3 repeat — planning the queries that waited on a
   now-decided session, searching every undecided plan — until every
   query is answered: the same loop consecutive
   :meth:`RupsTracker.update` calls run for one session.

Results, the invariant metrics and the provenance event stream are pure
functions of the submitted queries and the store's state.  Wall-clock
query latencies are real but never reproducible, so they are recorded
into the service's *local* :attr:`FleetService.latency` registry, never
the active (exported) one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.engine import RupsEngine
from repro.core.tracking import TrackerPlan, TrackerUpdate
from repro.core.trajectory import GsmTrajectory
from repro.fleet.store import FleetStore
from repro.obs.events import emit, use_query_id
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry, inc
from repro.obs.tracing import query_span_id, record_complete, trace

__all__ = [
    "FleetEstimate",
    "FleetQuery",
    "FleetService",
    "FleetTicket",
]

_log = get_logger(__name__)


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


class FleetService:
    """Batched, deterministic relative-distance service over a store.

    Parameters
    ----------
    store:
        The fleet's resident state (builders + sessions).
    jobs:
        Must be ``1``: the service plans, searches and absorbs in the
        calling process.  A fleet round is a handful of small per-pair
        searches, and a worker pool lost to one process on every
        measured load; any other value raises ``ValueError``.

    Attributes
    ----------
    latency:
        A *local* :class:`~repro.obs.metrics.MetricsRegistry` holding
        wall-clock histograms (``fleet.query_latency_s``,
        ``fleet.tick_s``).  Deliberately never merged into the active
        registry: wall clock is real but not reproducible, and the
        active registry carries the fleet's deterministic metrics.
    """

    def __init__(self, store: FleetStore, jobs: int = 1) -> None:
        if jobs != 1:
            raise ValueError(
                f"FleetService runs in one process: jobs must be 1, got {jobs!r}"
            )
        self.store = store
        self._engine = RupsEngine(store.config)
        self.latency = MetricsRegistry()
        self._pending: list[FleetTicket] = []

    def close(self) -> None:
        """Release nothing: the service holds no pool, files or threads.

        Kept so callers that manage a service's lifetime (the repository
        benchmark closes every workload) need not know that.
        """

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
        ingested data).  The tick runs rounds until every query is
        answered: plan each query that may start, run one batched search
        over every undecided plan, then :meth:`RupsTracker.absorb_update`
        in submission order.  A session holds at most one undecided
        plan: its later query in the same tick is planned in the round
        after its earlier one is decided.  So queries against one pair,
        within a tick and across ticks, walk the tracker's ladder
        exactly as a dedicated :meth:`RupsTracker.update` loop would.
        """
        tickets, self._pending = self._pending, []
        if not tickets:
            return []
        start_s = time.perf_counter()
        inc("fleet.ticks")
        inc("fleet.queries", len(tickets))

        # Per-query causal links, accumulated phase by phase and written
        # onto each query span at the end of the tick.
        links: list[list[str]] = [[] for _ in tickets]

        with trace("fleet.tick", attrs=(("queries", len(tickets)),)):
            results: list[FleetEstimate | None] = [None] * len(tickets)
            plans: list[TrackerPlan | None] = [None] * len(tickets)
            pairs = [(t.query.own_id, t.query.other_id) for t in tickets]
            waiting = list(range(len(tickets)))
            pending: list[int] = []
            rounds = searched = 0
            while True:
                # Plan (serial, state-mutating) every waiting query whose
                # session has no undecided plan.
                if waiting:
                    busy = {pairs[i] for i in pending}
                    later: list[int] = []
                    with trace("fleet.plan", attrs=(("round", rounds),)) as plan_sid:
                        for i in waiting:
                            if pairs[i] in busy:
                                later.append(i)
                                continue
                            links[i].append(plan_sid)
                            planned = self._plan(tickets[i].query, at_time_s)
                            if isinstance(planned, FleetEstimate):
                                results[i] = planned
                            else:
                                plans[i] = planned
                                pending.append(i)
                                busy.add(pairs[i])
                                searched += 1
                    waiting = later
                    pending.sort()
                if not pending:
                    break
                # Search every undecided plan in one batched call (pure),
                # then absorb in submission order (serial,
                # state-mutating): one round per rung of the ladder.
                inc("fleet.searches", len(pending))
                with trace(
                    "fleet.search_wave",
                    attrs=(("round", rounds), ("pairs", len(pending))),
                ) as search_sid:
                    estimates = self._engine.estimate_relative_distance_batch(
                        [plans[i].pair for i in pending],
                        query_ids=[tickets[i].query.query_id for i in pending],
                        anchors=[plans[i].anchor for i in pending],
                    )
                undecided: list[int] = []
                with trace("fleet.absorb", attrs=(("round", rounds),)) as absorb_sid:
                    for i, estimate in zip(pending, estimates):
                        links[i] += (search_sid, absorb_sid)
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
                # linked search span — in one join.
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
            searched,
            rounds,
        )
        return out

    # -- internals -----------------------------------------------------
    def _plan(
        self, q: FleetQuery, at_time_s: float | None
    ) -> TrackerPlan | FleetEstimate:
        """Serve ``q``'s two trajectories and plan its session's period.

        Returns the answer when the query cannot be served (unknown
        vehicle, drive still too short), otherwise the plan, which is
        undecided: ``plan_update`` decides a period without searching
        only when no context was ever decoded, and this one has
        ``other``.
        """
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
            return FleetEstimate(
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
        tracker = self.store.session(q.own_id, q.other_id)
        with use_query_id(q.query_id):
            return tracker.plan_update(own, other, context_age_s=q.context_age_s)

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

    @staticmethod
    def _from_update(q: FleetQuery, update: TrackerUpdate) -> FleetEstimate:
        estimate = update.estimate
        return FleetEstimate(
            query_id=q.query_id,
            own_id=q.own_id,
            other_id=q.other_id,
            distance_m=estimate.distance_m,
            resolved=estimate.resolved,
            mode=update.mode,
            locked=update.locked_after,
            degraded=update.degraded,
            cause=estimate.cause,
        )

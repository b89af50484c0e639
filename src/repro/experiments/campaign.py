"""The trace campaign: one long mixed route, results sliced by environment.

The paper's §VI methodology is *not* per-environment test tracks: it is a
single 97 km route "which involves roads of three general types", driven
repeatedly, with figures then sliced by the road setting at each query.
This module reproduces that design: a multi-segment route through the
synthetic city, repeated two-car drives over it, and query outcomes
bucketed by the road type under the vehicles at query time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine
from repro.experiments.metrics import QueryBatch, QueryOutcome
from repro.experiments.reporting import render_table
from repro.gsm.band import EVAL_SUBSET_115, ChannelPlan
from repro.gsm.routefield import build_route_field
from repro.gsm.scanner import RadioGroup
from repro.obs.events import emit, use_query_id
from repro.obs.logconfig import get_logger
from repro.obs.metrics import inc, set_gauge
from repro.obs.tracing import trace
from repro.roads.network import RoadNetwork, RoadNetworkConfig, generate_network
from repro.roads.route import Route, random_route
from repro.roads.types import RoadType
from repro.runtime import DeterministicExecutor, fixed_chunks
from repro.runtime import shared as shared_store
from repro.util.rng import RngFactory
from repro.vehicles.drive import simulate_drive
from repro.vehicles.idm import follow_leader
from repro.vehicles.kinematics import urban_speed_profile

__all__ = ["CampaignResult", "run_campaign"]

_log = get_logger(__name__)


@dataclass
class CampaignResult:
    """Query outcomes of a route campaign, bucketed by road type."""

    by_road_type: dict[RoadType, QueryBatch] = field(default_factory=dict)
    route_length_m: float = 0.0
    n_drives: int = 0

    def render(self) -> str:
        rows = []
        for road_type, batch in sorted(
            self.by_road_type.items(), key=lambda kv: kv[0].value
        ):
            errs = batch.rde()
            rows.append(
                [
                    road_type.value,
                    batch.n_queries,
                    f"{batch.resolution_rate:.2f}",
                    float(np.mean(errs)) if errs.size else float("nan"),
                    float(np.percentile(errs, 90)) if errs.size else float("nan"),
                ]
            )
        return render_table(
            ["road type", "queries", "resolved", "mean RDE (m)", "p90 RDE (m)"],
            rows,
            title=(
                "Route campaign — one mixed-environment route "
                f"({self.route_length_m / 1000:.1f} km x {self.n_drives} drives), "
                "queries sliced by road type at query time (SVI-A methodology)"
            ),
        )

    def pooled(self) -> QueryBatch:
        """All outcomes regardless of road type."""
        out = QueryBatch()
        for batch in self.by_road_type.values():
            out.extend(batch)
        return out


# ----------------------------------------------------------------------
# task functions — module level so they pickle into spawn workers; each
# is a pure function of its item (plus the wave's read-only shared
# statics), which is what makes jobs=N bit-identical to jobs=1.
# ----------------------------------------------------------------------

def _campaign_simulate_task(item: tuple) -> object:
    """Simulate one vehicle of one drive.

    ``field_in`` is either the route field itself or its
    :class:`~repro.runtime.shared.SharedRef` — workers check the field
    out of the shared-statics store once and keep it cache-resident for
    every later simulation and chunk.  When ``publish`` is set, the
    (heavy) drive record is itself published from the worker and only
    its tiny ref travels back to the parent.
    """
    field_in, motion, drive_factory, vehicle_key, n_radios, plan, publish = item
    group = RadioGroup(plan, n_radios=n_radios)
    inc("campaign.simulations")
    with trace("campaign.simulate_vehicle"):
        record = simulate_drive(
            shared_store.resolve(field_in),
            motion,
            group,
            seed=drive_factory,
            vehicle_key=vehicle_key,
        )
    return shared_store.publish(record) if publish else record


def _campaign_engine(config: RupsConfig) -> RupsEngine:
    """The worker-resident campaign engine for this config.

    One engine per distinct config lives in the process for the lifetime
    of the worker (via the derived-object cache), so its binding-index
    LRU stays warm across every chunk the worker executes — and across
    warm re-runs in the parent.  Safe for determinism because the
    binding index is differentially proven bit-identical to
    :func:`~repro.core.binding.bind_scan`.
    """
    return shared_store.derived(
        ("campaign.engine", shared_store.content_key(config)),
        lambda: RupsEngine(config),
    )


def _campaign_query_chunk_task(item: tuple) -> list[tuple[RoadType, QueryOutcome]]:
    """Answer one chunk of query instants for one drive.

    The chunk carries refs (or, with shared statics disabled, the
    objects themselves) to its drive's records and the route; the whole
    chunk is estimated by one cross-pair batched SYN kernel call via
    :meth:`RupsEngine.estimate_relative_distance_batch`.  Chunk layout
    is fixed by ``chunk_queries`` — never by ``jobs`` — so the batch
    composition, and therefore every float, is identical under any
    worker count.

    Each query runs under its own query id (``d<drive>q<index>``), so
    every provenance event the pipeline emits below — SYN peaks,
    accept/reject causes, cache provenance — joins back to the query,
    and a closing ``query.outcome`` event records estimate vs truth for
    the error-attribution reporter.  Chunks are contiguous ordered
    splits merged in submission order, so the provenance stream is in
    global query order for any chunk layout.
    """
    front_in, rear_in, lead, rear_motion, route_in, times, query_ids, config = item
    front = shared_store.resolve(front_in)
    rear = shared_store.resolve(rear_in)
    route: Route = shared_store.resolve(route_in)
    engine = _campaign_engine(config)
    out: list[tuple[RoadType, QueryOutcome]] = []
    inc("campaign.chunks")
    inc("campaign.queries", len(times))
    with trace("campaign.query_chunk"):
        pairs = []
        for tq, query_id in zip(times, query_ids):
            with use_query_id(query_id):
                own = engine.build_trajectory(
                    rear.scan, rear.estimated, at_time_s=tq
                )
                other = engine.build_trajectory(
                    front.scan, front.estimated, at_time_s=tq
                )
            pairs.append((own, other))
        estimates = engine.estimate_relative_distance_batch(
            pairs, query_ids=list(query_ids)
        )
        for tq, query_id, est in zip(times, query_ids, estimates):
            truth = float(lead.arc_length_at(tq)) - float(
                rear_motion.arc_length_at(tq)
            )
            road_type = route.road_type_at(float(rear_motion.arc_length_at(tq)))
            with use_query_id(query_id):
                emit(
                    "query.outcome",
                    time_s=float(tq),
                    road_type=road_type.value,
                    truth_m=truth,
                    estimate_m=est.distance_m,
                    error_m=(
                        None
                        if est.distance_m is None
                        else abs(float(est.distance_m) - truth)
                    ),
                    resolved=est.resolved,
                    cause=est.cause,
                )
            out.append(
                (
                    road_type,
                    QueryOutcome(
                        time_s=float(tq), truth_m=truth, estimate_m=est.distance_m
                    ),
                )
            )
    return out


#: Queries per chunk task.  Fixed — never derived from ``jobs`` — so the
#: cross-pair kernel sees the same batch composition (and produces the
#: same floats) under any worker count.
DEFAULT_CHUNK_QUERIES = 8


def run_campaign(
    route_length_m: float = 6000.0,
    n_drives: int = 2,
    queries_per_drive: int = 40,
    plan: ChannelPlan | None = None,
    seed: int = 0,
    network: RoadNetwork | None = None,
    config: RupsConfig | None = None,
    jobs: int | None = 1,
    chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    shared_statics: bool = True,
    executor: DeterministicExecutor | None = None,
) -> CampaignResult:
    """Drive a two-car pair over one mixed route, repeatedly, and query.

    Parameters
    ----------
    route_length_m:
        Minimum route length (the paper's route is 97 km; a few km of the
        synthetic city already mixes all surface road types).
    n_drives:
        Independent drives over the same route (fresh kinematics and
        sensor noise; same static signal fields — the paper's repeated
        traversals).
    queries_per_drive:
        Random query instants per drive.
    jobs:
        Worker processes (``None``/``0`` = all cores).  Every vehicle
        simulation and query chunk is an independent task seeded by its
        own :class:`~repro.util.rng.RngFactory` child and merged in
        deterministic order, so the result is byte-identical for any
        ``jobs`` (enforced by the determinism suite).
    chunk_queries:
        Query instants per chunk task.  Chunk layout depends only on
        this and the query count — not on ``jobs`` — because each chunk
        is estimated by one cross-pair batched kernel call whose float
        results may legitimately depend on batch composition.
    shared_statics:
        Publish heavy read-only payloads (route field, route, drive
        records) through the content-addressed shared-statics store so
        tasks ship only refs; workers check payloads out once and keep
        them resident.  ``False`` ships the objects inside every task
        item (the pre-store behaviour); the determinism suite holds both
        modes byte-identical.
    executor:
        Reuse an existing (typically :meth:`~DeterministicExecutor.warm_up`-ed)
        executor instead of creating one per campaign; its ``jobs``
        setting then wins and the caller keeps ownership (it is not
        closed here).
    """
    factory = RngFactory(seed)
    plan = plan or EVAL_SUBSET_115
    config = config or RupsConfig()
    network = network or generate_network(
        RoadNetworkConfig(blocks_x=8, blocks_y=4), seed=factory.child("city")
    )
    # Draw candidate routes until one mixes several road types — the
    # campaign's point is slicing one trace by environment, so a route
    # that never leaves the elevated arterial is useless.
    route: Route | None = None
    for attempt in range(24):
        candidate = random_route(
            network,
            min_length_m=route_length_m,
            rng=factory.generator("route", attempt),
        )
        types = {leg.segment.road_type for leg in candidate.legs}
        if len(types) >= 2 and RoadType.ELEVATED not in types:
            route = candidate
            break
        route = route or candidate
    assert route is not None
    route_field = build_route_field(
        network, route, plan=plan, seed=factory.child("fields")
    )

    # Kinematics per drive (cheap, serial): the lead's speed limit is a
    # conservative urban one; stops provide variety.
    motions = []
    for d in range(n_drives):
        drive_factory = factory.child("drive", d)
        lead = urban_speed_profile(
            duration_s=min(600.0, (route.length - 200.0) / 9.0),
            speed_limit_ms=13.0,
            rng=drive_factory.generator("lead"),
            s0_m=40.0,
        )
        rear_motion = follow_leader(lead, initial_gap_m=30.0)
        if lead.s_m[-1] > route.length - 10.0:
            raise RuntimeError("drive overruns the route; lengthen the route")
        motions.append((lead, rear_motion, drive_factory))

    if chunk_queries < 1:
        raise ValueError("chunk_queries must be >= 1")
    result = CampaignResult(route_length_m=route.length, n_drives=n_drives)
    owns_executor = executor is None
    if owns_executor:
        executor = DeterministicExecutor(jobs=jobs)
    try:
        inc("campaign.runs")
        inc("campaign.drives", n_drives)
        set_gauge("campaign.jobs", executor.jobs)
        set_gauge("campaign.route_length_m", route.length)
        _log.info(
            "campaign start: route_m=%.0f drives=%d queries_per_drive=%d "
            "jobs=%d seed=%d shared_statics=%s",
            route.length,
            n_drives,
            queries_per_drive,
            executor.jobs,
            seed,
            shared_statics,
        )
        # Phase 1: every (drive, vehicle) simulation is one task.  With
        # shared statics the route field is published once and only its
        # ref ships per task; each worker publishes its drive record and
        # returns the ref, so heavy payloads never travel as task bytes.
        field_in = executor.publish(route_field) if shared_statics else route_field
        route_in = executor.publish(route) if shared_statics else route
        sim_items = []
        for lead, rear_motion, drive_factory in motions:
            sim_items.append(
                (field_in, lead, drive_factory, "front", 4, plan, shared_statics)
            )
            sim_items.append(
                (field_in, rear_motion, drive_factory, "rear", 4, plan, shared_statics)
            )
        with trace("campaign.simulate"):
            records = executor.map_ordered(_campaign_simulate_task, sim_items)

        # Phase 2: query instants are drawn serially (they only depend
        # on the factory), then split into fixed-size chunks — one
        # cross-pair kernel batch each — independent of ``jobs``.
        chunk_items = []
        for d, (lead, rear_motion, _) in enumerate(motions):
            front, rear = records[2 * d], records[2 * d + 1]
            t_ready = float(
                rear_motion.time_at_distance(
                    rear_motion.s_m[0] + config.context_length_m + 50.0
                )
            )
            q_rng = factory.generator("queries", d)
            times = q_rng.uniform(t_ready, lead.t1 - 2.0, size=queries_per_drive)
            query_ids = [f"d{d}q{i}" for i in range(queries_per_drive)]
            for chunk, id_chunk in zip(
                fixed_chunks(list(times), chunk_queries),
                fixed_chunks(query_ids, chunk_queries),
            ):
                if chunk:
                    chunk_items.append(
                        (
                            front,
                            rear,
                            lead,
                            rear_motion,
                            route_in,
                            chunk,
                            id_chunk,
                            config,
                        )
                    )
        with trace("campaign.query"):
            chunk_results = executor.map_ordered(
                _campaign_query_chunk_task, chunk_items
            )
    finally:
        if owns_executor:
            executor.close()

    # Ordered merge: chunks were emitted in (drive, query) order, so the
    # bucket insertion order below reproduces the serial loop exactly.
    for outcomes in chunk_results:
        for road_type, outcome in outcomes:
            result.by_road_type.setdefault(road_type, QueryBatch()).append(outcome)
    _log.info(
        "campaign done: queries=%d buckets=%d",
        sum(len(o) for o in chunk_results),
        len(result.by_road_type),
    )
    return result

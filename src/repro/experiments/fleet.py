"""t-fleet — city-scale RDF service replay over the streaming hot path.

Hundreds of IDM-driven vehicles stream their scans into one
:class:`~repro.fleet.FleetStore` while Poisson-arriving relative-
distance queries flow through the batched
:class:`~repro.fleet.FleetService` request path.  The replay reports
what a deployment would watch: query latency percentiles and service
throughput (from the service's local wall-clock registry) next to the
accuracy and lock behaviour of the answers (deterministic, exported
through ``repro.obs``).  A tick's queries are submitted before its
ingests, so their latency covers the ingest they wait behind, and
throughput divides by ingest plus tick wall time; the tick-only p50 and
throughput are reported beside them.

Determinism contract: with a fixed seed, ``outcomes`` — every answered
query with its ground truth — the *invariant* metrics
(:func:`~repro.obs.metrics.invariant_snapshot`) and the provenance
event export are identical from run to run; only the wall-clock latency
figures move.  The arrival process draws from the experiment's own
seeded generator, so load composition is part of the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import RupsConfig
from repro.experiments.reporting import render_table
from repro.experiments.stream import event_grid
from repro.fleet import FleetQuery, FleetService, FleetStore
from repro.gsm.band import EVAL_SUBSET_115, ChannelPlan
from repro.gsm.routefield import build_route_field
from repro.gsm.scanner import RadioGroup
from repro.obs.events import emit, use_query_id
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry, inc
from repro.obs.tracing import trace
from repro.roads.network import RoadNetworkConfig, generate_network
from repro.roads.route import random_route
from repro.util.rng import RngFactory
from repro.vehicles.drive import simulate_drive
from repro.vehicles.idm import follow_leader
from repro.vehicles.kinematics import urban_speed_profile

__all__ = ["FleetReplayResult", "fleet_replay"]

_log = get_logger(__name__)


@dataclass
class FleetReplayResult:
    """Outcome of one fleet replay.

    ``outcomes`` is the deterministic record of the replay: one
    ``(pair_index, time_s, truth_m, estimate)`` tuple per answered
    query, in arrival order, with ``estimate`` the service's
    :class:`~repro.fleet.FleetEstimate`.  The latency/throughput numbers
    in ``rows`` come from wall clock and are *not* part of that
    contract.
    """

    rows: list[list[object]]
    outcomes: list[tuple]
    n_vehicles: int
    n_ticks: int
    n_queries: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    queries_per_s: float

    def render(self) -> str:
        return render_table(
            ["metric", "value", "note"],
            self.rows,
            title=(
                "t-fleet — city-scale RDF service replay "
                "(resident builders, batched pair queries)"
            ),
        )


def fleet_replay(
    n_vehicles: int = 200,
    duration_s: float = 200.0,
    update_period_s: float = 0.5,
    query_rate_hz: float = 8.0,
    plan: ChannelPlan | None = None,
    config: RupsConfig | None = None,
    seed: int = 0,
) -> FleetReplayResult:
    """Replay a fleet of leader/follower pairs through the service.

    Parameters
    ----------
    n_vehicles:
        Fleet size (must be even: vehicles drive as leader/follower
        pairs; each follower queries its leader).
    duration_s:
        Drive length per vehicle [s]; the query window opens once every
        follower has driven a full context and closes at drive end.
    update_period_s:
        Service tick period [s]: every tick ingests each vehicle's new
        scan measurements and answers all queries that arrived since the
        previous tick.
    query_rate_hz:
        Fleet-wide Poisson query arrival rate [1/s]; each arrival picks
        a uniformly random pair, drawn from the experiment's seeded
        generator.
    """
    if n_vehicles < 2 or n_vehicles % 2:
        raise ValueError("n_vehicles must be even and >= 2")
    factory = RngFactory(seed)
    plan = plan or EVAL_SUBSET_115
    config = config or RupsConfig(context_length_m=600.0, window_channels=30)
    ctx = config.context_length_m
    n_pairs = n_vehicles // 2

    # -- one shared city + route field for the whole fleet -------------
    network = generate_network(
        RoadNetworkConfig(blocks_x=6, blocks_y=3), seed=factory.child("city")
    )
    route = random_route(
        network,
        min_length_m=duration_s * 13.0 + 300.0,
        rng=factory.generator("route"),
    )
    route_field = build_route_field(
        network, route, plan=plan, seed=factory.child("fields")
    )

    # -- per-pair kinematics (cheap, serial) ----------------------------
    motions = []
    for p in range(n_pairs):
        pair_factory = factory.child("pair", p)
        lead = urban_speed_profile(
            duration_s=duration_s,
            speed_limit_ms=13.0,
            rng=pair_factory.generator("lead"),
            s0_m=40.0,
        )
        rear = follow_leader(lead, initial_gap_m=30.0)
        if lead.s_m[-1] > route.length - 10.0:
            raise RuntimeError("drive overruns the route; lengthen the route")
        motions.append((lead, rear, pair_factory))

    inc("fleet.replays")
    _log.info(
        "fleet replay: vehicles=%d duration_s=%.0f rate_hz=%.1f",
        n_vehicles,
        duration_s,
        query_rate_hz,
    )
    # -- phase 1: simulate every vehicle's sensing ----------------------
    group = RadioGroup(plan, n_radios=4)
    with trace("fleet.simulate"):
        records = [
            simulate_drive(
                route_field, motion, group, seed=pair_factory, vehicle_key=key
            )
            for lead, rear, pair_factory in motions
            for motion, key in ((lead, "front"), (rear, "rear"))
        ]

    # -- phase 2: the replay loop ----------------------------------------
    t_start = max(
        float(rear.time_at_distance(rear.s_m[0] + ctx + 50.0))
        for _, rear, _ in motions
    )
    t_end = min(lead.t1 for lead, _, _ in motions) - 2.0
    if t_end <= t_start:
        raise ValueError(
            "duration_s too short: the query window closes before every "
            "follower has driven a full context"
        )
    ticks = event_grid(t_start, t_end, update_period_s)

    store = FleetStore(config)
    service = FleetService(store)
    vehicle_ids = []
    for p in range(n_pairs):
        vehicle_ids.append((f"p{p:03d}.front", f"p{p:03d}.rear"))
    cuts = {vid: 0 for pair_ids in vehicle_ids for vid in pair_ids}
    arrivals = factory.generator("queries")
    n_submitted = 0
    result_outcomes: list[tuple] = []
    # Wall clock of the store's ingests, and a local histogram of each
    # query's tick-only latency (tick start -> answer); like the
    # service's own latency registry, never exported.
    ingest_s = 0.0
    tick_only = MetricsRegistry()
    with trace("fleet.replay"):
        for t in ticks:
            t = float(t)
            # Every vehicle's newly heard marks, cut before the clock
            # starts: only the store's ingest is timed.
            ingests = []
            for p, (front_id, rear_id) in enumerate(vehicle_ids):
                for vid, record in (
                    (front_id, records[2 * p]),
                    (rear_id, records[2 * p + 1]),
                ):
                    track = record.estimated.until(t)
                    bound = int(
                        np.searchsorted(
                            record.scan.times_s,
                            float(track.times_s[-1]),
                            side="right",
                        )
                    )
                    ingests.append(
                        (vid, record.scan.slice(cuts[vid], bound), track)
                    )
                    cuts[vid] = bound
            # Poisson arrivals since the last tick, drawn from the
            # experiment's generator: load composition is part of the
            # seed.  They are submitted before the tick's ingests, so a
            # query's latency covers the ingest it waits behind.
            tick_meta = []
            for _ in range(
                int(arrivals.poisson(query_rate_hz * update_period_s))
            ):
                p = int(arrivals.integers(n_pairs))
                front_id, rear_id = vehicle_ids[p]
                service.submit(
                    FleetQuery(
                        query_id=f"q{n_submitted:05d}",
                        own_id=rear_id,
                        other_id=front_id,
                    )
                )
                tick_meta.append(p)
                n_submitted += 1
            ingest_start = time.perf_counter()
            for vid, chunk, track in ingests:
                store.ingest(vid, chunk, track)
            tick_start = time.perf_counter()
            ingest_s += tick_start - ingest_start
            answers = service.tick(at_time_s=t)
            tick_s = time.perf_counter() - tick_start
            for _ in answers:
                tick_only.observe("fleet.query_latency_s", tick_s)
            for p, estimate in zip(tick_meta, answers):
                lead, rear, _ = motions[p]
                truth = float(lead.arc_length_at(t)) - float(
                    rear.arc_length_at(t)
                )
                # Close each query's provenance trail so the
                # error-attribution reporter works on t-fleet exports
                # too.  Emitted in arrival order: part of the
                # deterministic export.
                with use_query_id(estimate.query_id):
                    emit(
                        "query.outcome",
                        time_s=t,
                        truth_m=truth,
                        estimate_m=estimate.distance_m,
                        error_m=(
                            None
                            if estimate.distance_m is None
                            else abs(float(estimate.distance_m) - truth)
                        ),
                        resolved=estimate.resolved,
                        cause=estimate.cause,
                    )
                result_outcomes.append((p, t, truth, estimate))

    # -- report ---------------------------------------------------------
    errors = [
        abs(float(est.distance_m) - truth)
        for _, _, truth, est in result_outcomes
        if est.resolved and est.distance_m is not None
    ]
    n_resolved = sum(est.resolved for _, _, _, est in result_outcomes)
    n_locked = sum(est.locked for _, _, _, est in result_outcomes)
    n_rejected = sum(
        est.error is not None for _, _, _, est in result_outcomes
    )
    p50 = service.latency.quantile("fleet.query_latency_s", 0.50)
    p95 = service.latency.quantile("fleet.query_latency_s", 0.95)
    p99 = service.latency.quantile("fleet.query_latency_s", 0.99)
    tick_hist = service.latency.snapshot()["histograms"].get("fleet.tick_s")
    tick_s = float(tick_hist["sum"]) if tick_hist else 0.0
    busy_s = ingest_s + tick_s
    qps = len(result_outcomes) / busy_s if busy_s > 0 else float("nan")
    tick_qps = len(result_outcomes) / tick_s if tick_s > 0 else float("nan")
    rows: list[list[object]] = [
        ["vehicles", n_vehicles, f"{n_pairs} leader/follower pairs"],
        [
            "ticks",
            len(ticks),
            f"{update_period_s:.1f} s period, {ticks[-1] - ticks[0]:.0f} s window"
            if len(ticks)
            else "empty window",
        ],
        [
            "queries",
            len(result_outcomes),
            f"Poisson at {query_rate_hz:.1f}/s fleet-wide",
        ],
        [
            "resolved",
            n_resolved,
            f"{100.0 * n_resolved / max(len(result_outcomes), 1):.0f}% of queries",
        ],
        ["locked", n_locked, "session held a SYN lock after the answer"],
        ["rejected", n_rejected, "unknown vehicle / drive too short"],
        [
            "mean |error| (m)",
            float(np.mean(errors)) if errors else float("nan"),
            "resolved queries vs exact ground truth",
        ],
        [
            "p50 latency (ms)",
            p50 * 1e3,
            "submit -> answer, ingest included, local obs histogram",
        ],
        ["p95 latency (ms)", p95 * 1e3, "local obs histogram"],
        ["p99 latency (ms)", p99 * 1e3, "local obs histogram"],
        [
            "queries/sec",
            qps,
            "service throughput (answered / ingest + tick wall clock)",
        ],
        [
            "tick-only p50 (ms)",
            tick_only.quantile("fleet.query_latency_s", 0.50) * 1e3,
            "tick start -> answer, not trend-gated",
        ],
        [
            "tick-only queries/sec",
            tick_qps,
            "answered / tick wall clock, not trend-gated",
        ],
    ]
    _log.info(
        "fleet replay done: queries=%d resolved=%d p95_ms=%.2f",
        len(result_outcomes),
        n_resolved,
        p95 * 1e3,
    )
    return FleetReplayResult(
        rows=rows,
        outcomes=result_outcomes,
        n_vehicles=n_vehicles,
        n_ticks=len(ticks),
        n_queries=len(result_outcomes),
        latency_p50_s=p50,
        latency_p95_s=p95,
        latency_p99_s=p99,
        queries_per_s=qps,
    )

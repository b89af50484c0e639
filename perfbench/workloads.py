"""The benchmark's workloads: fleet, onboard, campaign, campaign-pooled.

Each workload builds its inputs from the seed in :meth:`setup` (input
generation, construction and warm-up) and runs one timed region in
:meth:`run`.  The amount of work is a pure function of
``(seed, seconds)`` — ``seconds`` sizes it so one run measures about
that long on a 2-core x86 host — so two runs with the same arguments
perform identical operations and give identical answers.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import RupsConfig
from repro.core.tracking import RupsTracker
from repro.core.trajectory import TrajectoryBuilder
from repro.experiments.campaign import _campaign_query_chunk_task, _campaign_simulate_task
from repro.experiments.stream import event_grid
from repro.experiments.traces import drive_pair
from repro.fleet import FleetQuery, FleetService, FleetStore
from repro.gsm.band import EVAL_SUBSET_115
from repro.gsm.routefield import build_route_field
from repro.gsm.scanner import RadioGroup
from repro.roads.network import RoadNetworkConfig, generate_network
from repro.roads.route import random_route
from repro.roads.types import RoadType
from repro.runtime import DeterministicExecutor, fixed_chunks
from repro.runtime import shared as shared_store
from repro.util.rng import RngFactory
from repro.v2v.channel import DsrcChannel
from repro.v2v.exchange import ExchangeReceiver, ExchangeSession
from repro.vehicles.drive import simulate_drive
from repro.vehicles.idm import follow_leader
from repro.vehicles.kinematics import urban_speed_profile

#: An answer further than this from ground truth counts as wrong.
WRONG_ANSWER_M = 25.0
#: Fewest operations a run sizes itself to, so a tail percentile exists.
MIN_OPS = 20


@dataclass
class Outcome:
    """What one timed region produced.

    ``latencies_ms`` and ``responses_ms`` hold one raw sample per
    answered operation; ``timings`` counts the independent timings
    behind them (the queries of one fleet tick or one campaign chunk
    share one).  ``distances`` holds every answer in order (``None``
    when unresolved); ``errors_m`` the absolute error of every resolved
    answer.  ``busy_s`` is the time the system under test was working,
    the denominator of throughput (the open-loop fleet also idles while
    waiting for due ticks).
    """

    latencies_ms: list[float] = field(default_factory=list)
    timings: int = 0
    responses_ms: list[float] = field(default_factory=list)
    distances: list[float | None] = field(default_factory=list)
    errors_m: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    exchanges: list[tuple[str, float, int]] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def answer(self, estimate_m: float | None, truth_m: float) -> None:
        """Record one answer; unresolved answers count as failed."""
        self.attempted += 1
        self.distances.append(estimate_m)
        if estimate_m is None:
            self.failed += 1
        else:
            self.errors_m.append(abs(float(estimate_m) - truth_m))


def reset_process_caches() -> None:
    """Drop process-resident program caches (engines, binding indices).

    Called before every set-up so each one, and each pass of a traced
    run, starts from the state a fresh process would have.
    """
    shared_store.clear()


def _seed_int(factory: RngFactory, *path: object) -> int:
    return int(factory.generator(*path).integers(2**31 - 1))


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------

class Fleet:
    """The t-fleet set-up as an open loop with staggered pair joins.

    Leader/follower pairs drive one generated city route; pair ``p``
    starts driving at ``p * JOIN_EVERY_S`` and drives ``DRIVE_S``.
    Every driving vehicle streams its new scans into a ``FleetStore``
    each tick, finished pairs leave the store, and each follower
    queries its leader: a fixed number of arrivals, uniform over the
    window — a Poisson process conditioned on its count — answered by a
    ``FleetService`` at ``jobs=1``.  Ticks are due on a fixed wall-clock
    schedule (``TICK_S`` of drive time every ``TICK_WALL_S``); a query
    is timed from its tick's due time, so ingest counts and a slow tick
    delays the next one.  The generator spins until a tick is due:
    sleeping let the core go cold and added ~15 % run-to-run noise to
    every figure.  Set-up drives the fleet to its steady state:
    the window opens once the first pairs have finished their drives,
    every vehicle has appended once after its history, and every pair
    that can already be queried has its session open.
    """

    name = "fleet"
    jobs = 1
    CONFIG = RupsConfig(context_length_m=600.0, window_channels=30)
    TICK_S = 0.5
    TICK_WALL_S = 0.12
    DRIVE_S = 150.0
    JOIN_EVERY_S = 6.0
    MIN_DRIVE_S = 30.0
    QUERY_RATE_HZ = 6.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.n_ticks = max(int(round(seconds / self.TICK_WALL_S)), 1)

    def setup(self) -> None:
        factory = RngFactory(self.seed)
        config = self.CONFIG
        t0 = self.DRIVE_S
        t_end = t0 + self.n_ticks * self.TICK_S
        network = generate_network(
            RoadNetworkConfig(blocks_x=6, blocks_y=3), seed=factory.child("city")
        )
        route = random_route(
            network,
            min_length_m=self.DRIVE_S * 13.0 + 300.0,
            rng=factory.generator("route"),
        )
        route_field = build_route_field(
            network, route, plan=EVAL_SUBSET_115, seed=factory.child("fields")
        )
        group = RadioGroup(EVAL_SUBSET_115, n_radios=4)
        ctx = config.context_length_m

        # -- pairs whose drives overlap the window -----------------------
        pairs = []
        for p in range(int(t_end // self.JOIN_EVERY_S) + 1):
            join = p * self.JOIN_EVERY_S
            duration = max(min(self.DRIVE_S, t_end - join + 5.0), self.MIN_DRIVE_S)
            if join + duration <= t0:
                continue
            pair_factory = factory.child("pair", p)
            lead = urban_speed_profile(
                duration_s=duration,
                speed_limit_ms=13.0,
                rng=pair_factory.generator("lead"),
                s0_m=40.0,
            )
            rear = follow_leader(lead, initial_gap_m=30.0)
            # Queryable once the follower has driven a full context (a
            # pair stuck behind a long stop may never get there).
            need_m = rear.s_m[0] + ctx + 50.0
            ready = join + float(rear.time_at_distance(need_m)) if rear.s_m[-1] >= need_m else math.inf
            # Keep only what the vehicles stream (scan + dead-reckoned
            # track); the rest of each drive record is simulation detail.
            streams = []
            for motion, key in ((lead, "front"), (rear, "rear")):
                record = simulate_drive(route_field, motion, group, seed=pair_factory, vehicle_key=key)
                streams.append((record.scan, record.estimated))
            pairs.append(
                {
                    "ids": (f"p{p:03d}.front", f"p{p:03d}.rear"),
                    "join": join,
                    "end": join + duration,
                    "ready": ready,
                    "last_query": join + lead.t1 - 2.0,
                    "lead": lead,
                    "rear": rear,
                    "streams": streams,
                    "cuts": [0, 0],
                }
            )

        store = FleetStore(config)
        service = FleetService(store, jobs=1)

        def ingest_inputs(pair: dict, t: float) -> list[tuple]:
            out = []
            for i, (scan, estimated) in enumerate(pair["streams"]):
                track = estimated.until(t - pair["join"])
                bound = int(np.searchsorted(scan.times_s, float(track.times_s[-1]), side="right"))
                out.append((pair["ids"][i], scan.slice(pair["cuts"][i], bound), track))
                pair["cuts"][i] = bound
            return out

        def streaming(pair: dict, t: float) -> bool:
            return pair["join"] + self.TICK_S <= t <= pair["end"]

        def queryable(pair: dict, t: float) -> bool:
            return pair["ready"] <= t <= min(pair["last_query"], pair["end"])

        # -- steady state at t0: stream history, then one tick of new
        # scans (every vehicle's first append after its history costs
        # several times a later one), and open the live sessions --------
        for t in (t0 - self.TICK_S, t0):
            for pair in pairs:
                if streaming(pair, t):
                    for vid, chunk, track in ingest_inputs(pair, t):
                        store.ingest(vid, chunk, track)
        opening = [pair for pair in pairs if queryable(pair, t0)]
        for i, pair in enumerate(opening):
            front_id, rear_id = pair["ids"]
            service.submit(FleetQuery(f"open{i:03d}", own_id=rear_id, other_id=front_id))
        service.tick()

        # -- the timed schedule: ingests, departures and queries per tick --
        arrivals = factory.generator("queries")
        n_queries = max(int(round(self.QUERY_RATE_HZ * self.n_ticks * self.TICK_S)), MIN_OPS)
        due_tick = np.minimum(
            (arrivals.uniform(0.0, self.n_ticks, size=n_queries)).astype(int),
            self.n_ticks - 1,
        )
        per_tick = np.bincount(due_tick, minlength=self.n_ticks)
        ticks = []
        gone: set[int] = set()
        n_submitted = 0
        for k in range(self.n_ticks):
            t = t0 + (k + 1) * self.TICK_S
            drops, ingests = [], []
            for idx, pair in enumerate(pairs):
                if idx in gone:
                    continue
                if t > pair["end"]:
                    drops.extend(pair["ids"])
                    gone.add(idx)
                elif streaming(pair, t):
                    ingests.extend(ingest_inputs(pair, t))
            candidates = [pair for pair in pairs if queryable(pair, t)]
            queries = []
            for _ in range(int(per_tick[k]) if candidates else 0):
                pair = candidates[int(arrivals.integers(len(candidates)))]
                front_id, rear_id = pair["ids"]
                local_t = t - pair["join"]
                truth = float(pair["lead"].arc_length_at(local_t)) - float(
                    pair["rear"].arc_length_at(local_t)
                )
                queries.append(
                    (FleetQuery(f"q{n_submitted:05d}", own_id=rear_id, other_id=front_id), truth)
                )
                n_submitted += 1
            ticks.append((drops, ingests, queries))
        self.store, self.service, self.ticks = store, service, ticks
        self.notes = {
            "pairs": len(pairs),
            "vehicles_at_start": store.n_vehicles,
            "sessions_opened_in_setup": len(opening),
            "queries": n_submitted,
        }

    def run(self) -> Outcome:
        out = Outcome(notes=dict(self.notes))
        store, service = self.store, self.service
        clock = time.perf_counter
        lateness = []
        wall0 = clock()
        for k, (drops, ingests, queries) in enumerate(self.ticks):
            due = wall0 + k * self.TICK_WALL_S
            while clock() < due:  # spin: a precise schedule, a core kept warm
                pass
            start = clock()
            lateness.append(start - due)
            try:
                for vid in drops:
                    store.drop_vehicle(vid)
                for vid, chunk, track in ingests:
                    store.ingest(vid, chunk, track)
                for query, _ in queries:
                    service.submit(query)
                answers = service.tick()
            except Exception:  # the tick's queries fail; the run goes on
                traceback.print_exc()
                answers = None
            end = clock()
            out.busy_s += end - start
            out.timings += bool(queries)
            for i, (_, truth) in enumerate(queries):
                estimate = None if answers is None else answers[i]
                distance = (
                    estimate.distance_m
                    if estimate is not None and estimate.resolved and estimate.error is None
                    else None
                )
                out.answer(distance, truth)
                latency_ms = (end - due) * 1e3
                out.latencies_ms.append(latency_ms)
                out.responses_ms.append(latency_ms)
        lateness_ms = np.asarray(lateness) * 1e3
        out.notes.update(
            {
                "generator_late_p50_ms": float(np.median(lateness_ms)),
                "generator_late_max_ms": float(lateness_ms.max()),
                "ticks_started_late_1ms": int(np.count_nonzero(lateness_ms > 1.0)),
                "ticks": len(self.ticks),
            }
        )
        return out

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# onboard
# ----------------------------------------------------------------------

class Onboard:
    """One vehicle tracking its leader over a lossy DSRC exchange.

    Paper §VI geometry (``RupsConfig()`` defaults on the 115-channel
    evaluation plan), drive pairs cycling through the paper's urban
    road types, ``PERIODS_PER_DRIVE`` tracking periods each — every
    drive opens a new session, so full-context searches recur in every
    run.  Each period the leader appends its new scans to its
    ``TrajectoryBuilder`` and serves its context; an
    ``ExchangeSession`` sends it over a seeded ``DsrcChannel`` (4 ms
    RTT, 1 % loss) into an ``ExchangeReceiver``; the follower runs
    ``RupsTracker.stream_update`` against the received context with its
    age, and the lock state is fed back to the session.  Closed loop:
    each period starts when the previous one ends.
    """

    name = "onboard"
    jobs = 1
    CONFIG = RupsConfig()
    ROADS = (RoadType.URBAN_8LANE, RoadType.URBAN_4LANE, RoadType.SUBURB_2LANE)
    DRIVE_S = 180.0
    PERIOD_S = 0.5
    PERIODS_PER_DRIVE = 50
    PERIODS_PER_S = 58.0
    WARM_PERIODS = 6

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.n_periods = max(int(math.ceil(self.PERIODS_PER_S * seconds)), MIN_OPS)

    def setup(self) -> None:
        factory = RngFactory(self.seed)
        ctx = self.CONFIG.context_length_m
        self.drives = []
        total, d = 0, -1
        while total < self.n_periods:
            d += 1
            pair = drive_pair(
                road_type=self.ROADS[d % len(self.ROADS)],
                duration_s=self.DRIVE_S,
                plan=EVAL_SUBSET_115,
                seed=_seed_int(factory, "drive", d),
            )
            motion = pair.rear.motion
            if motion.s_m[-1] < motion.s_m[0] + ctx + 50.0:
                continue  # stuck behind stops: never drives a full context
            times = event_grid(*pair.query_window(context_length_m=ctx), self.PERIOD_S)
            times = times[: min(self.PERIODS_PER_DRIVE, self.n_periods - total)]
            total += len(times)
            self.drives.append((self._inputs(pair, times), factory.child("dsrc", d)))
        # Warm-up: the first periods of the first drive on throwaway
        # sessions (full search, then locked/anchored updates).
        inputs, dsrc = self.drives[0]
        self._drive(inputs[: self.WARM_PERIODS], self._sessions(dsrc.child("warm-up")), Outcome())

    @staticmethod
    def _inputs(pair, times: np.ndarray) -> list[tuple]:
        """Per period: time, ground truth, the leader's and the follower's
        new data (views into the scans; the rest of the drive is
        dropped)."""
        out, cuts = [], [0, 0]
        for t in times:
            t = float(t)
            period = [t, float(pair.scenario.true_relative_distance(t))]
            for i, record in enumerate((pair.front, pair.rear)):
                track = record.estimated.until(t)
                bound = int(
                    np.searchsorted(record.scan.times_s, float(track.times_s[-1]), side="right")
                )
                period.append((record.scan.slice(cuts[i], bound), track))
                cuts[i] = bound
            out.append(tuple(period))
        return out

    def _sessions(self, dsrc: RngFactory) -> tuple:
        config = self.CONFIG
        return (
            TrajectoryBuilder(spacing_m=config.spacing_m, context_length_m=config.context_length_m),
            ExchangeSession(channel=DsrcChannel(), rng=dsrc.generator("channel")),
            ExchangeReceiver(max_context_m=config.context_length_m),
            RupsTracker(config),
        )

    @staticmethod
    def _drive(inputs: list[tuple], sessions: tuple, out: Outcome) -> None:
        leader, session, receiver, tracker = sessions
        clock = time.perf_counter
        for t, truth, (lead_chunk, lead_track), (own_chunk, own_track) in inputs:
            start = clock()
            try:
                leader.append(lead_chunk, lead_track)
                exchange = session.exchange_update(leader.trajectory(), receiver, now_s=t)
                update = tracker.stream_update(
                    own_chunk,
                    own_track,
                    other=receiver.context,
                    context_age_s=max(0.0, receiver.context_age_s(t)),
                )
                if update.locked_after and not session.locked:
                    session.notify_syn_found()
                elif not update.locked_after and session.locked:
                    session.notify_lock_lost()
            except Exception:  # the period fails; the drive goes on
                traceback.print_exc()
                exchange = update = None
            host_s = clock() - start
            out.busy_s += host_s
            out.timings += 1
            out.latencies_ms.append(host_s * 1e3)
            airtime_s = 0.0 if exchange is None else exchange.time_s
            out.responses_ms.append((host_s + airtime_s) * 1e3)
            if exchange is not None:
                out.exchanges.append((exchange.mode, exchange.time_s, exchange.bytes_on_air))
            resolved = update is not None and update.estimate.resolved
            out.answer(update.estimate.distance_m if resolved else None, truth)

    def run(self) -> Outcome:
        out = Outcome(notes={"drives": len(self.drives), "periods": self.n_periods})
        for inputs, dsrc in self.drives:
            self._drive(inputs, self._sessions(dsrc), out)
        modes = [mode for mode, _, _ in out.exchanges]
        out.notes.update({mode: modes.count(mode) for mode in sorted(set(modes))})
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

def timed_task(item: tuple) -> tuple:
    """Run one program task and time it in whichever process runs it."""
    fn, inner = item
    start = time.perf_counter()
    result = fn(inner)
    return result, time.perf_counter() - start


class Campaign:
    """The t-campaign evaluation: cold queries over a mixed-type route.

    Two-car drives over one route through the generated city, queried
    at random instants with the full 1 km context on the 115-channel
    plan.  Set-up simulates the drives (through the executor, as
    ``run_campaign`` does); the timed region is the query phase: fixed
    chunks of ``CHUNK_QUERIES`` instants, each answered by
    ``RupsEngine.build_trajectory`` and one
    ``estimate_relative_distance_batch`` call.  A query's latency is the
    wall time of the chunk that answered it, measured where it ran, so
    a chunk is one timing.  Chunks are smaller than t-campaign's
    ``DEFAULT_CHUNK_QUERIES`` (8) so that a run holds enough timings
    for a tail percentile; two queries still share one cross-pair
    kernel call.
    """

    name = "campaign"
    jobs = 1
    CONFIG = RupsConfig()
    CHUNK_QUERIES = 2
    DRIVES = 2
    ROUTE_M = 6000.0
    QUERIES_PER_S = 10.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.per_drive = max(
            int(math.ceil(self.QUERIES_PER_S * seconds / self.DRIVES)), MIN_OPS // self.DRIVES
        )

    def setup(self) -> None:
        factory = RngFactory(self.seed)
        config = self.CONFIG
        network = generate_network(
            RoadNetworkConfig(blocks_x=8, blocks_y=4), seed=factory.child("city")
        )
        # As run_campaign: the first candidate route that mixes road
        # types and stays off the elevated arterial.
        route = None
        for attempt in range(24):
            candidate = random_route(
                network, min_length_m=self.ROUTE_M, rng=factory.generator("route", attempt)
            )
            types = {leg.segment.road_type for leg in candidate.legs}
            if len(types) >= 2 and RoadType.ELEVATED not in types:
                route = candidate
                break
            route = route or candidate
        route_field = build_route_field(
            network, route, plan=EVAL_SUBSET_115, seed=factory.child("fields")
        )
        motions = []
        for d in list(range(self.DRIVES)) + ["warm-up"]:
            drive_factory = factory.child("drive", d)
            lead = urban_speed_profile(
                duration_s=min(600.0, (route.length - 200.0) / 9.0),
                speed_limit_ms=13.0,
                rng=drive_factory.generator("lead"),
                s0_m=40.0,
            )
            motions.append((lead, follow_leader(lead, initial_gap_m=30.0), drive_factory))

        executor = DeterministicExecutor(jobs=self.jobs)
        self.executor = executor
        executor.warm_up()
        field_in = executor.publish(route_field)
        route_in = executor.publish(route)
        sims = [
            (field_in, motion, drive_factory, key, 4, EVAL_SUBSET_115, True)
            for lead, rear, drive_factory in motions
            for motion, key in ((lead, "front"), (rear, "rear"))
        ]
        records = executor.map_ordered(_campaign_simulate_task, sims)

        def chunks(d: int, times: np.ndarray, prefix: str) -> list[tuple]:
            lead, rear, _ = motions[d]
            ids = [f"{prefix}q{i}" for i in range(len(times))]
            return [
                (
                    _campaign_query_chunk_task,
                    (records[2 * d], records[2 * d + 1], lead, rear, route_in, chunk, id_chunk, config),
                )
                for chunk, id_chunk in zip(
                    fixed_chunks(list(times), self.CHUNK_QUERIES),
                    fixed_chunks(ids, self.CHUNK_QUERIES),
                )
                if chunk
            ]

        items = []
        for d in range(self.DRIVES):
            lead, rear, _ = motions[d]
            t_ready = float(rear.time_at_distance(rear.s_m[0] + config.context_length_m + 50.0))
            times = factory.generator("queries", d).uniform(t_ready, lead.t1 - 2.0, size=self.per_drive)
            items.extend(chunks(d, times, f"d{d}"))
        # Warm-up: one small chunk per worker on the throwaway drive, so
        # imports and first-call costs land here, not in the timed wave.
        lead, rear, _ = motions[-1]
        t_warm = float(rear.time_at_distance(rear.s_m[0] + config.context_length_m + 50.0))
        warm = chunks(self.DRIVES, np.array([t_warm + 1.0, t_warm + 2.0]), "w")
        executor.map_ordered(timed_task, warm * executor.jobs)
        self.items = items

    def run(self) -> Outcome:
        out = Outcome(notes={"queries": self.per_drive * self.DRIVES, "chunks": len(self.items)})
        wall0 = time.perf_counter()
        try:
            results = self.executor.map_ordered(timed_task, self.items)
        except Exception:  # every query of the wave fails
            traceback.print_exc()
            results = []
            out.attempted = out.failed = out.notes["queries"]
        out.busy_s = time.perf_counter() - wall0
        for outcomes, chunk_s in results:
            out.timings += 1
            for _, outcome in outcomes:
                out.answer(outcome.estimate_m, outcome.truth_m)
                out.latencies_ms.append(chunk_s * 1e3)
                out.responses_ms.append(chunk_s * 1e3)
        return out

    def close(self) -> None:
        self.executor.close()


class CampaignPooled(Campaign):
    """``campaign`` on a warmed two-worker pool with shared statics."""

    name = "campaign-pooled"
    jobs = 2


WORKLOADS = {cls.name: cls for cls in (Fleet, Onboard, Campaign, CampaignPooled)}

"""Continuous tracking sessions (§V-B).

"one application may need to track a neighboring vehicle on every 0.1
second.  Transferring all journey context for tracking is then
infeasible."  The communication half of the fix lives in
:mod:`repro.v2v.exchange` (incremental updates after a SYN lock); this
module implements the matching half: once a session is locked, updates
run the SYN search over a *short* recent context instead of the full
1 km, an order of magnitude cheaper per update, and fall back to the
full search whenever the short window fails or the lock goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine, RupsEstimate
from repro.core.syn import SynPoint
from repro.core.trajectory import GsmTrajectory, TrajectoryBuilder
from repro.gsm.scanner import ScanStream
from repro.obs.events import emit
from repro.obs.logconfig import get_logger
from repro.obs.metrics import inc
from repro.obs.tracing import trace
from repro.sensors.deadreckoning import EstimatedTrack

__all__ = ["DistanceFilter", "RupsTracker", "TrackerPlan", "TrackerUpdate"]

_log = get_logger(__name__)


@dataclass(frozen=True)
class TrackerUpdate:
    """One tracking-period result.

    Attributes
    ----------
    estimate:
        The relative-distance estimate (may be unresolved).
    mode:
        ``"full"`` (complete context search) or ``"locked"`` (short
        post-lock window).
    locked_after:
        Whether the session holds a lock after this update.
    degraded:
        The estimate was computed against a stale neighbour context (the
        V2V exchange lost updates) — treat it with reduced confidence.
    context_age_s:
        Age of the neighbour context used for this update [s] (0 when
        fresh).
    """

    estimate: RupsEstimate
    mode: str
    locked_after: bool
    degraded: bool = False
    context_age_s: float = 0.0


@dataclass
class TrackerPlan:
    """One tracking period, from its plan until it is decided.

    Produced by :meth:`RupsTracker.plan_update`, which runs everything a
    tracking period does *except* the SYN search itself: context
    bookkeeping, staleness/lock decisions, and trimming.  The plan then
    carries the next search to run.  The caller estimates ``pair`` —
    anchored on ``anchor`` — and feeds the result to
    :meth:`RupsTracker.absorb_update`, repeating until ``update`` is
    set.  A fleet service runs that loop over many sessions at once,
    one cross-pair batched kernel call per round.

    Attributes
    ----------
    update:
        The finished period, once decided: at plan time when no context
        was ever decoded (nothing to search), otherwise by the absorb
        that ends the ladder.  A decided plan must not be absorbed.
    pair:
        ``(own_q, other_q)`` — the trajectories the next SYN search must
        run over: the (possibly trimmed) pair, or the full-context pair
        of the locked-failure retry.
    anchor:
        The SYN point the next search is anchored on (the streaming
        rung's suffix sweep), or ``None`` for a full double-sided sweep.
    anchored:
        Whether the period began with the anchored rung.

    The remaining fields are the session bookkeeping the absorb step
    needs; treat them as read-only.
    """

    update: TrackerUpdate | None
    pair: tuple[GsmTrajectory, GsmTrajectory] | None
    anchor: SynPoint | None = None
    anchored: bool = False
    own: GsmTrajectory | None = None
    context: GsmTrajectory | None = None
    mode: str = "full"
    retrying: bool = False
    degraded: bool = False
    over_budget: bool = False
    was_locked: bool = False
    drop_cause: str | None = None
    context_age_s: float = 0.0


class RupsTracker:
    """Stateful per-neighbour tracking session.

    Every period walks one ladder, decided by :meth:`absorb_update`
    alone: an anchored suffix sweep (streaming, while locked), then the
    full double-sided search over the trimmed pair, then — after
    ``max_locked_failures`` consecutive locked misses — one search at
    full context.  :meth:`update` and :meth:`stream_update` run it one
    search at a time; a fleet service batches each rung across
    sessions.

    Parameters
    ----------
    config:
        Base RUPS configuration (the full-search behaviour).
    locked_context_m:
        Context length used while locked; must hold at least one checking
        window plus the expected inter-vehicle gap.
    max_locked_failures:
        Consecutive unresolved locked updates before falling back to a
        full search (losing a neighbour behind a turn, etc.).
    staleness_budget_s:
        How old the neighbour's context may grow (lossy V2V exchange)
        before the tracker refuses to keep its lock: beyond the budget
        the SYN lock is dropped and updates report unlocked, degraded
        estimates until a fresh context arrives.
    """

    def __init__(
        self,
        config: RupsConfig | None = None,
        locked_context_m: float = 200.0,
        max_locked_failures: int = 2,
        staleness_budget_s: float = 2.0,
    ) -> None:
        self.config = config or RupsConfig()
        if locked_context_m < self.config.window_length_m:
            raise ValueError(
                "locked_context_m must be at least one checking window"
            )
        if max_locked_failures < 1:
            raise ValueError("max_locked_failures must be >= 1")
        if staleness_budget_s <= 0:
            raise ValueError("staleness_budget_s must be positive")
        self.locked_context_m = float(locked_context_m)
        self.max_locked_failures = int(max_locked_failures)
        self.staleness_budget_s = float(staleness_budget_s)
        self._engine = RupsEngine(self.config)
        self._locked = False
        self._failures = 0
        self._history: list[TrackerUpdate] = []
        self._last_context: GsmTrajectory | None = None
        self._anchor: SynPoint | None = None
        self._builder: TrajectoryBuilder | None = None

    @property
    def locked(self) -> bool:
        """Whether the session currently holds a SYN lock."""
        return self._locked

    @property
    def history(self) -> list[TrackerUpdate]:
        """All updates so far (copy)."""
        return list(self._history)

    def last_distance_m(self) -> float | None:
        """Most recent resolved distance, if any."""
        for update in reversed(self._history):
            if update.estimate.resolved:
                return update.estimate.distance_m
        return None

    def reset(self) -> None:
        """Drop the lock and history (new neighbour).

        The own-vehicle streaming state (the builder) survives: it
        describes this vehicle's drive, not the neighbour.
        """
        self._locked = False
        self._failures = 0
        self._history.clear()
        self._last_context = None
        self._anchor = None

    def update(
        self,
        own: GsmTrajectory,
        other: GsmTrajectory | None = None,
        context_age_s: float = 0.0,
    ) -> TrackerUpdate:
        """Run one tracking period.

        ``own``/``other`` are the current GSM-aware trajectories (built
        at full context length by the caller; the tracker trims them when
        locked — trimming is cheap, searching is not).

        When the V2V exchange failed to refresh the neighbour's context
        this period, pass ``other=None`` to track against the last
        successfully decoded context, with ``context_age_s`` giving its
        age; the update is then flagged ``degraded``, and once the age
        exceeds ``staleness_budget_s`` the lock is dropped until a fresh
        context arrives.  The search is never anchored.
        """
        return self._run_update(self.plan_update(own, other, context_age_s))

    def stream_update(
        self,
        chunk: ScanStream,
        track: EstimatedTrack,
        other: GsmTrajectory | None = None,
        at_time_s: float | None = None,
        context_age_s: float = 0.0,
    ) -> TrackerUpdate:
        """One tracking period fed from the own vehicle's raw stream.

        The streaming hot path: instead of receiving a pre-built own
        trajectory, the tracker folds the newly arrived ``chunk`` (all
        measurements since the previous call; sorted, non-overlapping,
        within ``track``'s time span) into its resident
        :class:`~repro.core.trajectory.TrajectoryBuilder` and serves the
        bounded own context out of it in O(chunk + changed window) — no
        re-binning of the drive.  ``track`` is
        the own dead-reckoned track as known now and must extend the one
        passed previously.  The period is planned with ``anchored=True``
        (see :meth:`plan_update`): while locked, the ladder starts with
        a suffix sweep anchored on the last accepted SYN point.

        Raises ``ValueError`` while the drive is still too short for a
        trajectory, exactly as the batch build would.
        """
        inc("tracker.stream_updates")
        if self._builder is None:
            self._builder = TrajectoryBuilder(
                spacing_m=self.config.spacing_m,
                context_length_m=self.config.context_length_m,
            )
        with trace("tracker.stream_bind"):
            self._builder.append(chunk, track)
            own = self._builder.trajectory(at_time_s=at_time_s)
        return self._run_update(
            self.plan_update(own, other, context_age_s, anchored=True)
        )

    def plan_update(
        self,
        own: GsmTrajectory,
        other: GsmTrajectory | None = None,
        context_age_s: float = 0.0,
        anchored: bool = False,
    ) -> TrackerPlan:
        """Run one tracking period up to (but excluding) the SYN search.

        Everything except the search happens here: context bookkeeping,
        the staleness decision, mode selection, and trimming.  When the
        period can be decided without searching at all (no context ever
        decoded), the returned plan carries the finished ``update``;
        otherwise the caller estimates ``plan.pair`` anchored on
        ``plan.anchor`` — with any engine holding the same config — and
        feeds each result to :meth:`absorb_update` until the plan is
        decided.  Splitting the period this way is what lets a fleet
        service batch many sessions' searches into one cross-pair kernel
        call while every session's state transitions stay in the
        submitting process, deterministic under any fan-out.

        ``anchored`` lets a locked session start with the anchored
        suffix sweep: :meth:`stream_update` passes ``True``;
        :meth:`update` and the fleet service keep the default.
        """
        if context_age_s < 0:
            # Validate before touching any session state: an invalid
            # call must leave the tracker exactly as it found it.
            raise ValueError("context_age_s must be non-negative")
        if other is not None:
            self._last_context = other
        context = other if other is not None else self._last_context
        inc("tracker.updates")
        if context is None:
            # Nothing ever decoded: report an unresolved, degraded update.
            inc("tracker.updates.no_context")
            emit(
                "tracker.update",
                mode="full",
                locked_before=self._locked,
                locked_after=False,
                resolved=False,
                degraded=True,
                context_age_s=float(context_age_s),
                drop_cause=None,
                no_context=True,
            )
            update = TrackerUpdate(
                estimate=RupsEstimate(None, (), (), self.config.aggregation),
                mode="full",
                locked_after=False,
                degraded=True,
                context_age_s=context_age_s,
            )
            self._history.append(update)
            return TrackerPlan(update=update, pair=None)
        degraded = other is None or context_age_s > 0.0
        over_budget = context_age_s > self.staleness_budget_s
        was_locked = self._locked
        drop_cause: str | None = None
        if over_budget and self._locked:
            # Staleness is decided *before* the search mode: a context
            # past its budget must not be searched in locked (trimmed)
            # mode and then reported as such — the lock is gone and the
            # update runs at full context.
            self._locked = False
            self._failures = 0
            self._anchor = None
            drop_cause = "staleness"
            inc("tracker.lock_dropped.staleness")
            _log.debug(
                "lock dropped: context_age_s=%.3f budget_s=%.3f",
                context_age_s,
                self.staleness_budget_s,
            )

        mode = "locked" if self._locked else "full"
        inc(f"tracker.updates.{mode}")
        if self._locked:
            own_q = self._trim(own)
            other_q = self._trim(context)
        else:
            own_q, other_q = own, context
        # Fastest rung of the ladder: anchored on the last lock, the
        # sweep scans only the suffix at or after it.
        anchor = self._anchor if anchored and self._locked else None
        if anchor is not None:
            inc("tracker.updates.anchored")
        return TrackerPlan(
            update=None,
            pair=(own_q, other_q),
            anchor=anchor,
            anchored=anchor is not None,
            own=own,
            context=context,
            mode=mode,
            degraded=degraded,
            over_budget=over_budget,
            was_locked=was_locked,
            drop_cause=drop_cause,
            context_age_s=float(context_age_s),
        )

    def absorb_update(
        self, plan: TrackerPlan, estimate: RupsEstimate
    ) -> TrackerUpdate | None:
        """Fold the search result of ``plan.pair`` into the session.

        The only place the ladder's rungs are decided.  Returns ``None``
        when the period needs another search — ``plan.pair`` and
        ``plan.anchor`` then name it — and otherwise the finished
        :class:`TrackerUpdate`, which is also stored in ``plan.update``.
        """
        if plan.update is not None:
            raise ValueError("plan is already decided")
        if plan.anchor is not None:
            plan.anchor = None
            if not estimate.resolved:
                # Empty-handed is not conclusive (the true peak may sit
                # outside the guard band), so search the trimmed pair
                # again, full double-sided, before charging a locked
                # failure.
                inc("tracker.anchor_retries")
                return None
        if plan.retrying:
            # The full-context retry decides the lock either way.
            self._locked = estimate.resolved
            self._failures = 0
            if not self._locked:
                plan.drop_cause = "failures"
                inc("tracker.lock_dropped.failures")
        elif estimate.resolved:
            self._locked = True
            self._failures = 0
        elif self._locked:
            self._failures += 1
            if self._failures >= self.max_locked_failures:
                # Retry immediately at full context before reporting.
                inc("tracker.full_retries")
                plan.pair = (plan.own, plan.context)
                plan.mode = "full"
                plan.retrying = True
                return None
        return self._finish_update(plan, estimate)

    # perfbench/layers.py traces this name, and its self-test pins the
    # list of absent targets: keep it as an alias of the one absorb.
    absorb_retry = absorb_update

    def _finish_update(
        self, plan: TrackerPlan, estimate: RupsEstimate
    ) -> TrackerUpdate:
        if plan.over_budget and self._locked:
            # Past the staleness budget the lock is never kept, however
            # well the stale context still matched the trimmed search.
            self._locked = False
            self._failures = 0
            plan.drop_cause = "staleness"
        if estimate.resolved:
            # Most recent accepted SYN point anchors the next streaming
            # sweep; on lock loss the anchor dies with the lock.
            self._anchor = estimate.syn_points[0]
        elif not self._locked:
            self._anchor = None
        if self._locked and not plan.was_locked:
            inc("tracker.lock_acquired")
        if plan.degraded:
            inc("tracker.updates.degraded")
        emit(
            "tracker.update",
            mode=plan.mode,
            locked_before=plan.was_locked,
            locked_after=self._locked,
            resolved=estimate.resolved,
            degraded=plan.degraded,
            context_age_s=plan.context_age_s,
            drop_cause=plan.drop_cause,
            cause=estimate.cause,
            anchored=plan.anchored,
        )
        plan.update = TrackerUpdate(
            estimate=estimate,
            mode=plan.mode,
            locked_after=self._locked,
            degraded=plan.degraded,
            context_age_s=plan.context_age_s,
        )
        self._history.append(plan.update)
        return plan.update

    def _run_update(self, plan: TrackerPlan) -> TrackerUpdate:
        """Search and absorb until the period is decided — the loop
        :meth:`FleetService.tick <repro.fleet.service.FleetService.tick>`
        runs over many sessions at once."""
        while plan.update is None:
            (estimate,) = self._engine.estimate_relative_distance_batch(
                [plan.pair], anchors=[plan.anchor]
            )
            self.absorb_update(plan, estimate)
        return plan.update

    def _trim(self, trajectory: GsmTrajectory) -> GsmTrajectory:
        if trajectory.length_m <= self.locked_context_m:
            return trajectory
        return trajectory.tail(self.locked_context_m)


@dataclass
class DistanceFilter:
    """Alpha-beta filter over the tracked relative distance.

    Tracking applications sample RUPS at fixed periods; the raw per-query
    estimates carry metre-scale matching noise while the underlying gap
    evolves smoothly (bounded relative acceleration).  A constant-
    velocity alpha-beta filter — the classic minimal tracker — smooths
    the stream and bridges short unresolved gaps by prediction.

    Attributes
    ----------
    alpha, beta:
        Position / velocity correction gains (0 < beta < alpha < 2).
    max_coast_s:
        Longest span the filter will predict through without a
        measurement before declaring itself stale.
    """

    alpha: float = 0.5
    beta: float = 0.1
    max_coast_s: float = 5.0
    _d: float | None = None
    _v: float = 0.0
    _t: float | None = None
    _last_meas_t: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < self.alpha < 2.0:
            raise ValueError("gains must satisfy 0 < beta < alpha < 2")
        if self.max_coast_s <= 0:
            raise ValueError("max_coast_s must be positive")

    @property
    def initialized(self) -> bool:
        """Whether at least one measurement has been absorbed."""
        return self._d is not None

    @property
    def stale(self) -> bool:
        """Whether the filter has coasted past its measurement budget."""
        if self._t is None or self._last_meas_t is None:
            return True
        return (self._t - self._last_meas_t) > self.max_coast_s

    @property
    def closing_speed_ms(self) -> float:
        """Estimated rate of gap change [m/s] (positive = gap growing)."""
        return self._v

    def step(self, time_s: float, measurement_m: float | None) -> float | None:
        """Advance to ``time_s``; absorb a measurement if one is given.

        Returns the filtered distance, or ``None`` until initialized or
        once stale.  The constant-velocity prediction only runs while the
        coast budget holds: past ``max_coast_s`` the state is frozen, and
        the first measurement after staleness re-initializes the filter
        (position snap, velocity reset) instead of alpha-correcting from
        an arbitrarily far-extrapolated state.
        """
        if self._d is None:
            if measurement_m is None:
                return None
            self._d = float(measurement_m)
            self._t = float(time_s)
            self._last_meas_t = float(time_s)
            return self._d
        assert self._t is not None
        assert self._last_meas_t is not None
        dt = float(time_s) - self._t
        if dt < 0:
            raise ValueError("time must not run backwards")
        self._t = float(time_s)
        if (self._t - self._last_meas_t) > self.max_coast_s:
            if measurement_m is None:
                return None
            self._d = float(measurement_m)
            self._v = 0.0
            self._last_meas_t = self._t
            return self._d
        self._d += self._v * dt
        if measurement_m is not None:
            residual = float(measurement_m) - self._d
            self._d += self.alpha * residual
            if dt > 0:
                self._v += self.beta * residual / dt
            self._last_meas_t = float(time_s)
        return None if self.stale else self._d

    def reset(self) -> None:
        """Forget all state (new neighbour / lock loss)."""
        self._d = None
        self._v = 0.0
        self._t = None
        self._last_meas_t = None

"""Tests for repro.core.tracking: continuous tracking sessions."""

import pickle

import numpy as np
import pytest

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine
from repro.core.tracking import RupsTracker

from tests.test_core_syn_resolver import synthetic_pair

CFG = RupsConfig(
    context_length_m=500.0,
    window_length_m=60.0,
    window_channels=20,
    coherency_threshold=1.2,
    n_syn_points=3,
    syn_stride_m=20.0,
)


class TestRupsTracker:
    def test_first_update_full_then_locked(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        u1 = tracker.update(rear, front)
        assert u1.mode == "full"
        assert u1.estimate.resolved
        assert tracker.locked
        u2 = tracker.update(rear, front)
        assert u2.mode == "locked"
        assert u2.estimate.resolved
        assert u2.estimate.distance_m == pytest.approx(30.0, abs=3.0)

    def test_locked_updates_consistent(self):
        rear, front = synthetic_pair(gap_m=25.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        full = tracker.update(rear, front).estimate.distance_m
        locked = tracker.update(rear, front).estimate.distance_m
        assert locked == pytest.approx(full, abs=2.0)

    def test_unrelated_never_locks(self):
        rear, _ = synthetic_pair(seed=3)
        _, foreign = synthetic_pair(seed=88)
        tracker = RupsTracker(CFG)
        for _ in range(3):
            u = tracker.update(rear, foreign)
            assert not u.estimate.resolved
        assert not tracker.locked
        assert tracker.last_distance_m() is None

    def test_lock_loss_falls_back_to_full(self):
        rear, front = synthetic_pair(gap_m=30.0)
        _, foreign = synthetic_pair(seed=99)
        tracker = RupsTracker(CFG, locked_context_m=150.0, max_locked_failures=1)
        tracker.update(rear, front)
        assert tracker.locked
        # neighbour replaced by an unrelated trajectory: locked search
        # fails, tracker retries full and reports unlocked.
        u = tracker.update(rear, foreign)
        assert not u.locked_after
        assert not tracker.locked

    def test_relock_after_recovery(self):
        rear, front = synthetic_pair(gap_m=30.0)
        _, foreign = synthetic_pair(seed=99)
        tracker = RupsTracker(CFG, locked_context_m=150.0, max_locked_failures=1)
        tracker.update(rear, front)
        tracker.update(rear, foreign)  # lock lost
        u = tracker.update(rear, front)
        assert u.estimate.resolved
        assert tracker.locked

    def test_history_and_last_distance(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        tracker.update(rear, front)
        assert len(tracker.history) == 2
        assert tracker.last_distance_m() == pytest.approx(30.0, abs=3.0)

    def test_reset(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        tracker.reset()
        assert not tracker.locked
        assert tracker.history == []

    def test_trim_leaves_short_contexts_alone(self):
        rear, front = synthetic_pair(gap_m=20.0, rear_len=101, front_len=151)
        tracker = RupsTracker(CFG, locked_context_m=400.0)
        u = tracker.update(rear, front)
        # first update always full; nothing to trim anyway
        assert u.mode == "full"

    def test_validation(self):
        with pytest.raises(ValueError):
            RupsTracker(CFG, locked_context_m=10.0)  # below window length
        with pytest.raises(ValueError):
            RupsTracker(CFG, locked_context_m=150.0, max_locked_failures=0)
        with pytest.raises(ValueError):
            RupsTracker(CFG, staleness_budget_s=0.0)


class TestDegradedTracking:
    def test_fresh_context_not_degraded(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        u = tracker.update(rear, front)
        assert not u.degraded
        assert u.context_age_s == 0.0

    def test_missing_context_tracks_against_last(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        # Exchange dropped this period: no fresh context, but the held
        # one is recent — track against it, flagged degraded.
        u = tracker.update(rear, other=None, context_age_s=0.3)
        assert u.degraded
        assert u.context_age_s == pytest.approx(0.3)
        assert u.estimate.resolved
        assert u.locked_after
        assert u.estimate.distance_m == pytest.approx(30.0, abs=3.0)

    def test_aged_fresh_context_flagged_degraded(self):
        # Even a just-delivered context can be old (it sat in the
        # reassembly buffer through NACK rounds).
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        u = tracker.update(rear, front, context_age_s=0.4)
        assert u.degraded

    def test_staleness_budget_drops_lock(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0, staleness_budget_s=1.0)
        tracker.update(rear, front)
        assert tracker.locked
        u = tracker.update(rear, other=None, context_age_s=1.5)
        assert u.degraded
        assert not u.locked_after
        assert not tracker.locked

    def test_stale_update_searches_full_not_locked(self):
        """Regression: staleness must be decided before the search mode.

        Previously an over-budget update still ran the locked (trimmed)
        search and returned ``mode="locked"`` with ``locked_after=False``
        (a contradictory TrackerUpdate).
        """
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0, staleness_budget_s=1.0)
        tracker.update(rear, front)
        tracker.update(rear, front)  # locked update
        u = tracker.update(rear, other=None, context_age_s=2.0)
        assert u.mode == "full"
        assert not u.locked_after

    def test_lock_drop_on_failures_clears_trim_cache(self):
        rear, front = synthetic_pair(gap_m=30.0)
        _, foreign = synthetic_pair(seed=99)
        tracker = RupsTracker(CFG, locked_context_m=150.0, max_locked_failures=1)
        tracker.update(rear, front)
        tracker.update(rear, front)
        tracker.update(rear, foreign)  # locked fails, full retry fails
        assert not tracker.locked

    def test_fresh_context_relocks_after_staleness(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0, staleness_budget_s=1.0)
        tracker.update(rear, front)
        tracker.update(rear, other=None, context_age_s=2.0)  # lock dropped
        u = tracker.update(rear, front)
        assert not u.degraded
        assert u.locked_after

    def test_no_context_ever_reports_unresolved(self):
        rear, _ = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        u = tracker.update(rear, other=None, context_age_s=5.0)
        assert u.degraded
        assert not u.estimate.resolved
        assert not u.locked_after
        assert len(tracker.history) == 1

    def test_reset_clears_last_context(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        tracker.reset()
        u = tracker.update(rear, other=None)
        assert not u.estimate.resolved

    def test_negative_age_rejected(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        with pytest.raises(ValueError):
            tracker.update(rear, front, context_age_s=-0.1)

    def test_negative_age_leaves_session_untouched(self):
        """Regression: validation must run before any state mutation.

        The pre-fix path stored the offered context *before* checking
        ``context_age_s``, so a rejected call silently replaced the held
        neighbour context — the next exchange-loss period then tracked
        against a context the session was told was invalid.
        """
        rear, front = synthetic_pair(gap_m=30.0)
        _, foreign = synthetic_pair(seed=88)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        held = tracker._last_context
        assert held is front
        was_locked = tracker.locked
        n_history = len(tracker.history)
        with pytest.raises(ValueError):
            tracker.update(rear, foreign, context_age_s=-0.1)
        assert tracker._last_context is held
        assert tracker.locked == was_locked
        assert len(tracker.history) == n_history
        # The held (valid) context still serves exchange-loss periods:
        # a foreign context leaked in by the rejected call would not
        # resolve here.
        u = tracker.update(rear, other=None, context_age_s=0.2)
        assert u.estimate.resolved

    def test_repeated_no_context_updates_stay_unresolved(self):
        """The bottom rung of the degraded ladder holds under repetition."""
        rear, _ = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        for age in (0.5, 1.5, 9.0):
            u = tracker.update(rear, other=None, context_age_s=age)
            assert u.degraded
            assert not u.estimate.resolved
            assert not u.locked_after
            assert u.context_age_s == pytest.approx(age)
        assert not tracker.locked
        assert len(tracker.history) == 3
        assert tracker.last_distance_m() is None

    def test_reset_clears_anchor_and_trim_cache(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        tracker.update(rear, front)
        tracker.update(rear, front)  # locked update: anchor set
        assert tracker._anchor is not None
        tracker.reset()
        assert tracker._anchor is None
        assert tracker._last_context is None
        assert tracker.history == []
        assert not tracker.locked


class TestPlanAbsorbEquivalence:
    """plan/absorb (the fleet service's split) must equal update()."""

    @staticmethod
    def _drive(tracker, engine, own, other, age=0.0):
        """One tracking period through the decomposed path: search the
        plan's next pair and absorb until the plan is decided."""
        plan = tracker.plan_update(own, other, context_age_s=age)
        while plan.update is None:
            (estimate,) = engine.estimate_relative_distance_batch(
                [plan.pair], anchors=[plan.anchor]
            )
            tracker.absorb_update(plan, estimate)
        return plan.update

    def test_matches_update_through_full_ladder(self):
        """Every rung: full, locked, locked-failure retry, relock, stale."""
        rear, front = synthetic_pair(gap_m=30.0)
        _, foreign = synthetic_pair(seed=99)
        kwargs = dict(locked_context_m=150.0, max_locked_failures=1)
        reference = RupsTracker(CFG, **kwargs)
        split = RupsTracker(CFG, **kwargs)
        engine = RupsEngine(CFG)
        steps = [
            (rear, front, 0.0),  # full -> lock
            (rear, front, 0.0),  # locked
            (rear, foreign, 0.0),  # locked fails -> full retry -> drop
            (rear, front, 0.0),  # relock
            (rear, None, 0.3),  # degraded against held context
            (rear, None, 9.0),  # past budget: staleness drop
        ]
        for own, other, age in steps:
            a = reference.update(own, other, context_age_s=age)
            b = self._drive(split, engine, own, other, age=age)
            assert pickle.dumps(a) == pickle.dumps(b)
        assert reference.locked == split.locked
        assert pickle.dumps(reference.history) == pickle.dumps(split.history)
        modes = [u.mode for u in reference.history]
        assert "locked" in modes and "full" in modes  # ladder exercised

    def test_no_context_plan_is_already_decided(self):
        rear, _ = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        plan = tracker.plan_update(rear, other=None, context_age_s=1.0)
        assert plan.update is not None
        assert plan.pair is None
        assert len(tracker.history) == 1  # recorded at plan time

    def test_absorb_update_rejects_decided_plan(self):
        rear, _ = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        plan = tracker.plan_update(rear, other=None)
        with pytest.raises(ValueError):
            tracker.absorb_update(plan, plan.update.estimate)

    def test_decided_plan_cannot_be_absorbed_again(self):
        rear, front = synthetic_pair(gap_m=30.0)
        tracker = RupsTracker(CFG, locked_context_m=150.0)
        engine = RupsEngine(CFG)
        plan = tracker.plan_update(rear, front)
        estimate = engine.estimate_relative_distance(*plan.pair)
        update = tracker.absorb_update(plan, estimate)
        assert update is not None and plan.update is update
        locked, n_history = tracker.locked, len(tracker.history)
        with pytest.raises(ValueError):
            tracker.absorb_update(plan, estimate)
        assert tracker.locked == locked
        assert len(tracker.history) == n_history

"""Prefix-equivalence differential suite for the streaming hot path.

The streaming pipeline's correctness contract: after any sequence of
ragged chunk appends, every incrementally maintained structure is
**bitwise** what a cold batch build over the same prefix produces —

* :meth:`DriveBindingIndex.extend` vs a fresh :func:`bind_scan`;
* :class:`TrajectoryBuilder` served trajectories (power, channels,
  geo) vs cold builds, across ragged chunk boundaries and truncated
  tracks;
* the served window vs any other chunking of the same measurements, and
  a rejected append changing nothing at all;
* :meth:`RupsTracker.stream_update` vs a tracker whose builder re-binds
  every chunk so far on each update (:class:`RebindingBuilder`), and vs
  :meth:`RupsTracker.plan_update` (``anchored=True``) plus the absorb
  loop over cold builds;
* the ``GeoTrajectory`` distance memos that ride along.

Everything asserts exact equality — no tolerances — in the house style
of ``tests/test_core_binding_cache.py``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import RupsConfig
from repro.core.binding import (
    ChunkRefused,
    DriveBindingIndex,
    bind_scan,
    interpolate_missing,
)
from repro.core.tracking import RupsTracker
from repro.core.trajectory import (
    MAX_QUEUED_MEASUREMENTS,
    GeoTrajectory,
    TrajectoryBuilder,
)
from repro.gsm.band import ChannelPlan
from repro.gsm.scanner import ScanStream, concat_streams
from repro.sensors.deadreckoning import EstimatedTrack


def _truncate(track: EstimatedTrack, t: float) -> EstimatedTrack:
    m = int(np.searchsorted(track.times_s, t, side="right"))
    return EstimatedTrack(
        track.times_s[:m], track.distance_m[:m], track.heading_rad[:m]
    )


def _chunk_bounds(scan, track_now) -> int:
    """Index of the first measurement beyond the track's current end."""
    return int(np.searchsorted(scan.times_s, float(track_now.times_s[-1]), side="right"))


#: Ragged cut instants [s] — tiny, large, and back-to-back chunks, some
#: of which advance the mark grid by zero marks and some by hundreds.
RAGGED_EDGES = (13.7, 14.2, 15.0, 33.0, 61.5, 62.0, 97.3, 150.0, 240.0)


def _assert_trajectories_identical(a, b) -> None:
    assert a.n_marks == b.n_marks
    assert a.geo.start_distance_m == b.geo.start_distance_m
    assert np.array_equal(a.channel_ids, b.channel_ids)
    assert np.array_equal(a.power_dbm, b.power_dbm, equal_nan=True)
    assert np.array_equal(a.geo.timestamps_s, b.geo.timestamps_s)
    assert np.array_equal(a.geo.headings_rad, b.geo.headings_rad)
    assert a.spacing_m == b.spacing_m


class TestBindingIndexExtend:
    def test_extend_matches_cold_index_at_every_prefix(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        inc_index = None
        prev_b = 0
        checked = 0
        for t_edge in RAGGED_EDGES:
            trk = _truncate(track, t_edge)
            b = _chunk_bounds(scan, trk)
            chunk = scan.slice(prev_b, b)
            prev_b = b
            if inc_index is None:
                inc_index = DriveBindingIndex(chunk, trk)
                inc_index.extend(scan.slice(b, b), trk)  # empty extend: no-op
            else:
                inc_index.extend(chunk, trk)
            cold = DriveBindingIndex(scan.slice(0, b), trk)
            assert inc_index._n_marks == cold._n_marks
            assert np.array_equal(inc_index._t_marks, cold._t_marks)
            assert np.array_equal(inc_index._headings, cold._headings)
            for length in (None, 150.0):
                try:
                    want = cold.bind(context_length_m=length)
                except ValueError as err:
                    with pytest.raises(ValueError, match=str(err).split("(")[0].strip()[:20]):
                        inc_index.bind(context_length_m=length)
                    continue
                got = inc_index.bind(context_length_m=length)
                _assert_trajectories_identical(got, want)
                checked += 1
        assert checked > 0

    def test_extend_serves_measurements_binned_past_the_old_grid(self, shared_pair):
        # A chunk measured while the track still ended mid-mark rounds
        # past the grid; it must surface once the track grows over it.
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk_a = _truncate(track, 40.0)
        b_a = _chunk_bounds(scan, trk_a)
        index = DriveBindingIndex(scan.slice(0, b_a), trk_a)
        assert any(len(st.pend_bins) for st in index._states.values()), (
            "fixture regression: no beyond-grid measurements to exercise"
        )
        trk_b = _truncate(track, 90.0)
        b_b = _chunk_bounds(scan, trk_b)
        index.extend(scan.slice(b_a, b_b), trk_b)
        cold = DriveBindingIndex(scan.slice(0, b_b), trk_b)
        _assert_trajectories_identical(index.bind(), cold.bind())

    def test_extend_rejects_non_extending_inputs(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk = _truncate(track, 60.0)
        b = _chunk_bounds(scan, trk)
        index = DriveBindingIndex(scan.slice(0, b), trk)
        with pytest.raises(ValueError, match="track must extend"):
            index.extend(scan.slice(b, b), _truncate(track, 30.0))
        with pytest.raises(ValueError, match="overlaps previously appended"):
            index.extend(scan.slice(b - 5, b), trk)
        with pytest.raises(ValueError, match="beyond the provided track"):
            index.extend(scan.slice(b, len(scan)), trk)

    @pytest.mark.parametrize("series", ["distance_m", "heading_rad"])
    def test_extend_rejects_an_interior_track_rewrite(self, shared_pair, series):
        # The old track's first and last samples stay put; only its
        # interior moves back, by up to 3 m (or 3 rad of heading).
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk1, trk2 = _truncate(track, 60.0), _truncate(track, 90.0)
        b1, b2 = _chunk_bounds(scan, trk1), _chunk_bounds(scan, trk2)
        index = DriveBindingIndex(scan.slice(0, b1), trk1)
        before = index.bind()
        m = len(trk1.times_s)
        lo, hi = m // 2, m - 10
        bump = np.zeros(len(trk2.times_s))
        bump[lo:hi] = 3.0 * np.sin(np.pi * np.arange(hi - lo) / (hi - lo))
        fields = {"distance_m": trk2.distance_m, "heading_rad": trk2.heading_rad}
        fields[series] = fields[series] - bump
        rewritten = EstimatedTrack(trk2.times_s, **fields)
        with pytest.raises(ValueError, match="track must extend"):
            index.extend(scan.slice(b1, b2), rewritten)
        assert index.track is trk1
        _assert_trajectories_identical(index.bind(), before)
        index.extend(scan.slice(b1, b2), trk2)
        cold = DriveBindingIndex(scan.slice(0, b2), trk2)
        _assert_trajectories_identical(index.bind(), cold.bind())


class TestTrajectoryBuilderPrefixEquivalence:
    def test_builder_bitwise_equals_cold_build_at_every_prefix(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        builder = TrajectoryBuilder(context_length_m=150.0)
        prev_b = 0
        checked = 0
        for t_edge in RAGGED_EDGES:
            trk = _truncate(track, t_edge)
            b = _chunk_bounds(scan, trk)
            builder.append(scan.slice(prev_b, b), trk)
            prev_b = b
            try:
                got = builder.trajectory()
            except ValueError:
                with pytest.raises(ValueError):
                    bind_scan(scan.slice(0, b), trk, context_length_m=150.0)
                continue
            want = bind_scan(scan.slice(0, b), trk, context_length_m=150.0)
            _assert_trajectories_identical(got, want)
            checked += 1
        assert checked >= 5

    def test_serve_is_chunking_invariant(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk = _truncate(track, 120.0)
        b = _chunk_bounds(scan, trk)
        one = TrajectoryBuilder()
        one.append(scan.slice(0, b), trk)
        many = TrajectoryBuilder()
        prev = 0
        for cut in (7, 8, 1003, b // 2, b):
            cut = max(min(cut, b), prev)
            many.append(scan.slice(prev, cut), trk)
            prev = cut
        if prev < b:
            many.append(scan.slice(prev, b), trk)
        _assert_trajectories_identical(one.trajectory(), many.trajectory())
        assert one.n_measurements == many.n_measurements == b

    def test_builder_rejects_off_grid_context(self):
        with pytest.raises(ValueError, match="whole multiple"):
            TrajectoryBuilder(context_length_m=150.5)


class TestResidentFillStreaming:
    """Serves come out of the index's resident fill, which ``bind()``
    refreshes over only the columns folded since the last serve, and
    equal both cold references bit for bit."""

    @staticmethod
    def _serve_and_check(builder, scan, trk, b, at_time_s, context_length_m):
        got = builder.trajectory(at_time_s=at_time_s)
        want = bind_scan(
            scan.slice(0, b),
            trk,
            at_time_s=at_time_s,
            context_length_m=context_length_m,
            interpolate=True,
        )
        _assert_trajectories_identical(got, want)
        raw = builder._index.bind(
            at_time_s=at_time_s,
            context_length_m=context_length_m,
            interpolate=False,
        )
        _assert_trajectories_identical(got, interpolate_missing(raw))
        return got

    @pytest.mark.parametrize("context_length_m", [150.0, 151.0])
    def test_ragged_appends_with_serves_between(self, edge_drive, context_length_m):
        scan, track = edge_drive
        rng = np.random.default_rng(int(context_length_m))
        builder = TrajectoryBuilder(context_length_m=context_length_m)
        served = []
        prev_b = appends = most_appends = same_column = resumed = 0
        t_end = 0.0
        while t_end < 100.0:
            t_end = min(t_end + float(rng.choice([0.03, 0.1, 0.4, 1.3, 4.0])), 100.0)
            trk = _truncate(track, t_end)
            b = _chunk_bounds(scan, trk)
            if rng.random() < 0.3:
                # Hold the newest measurements back for a later chunk.
                b = prev_b + int(rng.integers(0, b - prev_b + 1))
            if 0 < prev_b < b:
                d = 8.0 * scan.times_s[prev_b - 1 : prev_b + 1]
                same_column += int(np.floor(d[0] + 0.5) == np.floor(d[1] + 0.5))
            builder.append(scan.slice(prev_b, b), trk)
            prev_b = b
            appends += 1
            if t_end < 20.0 or (rng.random() < 0.75 and t_end < 100.0):
                continue  # the fleet pattern: many appends, one serve
            most_appends = max(most_appends, appends)
            appends = 0
            at_time_s = None if rng.random() < 0.5 else t_end - float(rng.random())
            got = self._serve_and_check(
                builder, scan, trk, b, at_time_s, context_length_m
            )
            # Channel 2 resumes at 65 s after 360 silent marks.
            resumed += int(65.0 < t_end < 80.0)
            served.append((got, got.power_dbm.copy()))
        assert len(served) >= 10
        assert most_appends >= 8 and same_column > 0 and resumed > 0
        # Later appends never touch what was served before them.
        for got, power in served:
            assert np.array_equal(got.power_dbm, power, equal_nan=True)

    def test_serve_twice_without_appending(self, edge_drive):
        scan, track = edge_drive
        trk = _truncate(track, 70.0)
        b = _chunk_bounds(scan, trk)
        builder = TrajectoryBuilder(context_length_m=150.0)
        builder.append(scan.slice(0, b), trk)
        first = self._serve_and_check(builder, scan, trk, b, None, 150.0)
        again = self._serve_and_check(builder, scan, trk, b, None, 150.0)
        assert again.power_dbm is not first.power_dbm


def _reversed(chunk):
    """The chunk's measurements in reverse (unsorted) order."""
    return replace(
        chunk,
        times_s=chunk.times_s[::-1],
        channel_indices=chunk.channel_indices[::-1],
        radio_ids=chunk.radio_ids[::-1],
        s_true_m=chunk.s_true_m[::-1],
        rssi_dbm=chunk.rssi_dbm[::-1],
    )


class TestBuilderAppendIsAtomic:
    """A rejected append names its cause, leaves count and served
    window untouched, and the stream continues as if the bad chunk never
    arrived."""

    @staticmethod
    def _state(builder):
        try:
            served = builder.trajectory()
        except ValueError:
            served = None
        return builder.n_measurements, served

    @staticmethod
    def _assert_state(builder, state) -> None:
        n_measurements, served = state
        assert builder.n_measurements == n_measurements
        if served is None:
            with pytest.raises(ValueError, match="no measurements"):
                builder.trajectory()
        else:
            _assert_trajectories_identical(builder.trajectory(), served)

    def _reject_each(self, builder, bad: dict) -> None:
        state = self._state(builder)
        for name, (chunk, trk, cause) in bad.items():
            try:
                builder.append(chunk, trk)
            except ChunkRefused as refused:
                assert refused.cause == cause, name
            else:
                pytest.fail(f"{name} chunk was accepted")
            self._assert_state(builder, state)

    def test_rejected_first_append(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk = _truncate(track, 60.0)
        b = _chunk_bounds(scan, trk)
        good = scan.slice(0, b)
        builder = TrajectoryBuilder(context_length_m=150.0)
        self._reject_each(
            builder,
            {
                "unsorted": (_reversed(good), trk, "unsorted"),
                "beyond track": (scan.slice(0, b + 50), trk, "beyond_track"),
            },
        )
        builder.append(good, trk)
        clean = TrajectoryBuilder(context_length_m=150.0)
        clean.append(good, trk)
        self._assert_state(builder, self._state(clean))

    def test_rejected_later_append(self, shared_pair):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk1, trk2 = _truncate(track, 60.0), _truncate(track, 90.0)
        b1, b2 = _chunk_bounds(scan, trk1), _chunk_bounds(scan, trk2)
        first, nxt = scan.slice(0, b1), scan.slice(b1, b2)
        plan = scan.plan
        relabelled = ChannelPlan(
            name="relabelled",
            arfcns=plan.arfcns + 10_000,
            frequencies_hz=plan.frequencies_hz,
        )
        rewritten = EstimatedTrack(
            trk2.times_s, trk2.distance_m + 1.0, trk2.heading_rad
        )
        builder = TrajectoryBuilder(context_length_m=150.0)
        builder.append(first, trk1)
        self._reject_each(
            builder,
            {
                "unsorted": (_reversed(nxt), trk2, "unsorted"),
                "overlapping": (scan.slice(b1 - 5, b2), trk2, "overlap"),
                "beyond track": (scan.slice(b1, b2 + 50), trk2, "beyond_track"),
                "fewer channels": (
                    replace(nxt, plan=plan.subset(np.arange(plan.n_channels - 1))),
                    trk2,
                    "plan_mismatch",
                ),
                "other channels": (
                    replace(nxt, plan=relabelled), trk2, "plan_mismatch"
                ),
                "track not extended": (nxt, rewritten, "track_rewrite"),
            },
        )
        builder.append(nxt, trk2)
        clean = TrajectoryBuilder(context_length_m=150.0)
        clean.append(first, trk1)
        clean.append(nxt, trk2)
        self._assert_state(builder, self._state(clean))


def _count_folds(count_calls):
    """Count the folds of every builder's queue, and the measurements
    each one folds."""
    return count_calls(
        TrajectoryBuilder,
        "_fold",
        size=lambda builder: sum(len(chunk) for chunk in builder._queue),
    )


@pytest.fixture(scope="module")
def long_drive(small_plan):
    """A synthetic 1,250 s drive with stops and ragged measurement times
    on six channels (read-only).  Returns ``(scan, track)``."""
    rng = np.random.default_rng(1250)
    dt = 0.1
    t = np.arange(0.0, 1250.0 + dt / 2, dt)
    # 8 m/s on average, standing still about 3 % of the time.
    speed = np.clip(8.0 + 9.0 * np.sin(t / 23.0) * np.sin(t / 61.0), 0.0, None)
    distance = np.concatenate(([0.0], np.cumsum(speed[:-1] * dt)))
    track = EstimatedTrack(
        times_s=t, distance_m=distance, heading_rad=0.4 * np.sin(t / 90.0)
    )
    times = np.sort(rng.uniform(0.0, 1250.0, 30_000))
    scan = ScanStream(
        times_s=times,
        channel_indices=rng.integers(0, 6, times.size),
        radio_ids=np.zeros(times.size, dtype=np.int64),
        s_true_m=np.interp(times, t, distance),
        rssi_dbm=rng.uniform(-100.0, -50.0, times.size),
        plan=small_plan.subset(np.arange(6), name="long-6"),
    )
    return scan, track


def _dipping_drive(plan):
    """A 4 s track whose estimated distance dips by 4e-10 m (inside the
    track's tolerance) across a half mark between 1 s and 2 s, and one
    measurement at each of 0.5, 1, 2 and 3 s."""
    track = EstimatedTrack(
        times_s=np.arange(5.0),
        distance_m=np.array([0.0, 5.5 + 2e-10, 5.5 - 2e-10, 12.0, 20.0]),
        heading_rad=np.zeros(5),
    )
    times = np.array([0.5, 1.0, 2.0, 3.0])
    scan = ScanStream(
        times_s=times,
        channel_indices=np.zeros(4, dtype=np.int64),
        radio_ids=np.zeros(4, dtype=np.int64),
        s_true_m=np.zeros(4),
        rssi_dbm=np.full(4, -80.0),
        plan=plan,
    )
    return scan, track


class TestBuilderQueue:
    """``append`` validates and queues; a serve folds the whole queue in
    one pass, and only a full queue folds at an append."""

    def test_appends_fold_only_a_full_queue_and_a_serve_folds_once(
        self, shared_pair, count_calls
    ):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        folds = _count_folds(count_calls)
        builder = TrajectoryBuilder(context_length_m=150.0)
        prev_b = k = 0
        while prev_b < 2.5 * MAX_QUEUED_MEASUREMENTS:
            k += 1
            trk = _truncate(track, 0.5 * k)
            b = _chunk_bounds(scan, trk)
            builder.append(scan.slice(prev_b, b), trk)
            prev_b = b
        # k appends of small chunks: an append folds only a full queue,
        # so at most once per MAX_QUEUED_MEASUREMENTS appended.
        assert 0 < folds.calls <= prev_b // MAX_QUEUED_MEASUREMENTS < k
        assert min(folds.sizes) >= MAX_QUEUED_MEASUREMENTS
        assert builder.n_measurements == prev_b
        folded = sum(folds.sizes)
        assert folded < prev_b, "fixture regression: nothing left queued"
        folds.reset()
        got = builder.trajectory()
        assert folds.sizes == [prev_b - folded]
        folds.reset()
        again = builder.trajectory()
        assert folds.calls == 0
        want = bind_scan(scan.slice(0, prev_b), trk, context_length_m=150.0)
        _assert_trajectories_identical(got, want)
        _assert_trajectories_identical(again, want)

    def test_refusals_leave_a_queued_chunk_as_it_was(
        self, shared_pair, count_calls
    ):
        rec = shared_pair.rear
        scan, track = rec.scan, rec.estimated
        trk1, trk2, trk3 = (_truncate(track, t) for t in (60.0, 70.0, 80.0))
        b1, b2, b3 = (_chunk_bounds(scan, trk) for trk in (trk1, trk2, trk3))
        builder = TrajectoryBuilder(context_length_m=150.0)
        builder.append(scan.slice(0, b1), trk1)
        builder.trajectory()  # folds the first chunk
        queued = scan.slice(b1, b2)
        assert len(queued) < MAX_QUEUED_MEASUREMENTS
        builder.append(queued, trk2)
        # Only samples the queued track added move: checked against the
        # folded track alone, this track would pass.
        m1, m2 = len(trk1.times_s), len(trk2.times_s)
        heading = trk3.heading_rad.copy()
        heading[m1 + 1 : m2 - 1] += 0.1
        rewritten = EstimatedTrack(trk3.times_s, trk3.distance_m, heading)
        assert scan.times_s[b2 - 20] < scan.times_s[b2 - 1]
        folds = _count_folds(count_calls)
        for chunk, trk, cause in (
            (scan.slice(b2 - 20, b3), trk3, "overlap"),
            (scan.slice(b2, b3), rewritten, "track_rewrite"),
        ):
            with pytest.raises(ChunkRefused) as refused:
                builder.append(chunk, trk)
            assert refused.value.cause == cause
            assert len(builder._queue) == 1 and builder._queue[0] is queued
            assert builder.n_measurements == b2
            assert folds.calls == 0
        want = bind_scan(scan.slice(0, b2), trk2, context_length_m=150.0)
        _assert_trajectories_identical(builder.trajectory(), want)

    def test_bins_running_backwards_are_refused_at_the_append(self, small_plan):
        scan, track = _dipping_drive(small_plan)
        with pytest.raises(ChunkRefused) as refused:
            TrajectoryBuilder(context_length_m=2.0).append(scan, track)
        assert refused.value.cause == "unsorted"
        # Across a chunk boundary: the chunk that steps back is refused.
        builder = TrajectoryBuilder(context_length_m=2.0)
        builder.append(scan.slice(0, 2), track)
        with pytest.raises(ChunkRefused) as refused:
            builder.append(scan.slice(2, 4), track)
        assert refused.value.cause == "unsorted"
        assert builder.n_measurements == 2
        # A cold index still builds the stream; it only refuses to grow.
        index = DriveBindingIndex(scan, track)
        _assert_trajectories_identical(
            index.bind(), bind_scan(scan, track)
        )
        with pytest.raises(ChunkRefused, match="cannot extend") as refused:
            index.extend(scan.slice(4, 4), track)
        assert refused.value.cause == "unsorted"

    def test_long_drive_serves_at_ragged_points(self, long_drive, count_calls):
        scan, track = long_drive
        rng = np.random.default_rng(7)
        folds = _count_folds(count_calls)
        builder = TrajectoryBuilder(context_length_m=150.0)
        prev_b = last_served_b = longest = served = 0
        t_end = 0.0
        next_serve = 30.0
        while t_end < 1250.0:
            t_end = min(t_end + 0.5, 1250.0)
            trk = _truncate(track, t_end)
            b = _chunk_bounds(scan, trk)
            builder.append(scan.slice(prev_b, b), trk)
            prev_b = b
            if t_end < next_serve and t_end < 1250.0:
                continue
            # Ragged gaps, and one 400 s stretch with no serve at all.
            gap = 400.0 if served == 20 else rng.choice([0.5, 3.0, 11.0, 17.5, 40.0])
            next_serve = t_end + float(gap)
            longest = max(longest, b - last_served_b)
            last_served_b = b
            at_time_s = None if rng.random() < 0.5 else t_end - float(rng.random())
            want = bind_scan(
                scan.slice(0, b), trk, at_time_s=at_time_s, context_length_m=150.0
            )
            _assert_trajectories_identical(
                builder.trajectory(at_time_s=at_time_s), want
            )
            served += 1
        assert served >= 40
        assert longest > 2 * MAX_QUEUED_MEASUREMENTS
        # 2,500 appends, yet far fewer folds: one per serve at most,
        # plus one per full queue.
        assert folds.calls <= served + len(scan) // MAX_QUEUED_MEASUREMENTS


class RebindingBuilder:
    """Test double for the tracker's resident builder: every serve
    re-binds the concatenation of all chunks so far with ``bind_scan``
    — the cold rebuild the streaming path must match bit for bit."""

    def __init__(self, config: RupsConfig) -> None:
        self.config = config
        self.chunks = []
        self.track = None

    def append(self, chunk, track) -> None:
        self.chunks.append(chunk)
        self.track = track

    def trajectory(self, at_time_s=None):
        return bind_scan(
            concat_streams(self.chunks),
            self.track,
            at_time_s=at_time_s,
            context_length_m=self.config.context_length_m,
            spacing_m=self.config.spacing_m,
        )


def _tracker(config: RupsConfig, rebuild: bool = False) -> RupsTracker:
    """A tracker; with ``rebuild`` its stream is re-bound on every update."""
    tracker = RupsTracker(config)
    if rebuild:
        tracker._builder = RebindingBuilder(config)
    return tracker


class TestTrackerStreaming:
    def _run(self, shared_pair, shared_engine, rebuild=False):
        cfg = RupsConfig(context_length_m=600.0, window_channels=30)
        rear, front = shared_pair.rear, shared_pair.front
        tracker = _tracker(cfg, rebuild)
        scan, track = rear.scan, rear.estimated
        t0, t1 = shared_pair.query_window(context_length_m=600.0)
        prev_b = 0
        updates = []
        for t in np.arange(t0, t1, 10.0):
            trk = _truncate(track, float(t))
            b = _chunk_bounds(scan, trk)
            chunk = scan.slice(prev_b, b)
            prev_b = b
            other = shared_engine.build_trajectory(
                front.scan, front.estimated, at_time_s=float(t)
            )
            updates.append(
                (tracker.stream_update(chunk, trk, other=other), b, trk, float(t))
            )
        return tracker, updates

    @staticmethod
    def _assert_updates_identical(a, b) -> None:
        assert a.mode == b.mode
        assert a.locked_after == b.locked_after
        assert a.degraded == b.degraded
        assert a.estimate.distance_m == b.estimate.distance_m
        assert a.estimate.cause == b.estimate.cause
        assert a.estimate.per_syn_m == b.estimate.per_syn_m
        assert [
            (s.score, s.own_distance_m, s.other_distance_m, s.query_side)
            for s in a.estimate.syn_points
        ] == [
            (s.score, s.own_distance_m, s.other_distance_m, s.query_side)
            for s in b.estimate.syn_points
        ]

    def test_stream_update_bitwise_equals_rebuild_per_update(
        self, shared_pair, shared_engine
    ):
        _, incremental = self._run(shared_pair, shared_engine)
        rebuilt, rebuild = self._run(shared_pair, shared_engine, rebuild=True)
        assert len(rebuilt._builder.chunks) == len(rebuild)  # the double served
        assert len(incremental) == len(rebuild)
        resolved = 0
        for (a, *_), (b, *_) in zip(incremental, rebuild):
            self._assert_updates_identical(a, b)
            resolved += a.estimate.resolved
        assert resolved > 0

    def test_stream_update_equals_anchored_plan_absorb_loop(
        self, shared_pair, shared_engine
    ):
        """stream_update is plan_update(anchored=True) plus the absorb
        loop, over own trajectories built cold from each prefix."""
        _, streamed = self._run(shared_pair, shared_engine)
        cfg = RupsConfig(context_length_m=600.0, window_channels=30)
        split = RupsTracker(cfg)
        rear, front = shared_pair.rear, shared_pair.front
        resolved = anchored = 0
        for streamed_update, b, trk, t in streamed:
            own = split._engine.build_trajectory(rear.scan.slice(0, b), trk)
            other = shared_engine.build_trajectory(
                front.scan, front.estimated, at_time_s=t
            )
            plan = split.plan_update(own, other, anchored=True)
            anchored += plan.anchored
            while plan.update is None:
                (estimate,) = split._engine.estimate_relative_distance_batch(
                    [plan.pair], anchors=[plan.anchor]
                )
                split.absorb_update(plan, estimate)
            self._assert_updates_identical(streamed_update, plan.update)
            resolved += plan.update.estimate.resolved
        assert resolved > 0
        assert anchored > 0

    def test_anchored_session_locks_and_anchors(self, shared_pair, shared_engine):
        tracker, updates = self._run(shared_pair, shared_engine)
        assert any(u.locked_after for u, *_ in updates)
        assert tracker._anchor is not None
        assert tracker.last_distance_m() is not None


class TestStreamReset:
    """reset() forgets the neighbour but never the own-vehicle stream."""

    CFG = RupsConfig(context_length_m=600.0, window_channels=30)

    def test_reset_preserves_builder_and_clears_session(
        self, shared_pair, shared_engine
    ):
        rear, front = shared_pair.rear, shared_pair.front
        tracker = RupsTracker(self.CFG, staleness_budget_s=1.0)
        scan, track = rear.scan, rear.estimated
        t0, t1 = shared_pair.query_window(context_length_m=600.0)
        times = [float(t) for t in np.arange(t0, t1, 10.0)]

        def step(t, other, age=0.0):
            trk = _truncate(track, t)
            b = _chunk_bounds(scan, trk)
            chunk = scan.slice(step.prev_b, b)
            step.prev_b = b
            return tracker.stream_update(
                chunk, trk, other=other, context_age_s=age
            )

        step.prev_b = 0
        # Drive until the session locks onto the neighbour.
        i = 0
        while not tracker.locked:
            assert i < len(times) - 2, "session never locked"
            step(
                times[i],
                shared_engine.build_trajectory(
                    front.scan, front.estimated, at_time_s=times[i]
                ),
            )
            i += 1
        builder = tracker._builder
        assert builder is not None
        # Lossy exchange: the context ages past budget, the lock drops.
        u = step(times[i], other=None, age=5.0)
        i += 1
        assert u.degraded and not u.locked_after

        # New neighbour: session state goes, the own stream survives.
        tracker.reset()
        assert tracker._builder is builder
        assert tracker._anchor is None
        assert tracker._last_context is None
        assert tracker.history == []

        # The surviving builder keeps serving: the next fresh context
        # resolves out of state accumulated *before* the reset.
        u = step(
            times[i],
            shared_engine.build_trajectory(
                front.scan, front.estimated, at_time_s=times[i]
            ),
        )
        assert u.estimate.resolved
        assert tracker.locked

    def test_reset_continuation_bitwise_matches_rebuild(
        self, shared_pair, shared_engine
    ):
        """A mid-stream reset() must not disturb prefix equivalence.

        Run the incremental builder and the rebuild-per-update baseline
        through the identical chunk sequence, both reset halfway: every
        update before and after the reset must stay bit-identical.
        """

        def run(rebuild=False):
            rear, front = shared_pair.rear, shared_pair.front
            tracker = _tracker(self.CFG, rebuild)
            scan, track = rear.scan, rear.estimated
            t0, t1 = shared_pair.query_window(context_length_m=600.0)
            times = [float(t) for t in np.arange(t0, t1, 10.0)]
            reset_at = len(times) // 2
            prev_b = 0
            updates = []
            for i, t in enumerate(times):
                trk = _truncate(track, t)
                b = _chunk_bounds(scan, trk)
                chunk = scan.slice(prev_b, b)
                prev_b = b
                if i == reset_at:
                    tracker.reset()
                other = shared_engine.build_trajectory(
                    front.scan, front.estimated, at_time_s=t
                )
                updates.append(tracker.stream_update(chunk, trk, other=other))
            assert isinstance(tracker._builder, RebindingBuilder) is rebuild
            return updates

        incremental = run()
        rebuild = run(rebuild=True)
        assert len(incremental) == len(rebuild)
        resolved = 0
        for a, b in zip(incremental, rebuild):
            TestTrackerStreaming._assert_updates_identical(a, b)
            resolved += a.estimate.resolved
        assert resolved > 0


class TestSatelliteFixes:
    def test_geo_distance_memos(self):
        geo = GeoTrajectory(
            timestamps_s=np.arange(5.0),
            headings_rad=np.zeros(5),
            spacing_m=1.0,
            start_distance_m=10.0,
        )
        d1 = geo.distances_m
        assert d1 is geo.distances_m  # memoised, not recomputed
        assert np.array_equal(d1, 10.0 + np.arange(5.0))
        assert geo.end_distance_m == 14.0
        assert geo.end_distance_m == geo.end_distance_m

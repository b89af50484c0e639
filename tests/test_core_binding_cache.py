"""Differential suite: DriveBindingIndex / engine builds vs the plain path.

The binding index is only allowed to exist because it is *bitwise*
identical to re-running :func:`bind_scan` per query: same bins, same
accumulation order, same NaN placement, same interpolation.  These tests
enforce that, for the index itself and for the engine builds served
from it.
"""

import numpy as np
import pytest

from repro.core.binding import DriveBindingIndex, bind_scan
from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine
from repro.gsm.scanner import RadioGroup, scan_drive
from repro.sensors.deadreckoning import EstimatedTrack


def _track_with_stop(duration=80.0):
    """Varying speed with a dead stop — exercises the t_marks clamping."""
    t = np.arange(0.0, duration, 0.1)
    speed = 9.0 + 3.0 * np.sin(t / 7.0)
    speed[(t > 30.0) & (t < 36.0)] = 0.0
    dist = np.concatenate(([0.0], np.cumsum(speed[:-1] * np.diff(t))))
    return EstimatedTrack(times_s=t, distance_m=dist, heading_rad=0.02 * t)


@pytest.fixture(scope="module")
def scan_and_track(small_field, small_plan):
    track = _track_with_stop()
    group = RadioGroup(small_plan, n_radios=3)
    scan = scan_drive(
        small_field,
        lambda tt: np.asarray(track.distance_at(tt)),
        group,
        0.0,
        78.0,
        rng=5,
    )
    return scan, track


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.power_dbm, b.power_dbm, equal_nan=True)
    assert np.array_equal(a.channel_ids, b.channel_ids)
    assert np.array_equal(a.geo.timestamps_s, b.geo.timestamps_s)
    assert np.array_equal(a.geo.headings_rad, b.geo.headings_rad)
    assert a.geo.start_distance_m == b.geo.start_distance_m
    assert a.geo.spacing_m == b.geo.spacing_m


class TestDriveBindingIndexDifferential:
    @pytest.mark.parametrize("at_time_s", [25.0, 33.3, 50.0, 70.1, None])
    @pytest.mark.parametrize("context_length_m", [None, 150.0, 400.0])
    @pytest.mark.parametrize("interpolate", [False, True])
    def test_bitwise_equal_to_bind_scan(
        self, scan_and_track, at_time_s, context_length_m, interpolate
    ):
        scan, track = scan_and_track
        index = DriveBindingIndex(scan, track)
        direct = bind_scan(
            scan,
            track,
            at_time_s=at_time_s,
            context_length_m=context_length_m,
            interpolate=interpolate,
        )
        cached = index.bind(
            at_time_s=at_time_s,
            context_length_m=context_length_m,
            interpolate=interpolate,
        )
        assert_bitwise_equal(direct, cached)

    def test_too_short_raises_like_bind_scan(self, scan_and_track):
        scan, track = scan_and_track
        index = DriveBindingIndex(scan, track)
        with pytest.raises(ValueError, match="not enough travelled distance"):
            index.bind(at_time_s=0.1)
        with pytest.raises(ValueError, match="not enough travelled distance"):
            bind_scan(scan, track, at_time_s=0.1)

    def test_off_grid_context_refused(self, scan_and_track):
        scan, track = scan_and_track
        index = DriveBindingIndex(scan, track)
        with pytest.raises(ValueError, match="off-grid"):
            index.bind(at_time_s=50.0, context_length_m=100.5)

    def test_invalid_spacing(self, scan_and_track):
        scan, track = scan_and_track
        with pytest.raises(ValueError):
            DriveBindingIndex(scan, track, spacing_m=0.0)

    @pytest.mark.parametrize("at_time_s", [41.0, 41.05, 52.3, None])
    @pytest.mark.parametrize("context_length_m", [None, 149.0, 150.0])
    def test_half_distance_measurements_follow_window_parity(
        self, small_field, small_plan, at_time_s, context_length_m
    ):
        """Measurements exactly halfway between marks bin by window parity.

        A constant 10 m/s track puts many measurements at exact ``.5``
        estimated distances, where ``np.round``'s half-to-even rule makes
        the bin depend on the parity of the window's first mark.  The
        index must reproduce bind_scan's choice for both parities (the
        149 m / 150 m contexts select windows with opposite start
        parities for the same instant).
        """
        t = np.arange(0.0, 58.0, 0.1)
        track = EstimatedTrack(
            times_s=t, distance_m=10.0 * t, heading_rad=np.zeros(t.size)
        )
        group = RadioGroup(small_plan, n_radios=3)
        scan = scan_drive(
            small_field, lambda tt: 10.0 * np.asarray(tt), group, 0.0, 58.0, rng=9
        )
        index = DriveBindingIndex(scan, track)
        direct = bind_scan(
            scan, track, at_time_s=at_time_s, context_length_m=context_length_m
        )
        cached = index.bind(
            at_time_s=at_time_s, context_length_m=context_length_m
        )
        assert_bitwise_equal(direct, cached)


class TestEngineTrajectoryCache:
    def test_cached_equals_uncached(self, scan_and_track):
        scan, track = scan_and_track
        cached_engine = RupsEngine(RupsConfig(context_length_m=300.0))
        for tq in (30.0, 45.5, 62.0):
            assert_bitwise_equal(
                bind_scan(
                    scan,
                    track,
                    at_time_s=tq,
                    context_length_m=300.0,
                    interpolate=True,
                ),
                cached_engine.build_trajectory(scan, track, at_time_s=tq),
            )

    def test_off_grid_context_falls_back(self, scan_and_track):
        scan, track = scan_and_track
        engine = RupsEngine(RupsConfig(context_length_m=300.0))
        traj = engine.build_trajectory(
            scan, track, at_time_s=50.0, context_length_m=120.7
        )
        direct = bind_scan(
            scan, track, at_time_s=50.0, context_length_m=120.7
        )
        assert_bitwise_equal(direct, traj)

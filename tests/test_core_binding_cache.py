"""Differential suite: DriveBindingIndex / engine builds vs the plain path.

The binding index is only allowed to exist because it is *bitwise*
identical to re-running :func:`bind_scan` per query: same bins, same
accumulation order, same NaN placement, same interpolation.  These tests
enforce that, for the index itself and for the engine builds served
from it.
"""

import numpy as np
import pytest

from repro.core.binding import DriveBindingIndex, bind_scan, interpolate_missing
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


def _bind_both_ways(index, scan, track, at_time_s, context_length_m):
    """The index's filled and raw windows; the filled one is checked
    bitwise against a cold ``bind_scan`` and the raw one's cold fill."""
    got = index.bind(at_time_s=at_time_s, context_length_m=context_length_m)
    raw = index.bind(
        at_time_s=at_time_s, context_length_m=context_length_m, interpolate=False
    )
    assert_bitwise_equal(
        got,
        bind_scan(
            scan,
            track,
            at_time_s=at_time_s,
            context_length_m=context_length_m,
            interpolate=True,
        ),
    )
    assert_bitwise_equal(got, interpolate_missing(raw))
    return got, raw


class TestResidentFillEdges:
    """The window copied out of the index's resident fill, with only its
    edges re-filled, is the window filled on its own."""

    def test_first_column_inside_a_gap_bracketed_from_before(self, edge_drive):
        scan, track = edge_drive
        index = DriveBindingIndex(scan, track)
        # Channel 1 is measured at marks 16 and 248: the window over
        # marks 100-250 starts inside that gap.
        got, raw = _bind_both_ways(index, scan, track, 31.25, 150.0)
        assert got.geo.start_distance_m == 100.0
        assert np.isnan(raw.power_dbm[1, :148]).all()
        assert not np.isnan(raw.power_dbm[1, 148])
        whole = index.bind(at_time_s=31.25)
        # The grid lerps from mark 16; the window clamps to mark 248.
        assert whole.power_dbm[1, 100] != got.power_dbm[1, 0]
        assert np.all(got.power_dbm[1, :148] == raw.power_dbm[1, 148])

    @pytest.mark.parametrize("context_length_m", [150.0, 151.0])
    def test_query_instants_that_empty_or_change_the_last_column(
        self, edge_drive, context_length_m
    ):
        scan, track = edge_drive
        index = DriveBindingIndex(scan, track)
        emptied = changed = 0
        parities = set()
        for at_time_s in np.arange(30.0, 40.0, 1.0 / 48.0):
            got, raw = _bind_both_ways(
                index, scan, track, float(at_time_s), context_length_m
            )
            first = int(round(got.geo.start_distance_m))
            parities.add(first % 2)
            # The grid's last window column, before the time filter.
            st = index._states[first % 2]
            col = first + got.n_marks - 1 - index._mark0
            with np.errstate(invalid="ignore", divide="ignore"):
                full = st.sums[:, col] / st.counts[:, col]
            last = raw.power_dbm[:, -1]
            emptied += int(np.sum(np.isnan(last) & (st.counts[:, col] > 0)))
            changed += int(np.sum(~np.isnan(last) & (last != full)))
        assert parities == {0, 1}
        assert emptied > 0 and changed > 0

    def test_channels_without_a_measurement_in_the_window_stay_nan(
        self, edge_drive
    ):
        scan, track = edge_drive
        index = DriveBindingIndex(scan, track)
        got, raw = _bind_both_ways(index, scan, track, 90.0, 150.0)
        # Channel 4 stops at 15 s (120 m), channel 3 is never measured.
        assert np.isnan(got.power_dbm[[3, 4]]).all()
        whole = index.bind(at_time_s=90.0)
        assert not np.isnan(whole.power_dbm[4]).any()
        assert np.isnan(whole.power_dbm[3]).all()

    def test_every_window_of_the_drive(self, edge_drive):
        # Windows in both parities, across the silence of channel 2 and
        # past the end of channel 4, the whole drive included.
        scan, track = edge_drive
        index = DriveBindingIndex(scan, track)
        for at_time_s in np.arange(1.0, 100.0, 2.3):
            for context_length_m in (None, 150.0, 151.0, 600.0):
                _bind_both_ways(
                    index, scan, track, float(at_time_s), context_length_m
                )


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

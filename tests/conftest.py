"""Shared fixtures.

Field construction and drive simulation are the expensive pieces, so a
small channel plan, one small field, and one short two-car drive are
built once per session and shared by every test that needs them.  Tests
must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gsm.band import RGSM900, ChannelPlan
from repro.gsm.field import FieldConfig, make_straight_field
from repro.roads.types import RoadType


@pytest.fixture(scope="session")
def small_plan() -> ChannelPlan:
    """A 39-channel slice of R-GSM-900: fast but spectrally realistic."""
    return RGSM900.subset(np.arange(0, RGSM900.n_channels, 5), name="test-39")


@pytest.fixture(scope="session")
def small_field(small_plan):
    """A 600 m urban field on the small plan (read-only)."""
    return make_straight_field(
        length_m=600.0,
        road_type=RoadType.URBAN_4LANE,
        plan=small_plan,
        seed=1234,
    )


@pytest.fixture(scope="session")
def fast_field_config() -> FieldConfig:
    """Short-horizon field config for tests that build their own fields."""
    return FieldConfig(horizon_s=600.0)


@pytest.fixture(scope="session")
def shared_pair(small_plan):
    """One short two-car drive, shared across integration-style tests."""
    from repro.experiments.traces import drive_pair

    return drive_pair(
        road_type=RoadType.URBAN_4LANE,
        duration_s=240.0,
        n_radios=4,
        plan=small_plan,
        seed=99,
    )


@pytest.fixture(scope="session")
def shared_engine():
    """RUPS engine with a reduced context so the shared pair resolves early."""
    from repro.core import RupsConfig, RupsEngine

    return RupsEngine(
        RupsConfig(context_length_m=600.0, window_channels=30)
    )


@pytest.fixture(scope="session")
def edge_drive(small_plan):
    """A synthetic 100 s drive at 8 m/s whose schedule reaches every edge
    of the gap fill (read-only).

    Measurements sit on track samples 1/16 s apart or 1/32 s after one,
    so their estimated distances are exact half or quarter marks (half
    marks bin by window parity).  Channel 0 is dense, with two
    measurements a quarter mark apart in every fifth bin; channel 1 is
    measured at four marks only, hundreds of marks apart; channel 2 is
    silent from 20 s to 65 s (360 marks) and then measured again;
    channel 3 is never measured; channel 4 only in the first 15 s;
    channel 5 is sparse, on quarter marks.  Returns ``(scan, track)``.
    """
    from repro.gsm.scanner import ScanStream
    from repro.sensors.deadreckoning import EstimatedTrack

    plan = small_plan.subset(np.arange(6), name="edge-6")
    dt = 1.0 / 16.0
    t = np.arange(0.0, 100.0 + dt / 2, dt)
    track = EstimatedTrack(
        times_s=t, distance_m=8.0 * t, heading_rad=np.zeros(t.size)
    )
    ticks = np.arange(t.size - 1)
    schedule = [  # (channel, sample ticks, offset [s])
        (0, ticks[ticks % 5 < 2], 0.0),
        (0, ticks[ticks % 5 == 1], dt / 2),
        (1, np.array([32, 496, 529, 960]), 0.0),
        (2, ticks[(ticks % 7 == 3) & ((ticks < 320) | (ticks > 1040))], 0.0),
        (4, ticks[(ticks % 6 == 0) & (ticks < 240)], 0.0),
        (5, ticks[ticks % 9 == 4], dt / 2),
    ]
    times = np.concatenate([t[tk] + off for _, tk, off in schedule])
    chans = np.concatenate(
        [np.full(tk.size, c, dtype=np.int64) for c, tk, _ in schedule]
    )
    order = np.lexsort((chans, times))
    times = times[order]
    scan = ScanStream(
        times_s=times,
        channel_indices=chans[order],
        radio_ids=np.zeros(times.size, dtype=np.int64),
        s_true_m=8.0 * times,
        rssi_dbm=np.random.default_rng(11).uniform(-100.0, -50.0, times.size),
        plan=plan,
    )
    return scan, track

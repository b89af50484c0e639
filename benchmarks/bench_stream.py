"""Streaming hot-path contract: incremental updates vs rebuild-per-update.

The performance contract of the ISSUE-8 streaming pipeline, recorded to
``benchmarks/results/t-stream.txt``:

* Replaying a >= 2000-mark drive one tracking period at a time through
  :meth:`RupsTracker.stream_update` (resident builder + anchored suffix
  search) must beat the naive rebuild-per-update baseline — a cold
  :func:`~repro.core.binding.bind_scan` of the *entire* accumulated
  scan stream and a fresh engine's full double-sided estimate at every
  tick — by >= 10x mean wall clock per update.
* The baseline is sampled (it is quadratic in drive length by
  construction); the incremental path is timed over every event.

Correctness is not asserted here — ``tests/test_streaming_prefix.py``
proves the incremental path bit-identical to batch rebuilds; this file
only guards the speed that justifies it.
"""

import time

import numpy as np
import pytest

from repro.core.binding import bind_scan
from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine
from repro.core.tracking import RupsTracker
from repro.core.trajectory import TrajectoryBuilder
from repro.experiments.stream import event_grid
from repro.experiments.traces import drive_pair
from repro.gsm.band import RGSM900
from repro.roads.types import RoadType
from repro.sensors.deadreckoning import EstimatedTrack

UPDATE_PERIOD_S = 0.5
MIN_MARKS = 2000
N_BASELINE_SAMPLES = 8


@pytest.fixture(scope="module")
def stream_inputs():
    plan = RGSM900.subset(np.arange(0, RGSM900.n_channels, 5), name="bench-39")
    # Paper-default geometry (1 km context, 85 m windows): the contract is
    # measured at the scale the tracker actually runs, not the reduced
    # fixtures the unit tests use for speed.
    config = RupsConfig()
    pair = drive_pair(
        road_type=RoadType.URBAN_4LANE,
        duration_s=300.0,
        n_radios=4,
        plan=plan,
        seed=7,
    )
    return config, pair


def _cut(scan, trk: EstimatedTrack) -> int:
    return int(np.searchsorted(scan.times_s, float(trk.times_s[-1]), side="right"))


def test_stream_update_speedup_contract(record_result, stream_inputs):
    config, pair = stream_inputs
    rear, front = pair.rear, pair.front
    t0, t1 = pair.query_window(context_length_m=config.context_length_m)
    events = event_grid(t0, t1, UPDATE_PERIOD_S)

    # -- incremental: every event through the resident builders --------
    tracker = RupsTracker(config)
    peer = TrajectoryBuilder(
        spacing_m=config.spacing_m, context_length_m=config.context_length_m
    )
    rear_cut = front_cut = 0
    inc_times, resolved = [], 0
    for t in events:
        t = float(t)
        front_trk = front.estimated.until(t)
        rear_trk = rear.estimated.until(t)
        fb, rb = _cut(front.scan, front_trk), _cut(rear.scan, rear_trk)
        start = time.perf_counter()
        peer.append(front.scan.slice(front_cut, fb), front_trk)
        other = peer.trajectory()
        update = tracker.stream_update(
            rear.scan.slice(rear_cut, rb), rear_trk, other=other
        )
        inc_times.append(time.perf_counter() - start)
        front_cut, rear_cut = fb, rb
        resolved += update.estimate.resolved
    n_marks = tracker._builder._index._n_marks
    assert n_marks >= MIN_MARKS, (
        f"drive too short for the contract: {n_marks} marks < {MIN_MARKS}"
    )
    assert resolved >= 0.9 * len(events), "streaming replay failed to track"

    # -- baseline: rebuild everything from scratch at sampled events ---
    sample_idx = np.linspace(len(events) // 2, len(events) - 1, N_BASELINE_SAMPLES)
    cold_bind = dict(
        context_length_m=config.context_length_m,
        spacing_m=config.spacing_m,
        interpolate=True,
    )
    base_times = []
    for i in sample_idx.astype(int):
        t = float(events[i])
        front_trk = front.estimated.until(t)
        rear_trk = rear.estimated.until(t)
        fb, rb = _cut(front.scan, front_trk), _cut(rear.scan, rear_trk)
        start = time.perf_counter()
        own = bind_scan(rear.scan.slice(0, rb), rear_trk, **cold_bind)
        other = bind_scan(front.scan.slice(0, fb), front_trk, **cold_bind)
        estimate = RupsEngine(config).estimate_relative_distance(own, other)
        base_times.append(time.perf_counter() - start)
        assert estimate.resolved

    inc_mean = float(np.mean(inc_times))
    base_mean = float(np.mean(base_times))
    speedup = base_mean / inc_mean

    text = (
        "Streaming hot-path contract "
        f"({len(events)} events at {UPDATE_PERIOD_S} s period, "
        f"{n_marks} marks, {config.context_length_m:.0f} m context, 39-ch plan)\n"
        f"  rebuild-per-update baseline (sampled x{N_BASELINE_SAMPLES}): "
        f"{base_mean * 1e3:8.2f} ms/update\n"
        f"  incremental stream_update (all events):   "
        f"{inc_mean * 1e3:8.2f} ms/update\n"
        f"  p95 incremental update:                   "
        f"{float(np.percentile(inc_times, 95)) * 1e3:8.2f} ms\n"
        f"  resolved: {resolved}/{len(events)} events\n"
        f"  speedup: {speedup:.1f}x (contract: >= 10x at >= {MIN_MARKS} marks)"
    )
    record_result(
        "t-stream",
        text,
        timings={
            "baseline_update_s": base_mean,
            "incremental_update_s": inc_mean,
            # Percentiles feed the trend gate too: a tail regression
            # (lock losses forcing full searches) can hide in the mean.
            "incremental_p50_s": float(np.percentile(inc_times, 50)),
            "incremental_p95_s": float(np.percentile(inc_times, 95)),
            "incremental_p99_s": float(np.percentile(inc_times, 99)),
        },
    )

    assert speedup >= 10.0, (
        f"incremental speedup {speedup:.1f}x below the 10x contract "
        f"({base_mean * 1e3:.1f} ms rebuild vs {inc_mean * 1e3:.1f} ms streamed)"
    )

"""Micro-benchmarks of the library's hot kernels.

Not a paper artifact per se, but the performance contract the rest of
the benches rely on: field construction, scan simulation, binding, and
the per-query end-to-end cost (which §V-B compares against the ~0.5 s
communication budget).
"""

import time

import numpy as np
import pytest

from repro.core.binding import bind_scan
from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine
from repro.core.syn import find_syn_points
from repro.core.trajectory import GeoTrajectory, GsmTrajectory
from repro.experiments.timing import kernel_comparison_sweep
from repro.gsm.band import EVAL_SUBSET_115
from repro.gsm.field import make_straight_field
from repro.gsm.scanner import RadioGroup, scan_drive
from repro.roads.types import RoadType
from repro.sensors.deadreckoning import EstimatedTrack
from tests.oracles import reference_search


@pytest.fixture(scope="module")
def field():
    return make_straight_field(2000.0, RoadType.URBAN_4LANE, plan=EVAL_SUBSET_115, seed=0)


@pytest.fixture(scope="module")
def scan(field):
    group = RadioGroup(EVAL_SUBSET_115, n_radios=4)
    return scan_drive(field, lambda t: 10.0 * np.asarray(t), group, 0.0, 180.0, rng=0)


@pytest.fixture(scope="module")
def track():
    t = np.arange(0.0, 180.0, 0.1)
    return EstimatedTrack(times_s=t, distance_m=10.0 * t, heading_rad=np.zeros(t.size))


def test_field_construction(benchmark):
    benchmark.pedantic(
        make_straight_field,
        args=(2000.0,),
        kwargs={"road_type": RoadType.URBAN_4LANE, "plan": EVAL_SUBSET_115, "seed": 1},
        rounds=3,
        iterations=1,
    )


def test_scan_simulation(benchmark, field):
    group = RadioGroup(EVAL_SUBSET_115, n_radios=4)
    stream = benchmark(
        scan_drive, field, lambda t: 10.0 * np.asarray(t), group, 0.0, 60.0, 0
    )
    assert len(stream) > 10_000


def test_binding(benchmark, scan, track):
    traj = benchmark(
        bind_scan, scan, track, 175.0, 1000.0
    )
    assert traj.n_marks == 1001


def _overlapping_pair(
    m_marks: int = 2000, k_channels: int = 45, offset_marks: int = 400, seed: int = 0
) -> tuple[GsmTrajectory, GsmTrajectory]:
    """Two fresh overlapping trajectories for search timing."""
    rng = np.random.default_rng(seed)
    base = rng.normal(-80.0, 8.0, size=(k_channels, m_marks + offset_marks))

    def traj(start_col: int, start_m: float) -> GsmTrajectory:
        power = base[:, start_col : start_col + m_marks] + rng.normal(
            0.0, 1.0, size=(k_channels, m_marks)
        )
        geo = GeoTrajectory(
            timestamps_s=np.linspace(0.0, 200.0, m_marks),
            headings_rad=np.zeros(m_marks),
            spacing_m=1.0,
            start_distance_m=start_m,
        )
        return GsmTrajectory(
            power_dbm=power, channel_ids=np.arange(k_channels), geo=geo
        )

    return traj(0, 0.0), traj(offset_marks, float(offset_marks))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_speedup_contract(record_result):
    """The sweep's performance contract: >= 10x the reference loop.

    Two regimes are recorded to ``benchmarks/results/t-kernels.txt``:

    * the sliding-sweep table from :func:`kernel_comparison_sweep` —
      with the target's sliding statistics prebuilt (warm — the sweep
      alone) the fused sweep must beat the reference loop by >= 10x at
      every context length >= 2000 marks;
    * an end-to-end multi-SYN ``find_syn_points`` over fresh trajectory
      objects, so the statistics are built inside the search, as in
      every production search — held to the same 10x contract.  Its
      reference leg is the same search with the per-window loop
      swapped in for the sweep, the oracle the differential suites use
      (``tests/oracles.py``).
    """
    result = kernel_comparison_sweep()

    config = RupsConfig(
        context_length_m=2000.0,
        window_length_m=100.0,
        n_syn_points=5,
        coherency_threshold=0.5,
        min_coherency_threshold=0.5,
    )

    def search(pair) -> None:
        own, other = pair
        find_syn_points(own, other, config)

    with reference_search():
        ref_s = _best_of(lambda: search(_overlapping_pair()), 2)
    fused_s = _best_of(lambda: search(_overlapping_pair()), 3)

    text = result.render() + "\n\n" + (
        "find_syn_points (m=2000 marks, k=45, w=100 m, 5 SYN offsets): "
        f"reference {ref_s * 1e3:.1f} ms, "
        f"fused {fused_s * 1e3:.1f} ms ({ref_s / fused_s:.1f}x)"
    )
    record_result("t-kernels", text)

    for m, ref, _cold, warm in result.rows:
        if m >= 2000:
            assert ref / warm >= 10.0, (
                f"m={m}: warm speedup {ref / warm:.1f}x below the 10x contract"
            )
    assert ref_s / fused_s >= 10.0, (
        f"find_syn_points speedup {ref_s / fused_s:.1f}x below the "
        "10x contract"
    )


def test_full_query(benchmark, scan, track, field):
    """End-to-end per-query cost: bind both sides + SYN search + resolve.

    §V-A argues computation is negligible against the ~0.5 s exchange;
    our whole query must comfortably beat that budget.
    """
    engine = RupsEngine(RupsConfig())
    other = engine.build_trajectory(scan, track, at_time_s=170.0)

    def query():
        own = engine.build_trajectory(scan, track, at_time_s=175.0)
        return engine.estimate_relative_distance(own, other)

    est = benchmark(query)
    if benchmark.stats is not None:
        assert benchmark.stats.stats.mean < 0.5
    assert est is not None

"""§V-A compute cost and §V-B response time / scalability.

The paper reports:

* SYN search complexity O(m * w * k) and ~1.2 ms measured per search
  (i7-2640M; m = 1000 m context, w = 100 m window, k = 45 channels);
* a 1 km journey context is ~182 KB = ~130 WSM packets = ~0.52 s at
  the measured 4 ms round-trip time;
* post-SYN incremental updates to support 0.1 s-period tracking.

These functions regenerate all three as tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.correlation import (
    SlidingWindowStats,
    fused_sweep,
    reference_sliding_correlation,
    sliding_trajectory_correlation,
)
from repro.experiments.reporting import render_table
from repro.util.rng import RngFactory
from repro.v2v.channel import DsrcChannel
from repro.v2v.exchange import ExchangeSession, estimate_exchange_time
from repro.v2v.serialization import encoded_size_bytes

__all__ = [
    "ComputeCostResult",
    "KernelComparisonResult",
    "ResponseTimeResult",
    "compute_cost_sweep",
    "kernel_comparison_sweep",
    "response_time_table",
    "syn_search_seconds",
]


def _search_inputs(
    m_marks: int, w_marks: int, k_channels: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    rng = RngFactory(seed).generator("timing")
    target = rng.normal(-80.0, 8.0, size=(k_channels, m_marks))
    query = target[:, -w_marks:] + rng.normal(0.0, 2.0, size=(k_channels, w_marks))
    return query, target


def syn_search_seconds(
    m_marks: int = 1000,
    w_marks: int = 100,
    k_channels: int = 45,
    repeats: int = 20,
    seed: int = 0,
) -> float:
    """Wall-clock seconds for one full sliding SYN search (best of N).

    This is the §V-A measurement: one window slid over a whole journey
    context.  "Best of N" isolates the kernel cost from scheduler noise,
    the same convention ``timeit`` uses.
    """
    query, target = _search_inputs(m_marks, w_marks, k_channels, seed)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sliding_trajectory_correlation(query, target)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class KernelComparisonResult:
    """Reference loop vs the production sweep across context lengths.

    ``rows``: one entry per context length ``(m, reference_s,
    fused_cold_s, fused_warm_s)``; cold includes building the target's
    :class:`~repro.core.correlation.SlidingWindowStats`, warm passes
    prebuilt statistics to the sweep and so times the sweep alone — the
    share of a multi-SYN search that grows with its query windows, since
    each search builds its statistics once per request.
    """

    rows: list[tuple[int, float, float, float]]
    w_marks: int
    k_channels: int

    def render(self) -> str:
        table = [
            [
                m,
                ref * 1e3,
                cold * 1e3,
                warm * 1e3,
                ref / cold,
                ref / warm,
            ]
            for m, ref, cold, warm in self.rows
        ]
        return render_table(
            [
                "m (marks)",
                "reference (ms)",
                "fused cold (ms)",
                "fused warm (ms)",
                "speedup cold",
                "speedup warm",
            ],
            table,
            title=(
                "SYN sliding search — reference loop vs fused sweep "
                f"(w={self.w_marks}, k={self.k_channels}; warm = prebuilt "
                "sliding statistics, the sweep alone)"
            ),
        )


def kernel_comparison_sweep(
    m_marks: tuple[int, ...] = (500, 1000, 2000, 4000),
    w_marks: int = 100,
    k_channels: int = 45,
    repeats: int = 5,
    seed: int = 0,
) -> KernelComparisonResult:
    """Time the reference loop and the sweep over journey-context lengths."""
    rows = []
    starts = np.array([0], dtype=np.intp)
    for m in m_marks:
        query, target = _search_inputs(m, w_marks, k_channels, seed)
        ref = min(
            _timed(reference_sliding_correlation, query, target)
            for _ in range(max(2, repeats // 2))
        )
        cold = min(
            _timed(sliding_trajectory_correlation, query, target)
            for _ in range(repeats)
        )
        stats = SlidingWindowStats(target, w_marks)
        warm = min(
            _timed(fused_sweep, query, starts, stats) for _ in range(repeats * 4)
        )
        rows.append((m, ref, cold, warm))
    return KernelComparisonResult(rows=rows, w_marks=w_marks, k_channels=k_channels)


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


@dataclass
class ComputeCostResult:
    """SYN search cost sweep demonstrating O(m * w * k) scaling."""

    rows: list[tuple[int, int, int, float]]

    def render(self) -> str:
        table = [
            [m, w, k, sec * 1e3, m * w * k / 1e6, sec * 1e9 / (m * w * k)]
            for m, w, k, sec in self.rows
        ]
        return render_table(
            ["m (marks)", "w (marks)", "k (ch)", "time (ms)", "mwk (1e6)", "ns per mwk"],
            table,
            title="SV-A — SYN search cost, O(m*w*k) scaling "
            "(paper: ~1.2 ms at m=1000, w=100, k=45)",
        )


def compute_cost_sweep(seed: int = 0) -> ComputeCostResult:
    """Sweep each of m, w, k around the paper's operating point."""
    configs = [
        (1000, 100, 45),
        (500, 100, 45),
        (2000, 100, 45),
        (1000, 50, 45),
        (1000, 200, 45),
        (1000, 100, 20),
        (1000, 100, 90),
    ]
    rows = [
        (m, w, k, syn_search_seconds(m, w, k, seed=seed)) for m, w, k in configs
    ]
    return ComputeCostResult(rows=rows)


@dataclass
class ResponseTimeResult:
    """Full-context transfer accounting plus incremental-update costs."""

    rows: list[list[object]]
    incremental_rows: list[list[object]]

    def render(self) -> str:
        full = render_table(
            ["context (m)", "channels", "bytes", "KB", "packets", "nominal time (s)", "simulated time (s)"],
            self.rows,
            title="SV-B — journey-context exchange (paper: 1 km = ~182 KB = "
            "~130 packets = ~0.52 s)",
        )
        inc = render_table(
            ["update", "mode", "bytes", "packets", "time (s)"],
            self.incremental_rows,
            title="SV-B — post-SYN incremental updates (0.1 s tracking period)",
        )
        return full + "\n\n" + inc


def response_time_table(seed: int = 0) -> ResponseTimeResult:
    """Regenerate the §V-B arithmetic and simulate the protocol.

    Full transfers for several context lengths and channel counts, then
    an :class:`~repro.v2v.exchange.ExchangeSession` in tracking mode
    showing the incremental-update sizes after a SYN lock.
    """
    channel = DsrcChannel()
    rows: list[list[object]] = []
    for context_m, n_ch in ((1000.0, 194), (1000.0, 115), (500.0, 115), (100.0, 115)):
        n_bytes, n_packets, nominal = estimate_exchange_time(
            context_m, n_ch, channel=channel
        )
        result = channel.transfer_bytes(b"\x00" * n_bytes, rng=seed)
        rows.append(
            [
                int(context_m),
                n_ch,
                n_bytes,
                n_bytes / 1024.0,
                n_packets,
                nominal,
                result.time_s,
            ]
        )

    # Incremental session: full sync, lock, then 1 m of new context per
    # 0.1 s tracking update.
    from repro.core.trajectory import GeoTrajectory, GsmTrajectory

    rng = RngFactory(seed).generator("incremental")
    n_ch, n_marks = 115, 1001
    spacing = 1.0

    def make_traj(end_distance: float) -> GsmTrajectory:
        start = end_distance - (n_marks - 1) * spacing
        geo = GeoTrajectory(
            timestamps_s=np.linspace(0.0, 100.0, n_marks) + end_distance,
            headings_rad=np.zeros(n_marks),
            spacing_m=spacing,
            start_distance_m=start,
        )
        return GsmTrajectory(
            power_dbm=rng.normal(-80, 8, size=(n_ch, n_marks)),
            channel_ids=np.arange(n_ch),
            geo=geo,
        )

    session = ExchangeSession(channel=channel, rng=rng)
    inc_rows: list[list[object]] = []
    end = 2000.0
    result = session.send_update(make_traj(end))
    inc_rows.append(
        ["initial full context", "full", encoded_size_bytes(n_ch, n_marks), result.packets_sent, result.time_s]
    )
    session.notify_syn_found()
    for step in range(1, 4):
        end += 1.0  # ~1 m driven per 0.1 s at urban speed
        r = session.send_update(make_traj(end))
        inc_rows.append(
            [f"tracking update {step} (+1 m)", "incremental", r.bytes_on_air, r.packets_sent, r.time_s]
        )
    return ResponseTimeResult(rows=rows, incremental_rows=inc_rows)

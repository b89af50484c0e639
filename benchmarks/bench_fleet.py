"""t-fleet service-path contract: query latency and throughput.

Replays a bench-scale fleet (20 vehicles, Poisson queries) through the
resident :class:`~repro.fleet.FleetStore` + batched
:class:`~repro.fleet.FleetService` request path and records what a
deployment would alert on: query latency percentiles (submit -> answer,
from the service's local wall-clock registry) and answered queries per
second of service time.  The trend gate guards all four headline
timings — a p95 regression (sessions losing locks and falling back to
full searches, or the batching degenerating to per-query kernel calls)
can hide behind a healthy mean.

Correctness is not asserted here — ``tests/test_fleet.py`` proves the
service path bit-identical to a direct tracker loop and
``tests/test_runtime_determinism.py`` pins its jobs-invariance; this
file only guards the speed of the batched hot path (``jobs=1``: the
numbers must track kernel cost, not pool spawn overhead).
"""

import numpy as np

from repro.experiments.fleet import fleet_replay
from repro.gsm.band import RGSM900
from repro.obs import slo
from repro.obs.openmetrics import exposition, parse

N_VEHICLES = 20
DURATION_S = 160.0
QUERY_RATE_HZ = 6.0


def test_fleet_service_latency(record_result):
    plan = RGSM900.subset(np.arange(0, RGSM900.n_channels, 5), name="bench-39")
    result = fleet_replay(
        n_vehicles=N_VEHICLES,
        duration_s=DURATION_S,
        query_rate_hz=QUERY_RATE_HZ,
        plan=plan,
        seed=7,
        jobs=1,
    )
    assert result.n_queries > 100, "replay answered too few queries to time"
    assert result.queries_per_s > 0

    # The operational plane, exercised at bench scale: evaluate the
    # fleet SLOs over the replay's telemetry (latency histograms reach
    # here via the service's auxiliary registry) and prove the live
    # exposition we would serve from /metrics is well-formed.
    statuses = slo.evaluate(slo.gathered_snapshot())
    slo.set_slo_gauges(statuses)
    families = parse(exposition())
    assert "fleet_query_latency_s" in families
    assert any(name.startswith("slo_") for name in families)

    text = (
        f"{result.render()}\n"
        f"(bench scale: {N_VEHICLES} vehicles, {DURATION_S:.0f} s drives, "
        f"{QUERY_RATE_HZ:.0f}/s Poisson arrivals, 39-ch plan, jobs=1)\n\n"
        f"{slo.format_report(statuses)}"
    )
    record_result(
        "t-fleet",
        text,
        timings={
            "query_p50_s": result.latency_p50_s,
            "query_p95_s": result.latency_p95_s,
            "query_p99_s": result.latency_p99_s,
            # Reciprocal throughput, so the trend comparer's
            # "bigger = regression" convention applies unchanged.
            "per_query_s": 1.0 / result.queries_per_s,
        },
    )

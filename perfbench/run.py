"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs set-up and the timed region three times — the
middle pass with every layer's entry points wrapped (see ``layers.py``)
— and reports the per-layer metrics.  A table with every metric, its
unit and sample count comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and run details are written under ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback

_T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Before numpy loads (spawned workers inherit the environment): one BLAS
# thread per process, and temporary files (the executor's shared-statics
# spool) inside the checkout.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Set-ups per run; ``setup_s`` reports imports plus their median.
SETUP_REPEATS = 3
#: At most this share of answers may be unresolved or wrong.
MAX_BAD_SHARE = 0.05

#: End-to-end metrics of an untraced run (``BENCHMARK.json`` lists these).
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "response_p50_ms": "ms",
    "throughput_per_s": "1/s",
}
#: Printed with them but not gated, because they follow the seed's
#: drives far beyond any bound: the mean error (answer quality is
#: guarded by ``correct`` and the digest instead), and peak memory,
#: which on ``onboard`` jumps by ~45 MB per reduction-cache entry a
#: leader's stop fills.
REPORTED_UNITS = {"peak_rss_mb": "MB", "mean_error_m": "m"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_up(cls, seed: int, seconds: float, repeats: int):
    """Build the workload ``repeats`` times; keep the last, time each."""
    from workloads import reset_process_caches

    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
        reset_process_caches()
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, seconds)
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def _timed(workload):
    """The timed region, with the program's counters diffed around it."""
    from repro.obs.metrics import get_registry

    before = dict(get_registry().snapshot()["counters"])
    outcome = workload.run()
    after = get_registry().snapshot()["counters"]
    counters = {k: v - before.get(k, 0) for k, v in after.items()}
    return outcome, counters


def _quality(outcome) -> tuple[bool, int]:
    """Whether the answers are correct enough, and how many are wrong."""
    from workloads import WRONG_ANSWER_M

    wrong = sum(err > WRONG_ANSWER_M for err in outcome.errors_m)
    bad = wrong + outcome.failed
    return outcome.attempted > 0 and bad <= MAX_BAD_SHARE * outcome.attempted, wrong


def end_to_end(outcome, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    from stats import percentile, tail_percentile

    n = len(outcome.latencies_ms)
    # Queries answered by one tick or chunk share one timing, so the
    # tail's ten beyond are counted in timings; a run too short for any
    # tail percentile reports its slowest sample.
    tail = tail_percentile(outcome.timings)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "latency_p50_ms": percentile(outcome.latencies_ms, 50.0),
        "latency_tail_ms": percentile(outcome.latencies_ms, tail or 100.0),
        "response_p50_ms": percentile(outcome.responses_ms, 50.0),
        "throughput_per_s": n / outcome.busy_s if outcome.busy_s > 0 else float("nan"),
        "mean_error_m": statistics.fmean(outcome.errors_m) if outcome.errors_m else float("nan"),
    }
    samples = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups + imports",
        "peak_rss_mb": "process + live workers",
        "latency_p50_ms": f"{n} samples",
        "latency_tail_ms": (
            f"p{tail:g} of {n} samples ({outcome.timings} timings)"
            if tail
            else f"max of {n} samples ({outcome.timings} timings: too few for a tail)"
        ),
        "response_p50_ms": f"{len(outcome.responses_ms)} samples",
        "throughput_per_s": f"{n} ops / {outcome.busy_s:.3f} s busy",
        "mean_error_m": f"{len(outcome.errors_m)} resolved answers",
    }
    return values, samples


def _print_table(title: str, rows: list[tuple[str, str, str, str]]) -> None:
    print(title)
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _untraced(cls, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics: median of several set-ups, one timed region."""
    import stats

    workload, setup_times = _set_up(cls, seed, seconds, SETUP_REPEATS)
    outcome, _ = _timed(workload)
    rss_mb = stats.peak_rss_mb()
    workload.close()
    values, samples = end_to_end(outcome, import_s + statistics.median(setup_times), rss_mb)
    rows = [
        (k, _fmt(values[k]), unit, samples[k])
        for k, unit in {**END_TO_END_UNITS, **REPORTED_UNITS}.items()
    ]
    _print_table("end-to-end metrics", rows)
    return {
        "outcome": outcome,
        "values": values,
        "units": END_TO_END_UNITS,
        "detail": {"setup_runs_s": setup_times, "import_s": import_s},
    }


def _traced(cls, seed: int, seconds: float) -> dict:
    """Per-layer metrics from a traced pass between two untraced ones.

    The untraced passes before and after the traced one give the
    reference busy time (their mean cancels a steady drift of the
    host); the traced pass's rows must close against it.
    """
    import layers
    from repro.obs.metrics import MetricsRegistry, use_registry

    reference = []
    for traced in (False, True, False):
        tracer = layers.Tracer().install() if traced else None
        try:
            with use_registry(MetricsRegistry()):
                workload, _ = _set_up(cls, seed, seconds, 1)
                if tracer is not None:
                    tracer.phase = "timed"
                outcome, counters = _timed(workload)
                if tracer is not None:
                    tracer.phase = "teardown"
                workload.close()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if traced:
            traced_run = (tracer, outcome, counters)
        else:
            reference.append(outcome.busy_s)
    tracer, outcome, counters = traced_run
    metrics, table, closure = layers.layer_metrics(
        tracer.spans,
        counters,
        outcome.exchanges,
        outcome.attempted,
        outcome.busy_s,
        statistics.fmean(reference),
    )
    rows = [("layer", "set-up ms (calls)", "timed ms/op incl", "self (calls)")]
    for row, r in table.items():
        rows.append(
            (
                row,
                f"{r['setup_ms']:.1f} ({r['setup_calls']})",
                f"{r['incl_ms_per_op']:.4f}",
                f"{r['self_ms_per_op']:.4f} ({r['calls']})",
            )
        )
    _print_table(f"per-layer busy time ({outcome.attempted} operations)", rows)
    units = {k: layers.PER_LAYER[k][0] for k in metrics}
    _print_table("per-layer metrics", [(k, _fmt(v), units[k], "") for k, v in metrics.items()])
    untraced = closure["untraced_busy_s"]
    gap = closure["traced_busy_s"] - untraced
    print(
        "closure: self-time rows {:.3f} s + unattributed {:.3f} s = traced busy time "
        "{:.3f} s; untraced {:.3f} s (mean of {}); gap {:+.1f}% ({})".format(
            closure["self_sum_s"],
            closure["unattributed_s"],
            closure["traced_busy_s"],
            untraced,
            " and ".join(f"{s:.3f}" for s in reference),
            100.0 * gap / untraced,
            "within 10%" if abs(gap) <= 0.1 * untraced else "OUTSIDE 10%",
        )
    )
    if tracer.absent:
        print("absent targets: " + ", ".join(tracer.absent))
    return {
        "outcome": outcome,
        "values": metrics,
        "units": units,
        "tracer": tracer,
        "detail": {"closure": closure, "table": table, "counters": counters},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its tables, write its files under
    ``.perfbench/``; returns the run (``outcome``, ``values``, ...) with
    its result object under ``"result"``."""
    import stats
    from workloads import WORKLOADS

    import_s = stats.process_age_s() or time.perf_counter() - _T0
    cls = WORKLOADS[name]
    env = stats.environment(cls.jobs)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    run = _traced(cls, seed, seconds) if trace else _untraced(cls, seed, seconds, import_s)
    outcome, values, units = run["outcome"], run["values"], run["units"]

    correct, wrong = _quality(outcome)
    answers = stats.digest(outcome.distances)
    print(
        f"answers: attempted={outcome.attempted} failed={outcome.failed} wrong={wrong} "
        f"digest={answers}"
    )
    print("notes: " + json.dumps(outcome.notes, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {"env": env, "digest": answers, "notes": outcome.notes, "values": values, **run["detail"]},
            fh,
            indent=1,
            default=str,
        )
    if trace:
        run["tracer"].dump(stem + "-spans.json", {"workload": name, "seed": seed, "env": env})
    run["result"] = {
        "correct": bool(correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    return run


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a repository checkout", file=sys.stderr)
        return 2
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _stop_resource_tracker()
    print(json.dumps(run["result"]))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process a spawn pool leaves running.

    Pool workers are joined by the executor; multiprocessing's resource
    tracker would otherwise outlive the run by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())

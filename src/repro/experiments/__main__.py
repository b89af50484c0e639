"""Command-line experiment runner.

Usage::

    python -m repro.experiments fig2 [--seed N]
    python -m repro.experiments fig11 --drives 3 --queries 40
    python -m repro.experiments t-campaign --jobs 4
    python -m repro.experiments fig2 fig3 fig4 --jobs 3
    python -m repro.experiments t-campaign --metrics-out metrics.json
    python -m repro.experiments t-campaign --events-out events.jsonl
    python -m repro.experiments report --events events.jsonl
    python -m repro.experiments fig2 --log-level INFO
    python -m repro.experiments t-fleet --vehicles 20 --duration 160
    python -m repro.experiments --list

Each id regenerates one paper artifact and prints its series/table.
``--jobs`` fans work across processes: several ids run one-per-worker,
while a single jobs-aware id (e.g. ``t-campaign``) parallelises
internally.  Results are deterministic for a given seed regardless of
``--jobs`` — including the ``--events-out`` provenance stream.

``report`` is not an experiment: it post-processes an ``--events-out``
file into the error-attribution report (error mass binned by root
cause, worst-query narratives) without rerunning anything.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.evaluation import EvalSettings
from repro.experiments.registry import (
    EXPERIMENTS,
    JOBS_AWARE,
    run_experiment,
    run_experiments,
)
from repro.experiments.reporting import render_latency_table
from repro.obs import configure_logging, get_ledger, get_recorder, get_registry
from repro.obs.report import load_events, render_error_attribution

#: Experiments that accept an EvalSettings workload object.
_EVAL_IDS = {"fig9", "fig10", "fig11", "fig12"}
#: Experiments that accept a plain seed.
_SEEDED_IDS = {
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "t-compute",
    "t-kernels",
    "t-respond",
    "t-campaign",
    "t-loss",
    "t-stream",
    "t-fleet",
}


def _run_report(args: argparse.Namespace) -> int:
    """The ``report`` mode: events JSONL in, attribution markdown out."""
    extra = args.experiments[1:]
    if extra:
        print(
            f"'report' takes no experiment ids (got {', '.join(map(repr, extra))})",
            file=sys.stderr,
        )
        return 2
    if not args.events:
        print(
            "'report' needs --events EVENTS.jsonl (write one with "
            "--events-out on any experiment run)",
            file=sys.stderr,
        )
        return 2
    try:
        events = load_events(args.events)
    except (OSError, ValueError) as exc:
        print(f"cannot read events: {exc}", file=sys.stderr)
        return 2
    report = render_error_attribution(events, worst_n=args.worst)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(report)
        print(f"[report written to {args.report_out}]")
    else:
        print(report, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one paper artifact (figure or SV table).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"artifact id(s), from: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument("--list", action="store_true", help="list artifact ids")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--drives",
        type=int,
        default=None,
        help="drives pooled per cell (SVI studies / t-campaign)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per drive (SVI studies / t-campaign)",
    )
    parser.add_argument(
        "--vehicles",
        type=int,
        default=None,
        help="fleet size for t-fleet (even; default 200)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="drive duration for t-fleet in seconds (default 200)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = all cores); several ids fan out one "
        "per worker, a single jobs-aware id parallelises internally",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable repro logging at LEVEL (DEBUG, INFO, ...); "
        "silent by default",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the merged metrics snapshot (counters, gauges, "
        "span histograms) to PATH as JSON, and print the stage latency "
        "table",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="write the merged provenance event ledger to PATH as JSONL "
        "(input for the 'report' mode)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span recorder's ring buffer to PATH as JSON",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="('report' mode) events JSONL file to attribute",
    )
    parser.add_argument(
        "--worst",
        type=int,
        default=5,
        metavar="N",
        help="('report' mode) worst queries to narrate (default 5)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="('report' mode) write the markdown report to PATH "
        "instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.log_level is not None:
        configure_logging(args.log_level)

    if args.list or not args.experiments:
        for exp_id in sorted(EXPERIMENTS):
            print(exp_id)
        return 0

    if args.experiments[0] == "report":
        return _run_report(args)

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2

    def kwargs_for(exp_id: str) -> dict:
        kwargs: dict = {}
        if exp_id in _EVAL_IDS:
            kwargs["settings"] = EvalSettings(
                n_drives=args.drives if args.drives is not None else 3,
                queries_per_drive=args.queries if args.queries is not None else 60,
                seed=args.seed,
            )
        elif exp_id in _SEEDED_IDS:
            kwargs["seed"] = args.seed
        if exp_id == "t-campaign":
            if args.drives is not None:
                kwargs["n_drives"] = args.drives
            if args.queries is not None:
                kwargs["queries_per_drive"] = args.queries
        if exp_id == "t-fleet":
            if args.vehicles is not None:
                kwargs["n_vehicles"] = args.vehicles
            if args.duration is not None:
                kwargs["duration_s"] = args.duration
        # A lone jobs-aware experiment gets the whole worker budget;
        # when several ids fan out, the workers are spent across ids.
        if exp_id in JOBS_AWARE and len(args.experiments) == 1:
            kwargs["jobs"] = args.jobs
        return kwargs

    start = time.perf_counter()
    if len(args.experiments) == 1:
        exp_id = args.experiments[0]
        results = [(exp_id, run_experiment(exp_id, **kwargs_for(exp_id)))]
    else:
        results = run_experiments(
            args.experiments,
            jobs=args.jobs,
            kwargs_by_id={e: kwargs_for(e) for e in args.experiments},
        )
    elapsed = time.perf_counter() - start
    for i, (exp_id, result) in enumerate(results):
        if i:
            print()
        print(result.render())
    ids = ", ".join(exp_id for exp_id, _ in results)
    print(f"\n[{ids} regenerated in {elapsed:.1f} s]")
    if args.metrics_out:
        registry = get_registry()
        with open(args.metrics_out, "w") as fh:
            json.dump(registry.snapshot(), fh, indent=2)
            fh.write("\n")
        print(f"[metrics snapshot written to {args.metrics_out}]")
        latency = render_latency_table(registry)
        if latency:
            print()
            print(latency)
    if args.events_out:
        ledger = get_ledger()
        n_events = ledger.write_jsonl(args.events_out)
        print(f"[{n_events} provenance events written to {args.events_out}]")
        if ledger.dropped:
            print(
                f"warning: event ledger dropped {ledger.dropped} events "
                f"at capacity {ledger.capacity}; the export is truncated",
                file=sys.stderr,
            )
    if args.trace_out:
        recorder = get_recorder()
        dump = {
            "capacity": recorder.capacity,
            "trace_id": recorder.trace_id,
            "dropped_spans": recorder.dropped,
            "spans": [
                {
                    "name": span.name,
                    "start_s": span.start_s,
                    "wall_s": span.wall_s,
                    "cpu_s": span.cpu_s,
                    "depth": span.depth,
                    "parent": span.parent,
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "links": list(span.links),
                    "attrs": {k: v for k, v in span.attrs},
                }
                for span in recorder.spans
            ],
        }
        with open(args.trace_out, "w") as fh:
            json.dump(dump, fh, indent=2)
            fh.write("\n")
        print(
            f"[{len(dump['spans'])} spans written to {args.trace_out} "
            f"(ring capacity {recorder.capacity})]"
        )
        if recorder.dropped:
            print(
                f"warning: span ring dropped {recorder.dropped} spans at "
                f"capacity {recorder.capacity}; the trace is truncated",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer tracing for the benchmark's traced run.

The tracer wraps each layer's public entry points from outside the
program: class methods are replaced on their class, module functions
under every ``repro.*`` module name that imported them.  Each wrapped
call records one span — layer row, phase (``setup`` or ``timed``),
start, end, the enclosing wrapped span and an optional measured value —
in memory; :meth:`Tracer.dump` writes them out at the end of the run.

A target the program no longer has is reported as absent instead of
failing the run.  Wrappers live in the benchmark process only: spawned
pool workers import the program afresh, so their layer work shows up
only through the ``runtime.*`` rows (and the counters the executor
merges back).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

#: Wrapped entry points: (layer row, module, class or None, attribute).
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("vehicles.simulate", "repro.vehicles.drive", None, "simulate_drive"),
    ("gsm.field", "repro.gsm.routefield", None, "build_route_field"),
    ("gsm.field", "repro.gsm.field", None, "make_straight_field"),
    ("runtime.warm_up", "repro.runtime.executor", "DeterministicExecutor", "warm_up"),
    ("runtime.publish", "repro.runtime.executor", "DeterministicExecutor", "publish"),
    ("runtime.wave", "repro.runtime.executor", "DeterministicExecutor", "map_ordered"),
    ("fleet.store.ingest", "repro.fleet.store", "FleetStore", "ingest"),
    ("fleet.store.serve", "repro.fleet.store", "FleetStore", "trajectory"),
    ("fleet.service.tick", "repro.fleet.service", "FleetService", "tick"),
    ("core.tracking.plan", "repro.core.tracking", "RupsTracker", "plan_update"),
    ("core.tracking.absorb", "repro.core.tracking", "RupsTracker", "absorb_update"),
    ("core.tracking.absorb", "repro.core.tracking", "RupsTracker", "absorb_retry"),
    ("core.tracking.stream", "repro.core.tracking", "RupsTracker", "stream_update"),
    ("core.trajectory.append", "repro.core.trajectory", "TrajectoryBuilder", "append"),
    ("core.trajectory.serve", "repro.core.trajectory", "TrajectoryBuilder", "trajectory"),
    ("core.binding.index", "repro.core.binding", "DriveBindingIndex", "for_drive"),
    ("core.binding.bind", "repro.core.binding", "DriveBindingIndex", "bind"),
    ("core.engine.build", "repro.core.engine", "RupsEngine", "build_trajectory"),
    ("core.engine.estimate", "repro.core.engine", "RupsEngine", "estimate_relative_distance"),
    ("core.engine.estimate", "repro.core.engine", "RupsEngine", "estimate_relative_distance_batch"),
    ("core.engine.estimate", "repro.core.engine", "RupsEngine", "estimate_relative_distance_anchored"),
    ("core.syn.search", "repro.core.syn", None, "find_syn_points_batch"),
    ("core.syn.search", "repro.core.syn", None, "find_syn_points_anchored"),
    ("core.correlation.features", "repro.core.correlation", None, "normalized_window_features"),
    ("core.correlation.sweep", "repro.core.correlation", None, "fused_sweep"),
    ("core.correlation.sweep", "repro.core.correlation", None, "fused_sweep_many"),
    ("core.correlation.sweep", "repro.core.correlation", None, "correlation_matrix"),
    ("core.correlation.rescore", "repro.core.correlation", None, "trajectory_correlation_rows"),
    ("v2v.exchange", "repro.v2v.exchange", "ExchangeSession", "exchange_update"),
    ("v2v.codec", "repro.v2v.serialization", None, "encode_trajectory"),
    ("v2v.codec", "repro.v2v.serialization", None, "decode_trajectory"),
)

#: Per-layer metrics: name -> (unit, which direction is better).  Set-up
#: rows are ms over one set-up; other ``ms/op`` rows are busy ms per
#: workload operation in the timed region; ``*_self_ms`` rows subtract
#: the time of wrapped child layers.
PER_LAYER: dict[str, tuple[str, str]] = {
    "vehicles.simulate_ms": ("ms", "lower"),
    "gsm.field_ms": ("ms", "lower"),
    "runtime.warm_up_ms": ("ms", "lower"),
    "runtime.publish_ms": ("ms", "lower"),
    "runtime.publishes": ("count", "lower"),
    "runtime.wave_ms": ("ms/op", "lower"),
    "runtime.wave_overhead_ms": ("ms/op", "lower"),
    "fleet.store.ingest_ms": ("ms/op", "lower"),
    "fleet.store.ingests": ("count", "lower"),
    "fleet.store.serve_ms": ("ms/op", "lower"),
    "fleet.service.tick_self_ms": ("ms/op", "lower"),
    "core.tracking.plan_ms": ("ms/op", "lower"),
    "core.tracking.absorb_ms": ("ms/op", "lower"),
    "core.tracking.stream_ms": ("ms/op", "lower"),
    "core.tracking.full_share": ("ratio", "lower"),
    "core.tracking.anchored_share": ("ratio", "higher"),
    "core.tracking.lock_drops.staleness": ("count", "lower"),
    "core.tracking.lock_drops.failures": ("count", "lower"),
    "core.trajectory.append_ms": ("ms/op", "lower"),
    "core.trajectory.serve_ms": ("ms/op", "lower"),
    "core.binding.index_ms": ("ms/op", "lower"),
    "core.binding.bind_ms": ("ms/op", "lower"),
    "core.engine.build_ms": ("ms/op", "lower"),
    "core.engine.estimate_self_ms": ("ms/op", "lower"),
    "core.engine.reduction_hit_ratio": ("ratio", "higher"),
    "core.engine.trajectory_hit_ratio": ("ratio", "higher"),
    "core.syn.search_self_ms": ("ms/op", "lower"),
    "core.syn.windows": ("count", "lower"),
    "core.syn.accept_ratio": ("ratio", "higher"),
    "core.correlation.features_ms": ("ms/op", "lower"),
    "core.correlation.sweep_ms": ("ms/op", "lower"),
    "core.correlation.rescore_ms": ("ms/op", "lower"),
    "core.correlation.sweep_macs": ("count", "lower"),
    "v2v.exchange_ms": ("ms/op", "lower"),
    "v2v.codec_ms": ("ms/op", "lower"),
    "v2v.bytes_per_update": ("B", "lower"),
    "v2v.airtime_ms": ("ms", "lower"),
    "v2v.full_share": ("ratio", "lower"),
    "v2v.idle_share": ("ratio", "lower"),
    "unattributed_ms": ("ms/op", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}

# Span record fields.
NAME, PHASE, START, END, PARENT, VALUE = range(6)


def _fused_sweep_macs(args: tuple, result: Any) -> float:
    query, stats = args[0], args[2]
    r, n_pos = result.shape
    return float(query.shape[0] * r * stats.window_marks * n_pos)


def _fused_sweep_many_macs(args: tuple, result: Any) -> float:
    return float(
        sum(
            query.shape[0] * res.shape[0] * stats.window_marks * res.shape[1]
            for (query, _, stats), res in zip(args[0], result)
        )
    )


def _correlation_matrix_macs(args: tuple, result: Any) -> float:
    return float(result.size * args[0].shape[1])


#: Multiply-accumulates of each sweep kernel, from its argument shapes.
MEASURES: dict[str, Callable[[tuple, Any], float]] = {
    "fused_sweep": _fused_sweep_macs,
    "fused_sweep_many": _fused_sweep_many_macs,
    "correlation_matrix": _correlation_matrix_macs,
}


class Tracer:
    """Installs the wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self._task_s: list[float] = []

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        for row, module_name, class_name, attr in TARGETS:
            label = f"{class_name or module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._patch_function(row, module, attr)
                else:
                    self._patch_method(row, getattr(module, class_name), attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(label)
        self._hook_adopt()
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_function(self, row: str, module: Any, attr: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(row, original, MEASURES.get(attr))
        # Patch the name in every module that imported it (the program's
        # and the benchmark's own), so callers that did ``from module
        # import fn`` reach the wrapper too.
        for mod in list(sys.modules.values()):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append(functools.partial(setattr, mod, attr, original))

    def _patch_method(self, row: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(row, original.__func__))
        elif attr == "map_ordered":
            wrapped = self._wrap_wave(row, original)
        else:
            wrapped = self._wrap(row, original)
        setattr(cls, attr, wrapped)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def _hook_adopt(self) -> None:
        """Sum executor task time from the span trees tasks ship home.

        Every task's root spans (depth 0 in its own recorder) cover the
        task body wherever it ran, worker or inline; the wave wrapper
        uses their sum to split a wave into task time and overhead.
        """
        try:
            from repro.obs.tracing import SpanRecorder

            original = SpanRecorder.adopt
        except (ImportError, AttributeError):
            self.absent.append("SpanRecorder.adopt")
            return
        task_s = self._task_s

        def adopt(recorder: Any, snapshot: Any) -> None:
            if task_s:
                task_s[-1] += sum(
                    span.wall_s
                    for span in snapshot.get("spans", ())
                    if span.depth == 0
                )
            return original(recorder, snapshot)

        SpanRecorder.adopt = adopt
        self._undo.append(functools.partial(setattr, SpanRecorder, "adopt", original))

    # -- wrappers ------------------------------------------------------
    def _open(self, row: str) -> list:
        span = [row, self.phase, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(
        self, row: str, fn: Callable, measure: Callable[[tuple, Any], float] | None = None
    ) -> Callable:
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(row)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, result)
            return result

        return wrapper

    def _wrap_wave(self, row: str, fn: Callable) -> Callable:
        """``map_ordered``: the span's value is the wave's overhead.

        Overhead = wave wall - task time / parallelism, where
        parallelism is ``min(jobs, tasks)`` on a pool and 1 inline.
        """
        clock = time.perf_counter
        stack, task_s = self._stack, self._task_s

        @functools.wraps(fn)
        def wrapper(executor: Any, task_fn: Callable, items: Any) -> Any:
            items = list(items)
            span = self._open(row)
            task_s.append(0.0)
            span[START] = clock()
            try:
                return fn(executor, task_fn, items)
            finally:
                span[END] = clock()
                stack.pop()
                busy = task_s.pop()
                lanes = 1 if executor.jobs == 1 or len(items) <= 1 else min(executor.jobs, len(items))
                span[VALUE] = (span[END] - span[START]) - busy / lanes

        return wrapper

    # -- output ----------------------------------------------------------
    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the spans (and run metadata) as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "phase", "start_s", "end_s", "parent", "value"],
                    "meta": meta,
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
            )


def summarize(spans: list[list], phase: str) -> dict[str, dict[str, float]]:
    """Per-row calls, inclusive seconds, self seconds and summed values."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    rows: dict[str, dict[str, float]] = {}
    for span, children in zip(spans, child_s):
        if span[PHASE] != phase:
            continue
        row = rows.setdefault(span[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "value": 0.0})
        dur = span[END] - span[START]
        row["calls"] += 1
        row["incl_s"] += dur
        row["self_s"] += dur - children
        row["value"] += span[VALUE]
    return rows


def top_level_s(spans: list[list], phase: str) -> float:
    """Seconds covered by outermost wrapped spans of one phase."""
    return sum(
        span[END] - span[START]
        for span in spans
        if span[PHASE] == phase and span[PARENT] < 0
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[list],
    counters: dict[str, float],
    exchanges: list[tuple[str, float, int]],
    ops: int,
    busy_s: float,
    untraced_busy_s: float,
) -> tuple[dict[str, float], dict[str, dict[str, float]], dict[str, float]]:
    """Per-layer metric values, the per-row table and the closure figures.

    ``counters`` are the program's own counter deltas over the timed
    region; ``exchanges`` the ``(mode, airtime_s, bytes)`` of every V2V
    round the workload drove.  ``busy_s`` is the time the system under
    test worked in the traced timed region (the open-loop fleet also
    idles there, waiting for due ticks), ``untraced_busy_s`` the same
    in the untraced pass; the layer rows close against it.
    """
    timed = summarize(spans, "timed")
    setup = summarize(spans, "setup")
    per_op = 1e3 / max(ops, 1)

    def timed_ms(row: str, key: str = "incl_s") -> float:
        return timed.get(row, {}).get(key, 0.0) * per_op

    def setup_ms(row: str) -> float:
        return setup.get(row, {}).get("incl_s", 0.0) * 1e3

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    rounds = len(exchanges)
    modes = [mode for mode, _, _ in exchanges]
    unattributed_s = busy_s - top_level_s(spans, "timed")
    metrics = {
        "vehicles.simulate_ms": setup_ms("vehicles.simulate"),
        "gsm.field_ms": setup_ms("gsm.field"),
        "runtime.warm_up_ms": setup_ms("runtime.warm_up"),
        "runtime.publish_ms": setup_ms("runtime.publish"),
        "runtime.publishes": float(setup.get("runtime.publish", {}).get("calls", 0)),
        "runtime.wave_ms": timed_ms("runtime.wave"),
        "runtime.wave_overhead_ms": timed.get("runtime.wave", {}).get("value", 0.0) * per_op,
        "fleet.store.ingest_ms": timed_ms("fleet.store.ingest"),
        "fleet.store.ingests": count("fleet.store.ingests"),
        "fleet.store.serve_ms": timed_ms("fleet.store.serve"),
        "fleet.service.tick_self_ms": timed_ms("fleet.service.tick", "self_s"),
        "core.tracking.plan_ms": timed_ms("core.tracking.plan"),
        "core.tracking.absorb_ms": timed_ms("core.tracking.absorb"),
        "core.tracking.stream_ms": timed_ms("core.tracking.stream"),
        "core.tracking.full_share": _ratio(count("tracker.updates.full"), count("tracker.updates")),
        "core.tracking.anchored_share": _ratio(count("tracker.updates.anchored"), count("tracker.updates")),
        "core.tracking.lock_drops.staleness": count("tracker.lock_dropped.staleness"),
        "core.tracking.lock_drops.failures": count("tracker.lock_dropped.failures"),
        "core.trajectory.append_ms": timed_ms("core.trajectory.append"),
        "core.trajectory.serve_ms": timed_ms("core.trajectory.serve"),
        "core.binding.index_ms": timed_ms("core.binding.index"),
        "core.binding.bind_ms": timed_ms("core.binding.bind"),
        "core.engine.build_ms": timed_ms("core.engine.build"),
        "core.engine.estimate_self_ms": timed_ms("core.engine.estimate", "self_s"),
        "core.engine.reduction_hit_ratio": _ratio(
            count("engine.cache.reduction.hit"),
            count("engine.cache.reduction.hit") + count("engine.cache.reduction.miss"),
        ),
        "core.engine.trajectory_hit_ratio": _ratio(
            count("engine.cache.trajectory.hit"),
            count("engine.cache.trajectory.hit") + count("engine.cache.trajectory.miss"),
        ),
        "core.syn.search_self_ms": timed_ms("core.syn.search", "self_s"),
        "core.syn.windows": count("syn.windows"),
        "core.syn.accept_ratio": _ratio(count("syn.accepted"), count("syn.windows")),
        "core.correlation.features_ms": timed_ms("core.correlation.features"),
        "core.correlation.sweep_ms": timed_ms("core.correlation.sweep"),
        "core.correlation.rescore_ms": timed_ms("core.correlation.rescore"),
        "core.correlation.sweep_macs": timed.get("core.correlation.sweep", {}).get("value", 0.0),
        "v2v.exchange_ms": timed_ms("v2v.exchange"),
        "v2v.codec_ms": timed_ms("v2v.codec"),
        "v2v.bytes_per_update": _ratio(sum(b for _, _, b in exchanges), rounds),
        "v2v.airtime_ms": _ratio(1e3 * sum(t for _, t, _ in exchanges), rounds),
        "v2v.full_share": _ratio(modes.count("full"), rounds),
        "v2v.idle_share": _ratio(modes.count("idle"), rounds),
        "unattributed_ms": unattributed_s * per_op,
        "trace_overhead_pct": _ratio(100.0 * (busy_s - untraced_busy_s), untraced_busy_s),
    }
    closure = {
        "traced_busy_s": busy_s,
        "untraced_busy_s": untraced_busy_s,
        "self_sum_s": sum(row["self_s"] for row in timed.values()),
        "unattributed_s": unattributed_s,
    }
    table = {
        row: {
            "setup_calls": setup.get(row, {}).get("calls", 0),
            "setup_ms": setup.get(row, {}).get("incl_s", 0.0) * 1e3,
            "calls": timed.get(row, {}).get("calls", 0),
            "incl_ms_per_op": timed_ms(row),
            "self_ms_per_op": timed_ms(row, "self_s"),
        }
        for row in dict.fromkeys(target[0] for target in TARGETS)
    }
    return metrics, table, closure

"""Ordered, spawn-safe process-pool execution.

The contract that keeps parallel runs reproducible:

* **Pure tasks.**  A task is ``fn(item)`` where ``fn`` is a module-level
  (picklable) callable and ``item`` carries *everything* the task needs,
  including its own :class:`~repro.util.rng.RngFactory` child.  Nothing
  may depend on worker identity, scheduling, or wall clock.
* **Ordered merge.**  :meth:`DeterministicExecutor.map_ordered` returns
  results in item order — futures are gathered in submission order, so
  completion order never leaks into the output.
* **Spawn context.**  Workers are started with the ``spawn`` method on
  every platform: no inherited globals, no fork-unsafe BLAS state, and
  identical worker initialisation everywhere.
* **Shared statics.**  Large read-only inputs many tasks need (signal
  fields, drive records, trajectories) are published once into the
  executor's spool (:meth:`DeterministicExecutor.publish`) and travel as
  tiny refs; tasks check them out through :mod:`repro.runtime.shared`,
  inline and pooled alike, so task code is identical under any ``jobs``.
* **Metrics, events and spans travel with results.**  Every task —
  inline or pooled — runs against its own task-scoped
  :class:`~repro.obs.metrics.MetricsRegistry`,
  :class:`~repro.obs.events.EventLedger` and
  :class:`~repro.obs.tracing.SpanRecorder`; all three snapshots ship
  back with the task result and the parent merges/stitches them into
  its active registry / ledger / trace tree in submission order.
  Per-task scoping on *both* paths is what makes merged metrics, the
  exported provenance event stream, and the structural trace tree
  byte-identical for any ``jobs``: the same per-task subtotals are
  folded in the same order either way.  The task recorder's context is
  the task's *submission path* — ``parent_context + ("task", wave,
  index)`` — so span IDs derive from where the task sits in the plan,
  never from which worker ran it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Sequence

from repro.obs.events import EventLedger, get_ledger, use_ledger
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.tracing import SpanRecorder, get_recorder, use_recorder
from repro.runtime import shared as shared_store

__all__ = [
    "DeterministicExecutor",
    "fixed_chunks",
    "resolve_jobs",
]


def _init_worker(spool_dir: str) -> None:
    """Worker initializer: attach the executor's shared-statics spool."""
    shared_store.attach_spool(spool_dir)


def _warm_task(delay_s: float) -> int:
    """No-op task used by :meth:`DeterministicExecutor.warm_up`."""
    time.sleep(delay_s)
    return os.getpid()


def _metered_call(
    task: tuple[Callable[[Any], Any], Any, tuple]
) -> tuple[Any, dict, dict, dict]:
    """Run one task against fresh metrics + event + span scopes.

    Returns ``(result, metrics_snapshot, events_snapshot,
    spans_snapshot)``; the caller merges all three in submission order.
    The span recorder's context is the task's submission path, so every
    span ID it derives is a pure function of where the task sits in the
    plan — identical whether the task ran inline or on any worker.
    """
    fn, item, span_context = task
    registry = MetricsRegistry()
    ledger = EventLedger()
    recorder = SpanRecorder(context=span_context)
    with use_registry(registry), use_ledger(ledger), use_recorder(recorder):
        result = fn(item)
    return result, registry.snapshot(), ledger.snapshot(), recorder.snapshot()


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return max(os.cpu_count() or 1, 1)
    if jobs < 0:
        raise ValueError("jobs must be None or >= 0")
    return int(jobs)


class DeterministicExecutor:
    """Run waves of pure tasks with an ordered, reproducible merge.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` executes inline (no pool, no pickling),
        ``None``/``0`` uses all cores.

    Use as a context manager; the pool (if any) is created lazily on the
    first parallel wave and torn down on exit.
    """

    def __init__(self, jobs: int | None = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._spool: str | None = None
        self._previous_spool: str | None = None
        # Waves dispatched so far: part of every task's span context, so
        # two map_ordered calls never reuse task span IDs.
        self._waves = 0

    # -- context management -------------------------------------------
    def __enter__(self) -> "DeterministicExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._spool is not None:
            shared_store.attach_spool(self._previous_spool)
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None
            self._previous_spool = None

    # -- shared statics ------------------------------------------------
    def _spool_dir(self) -> str:
        if self._spool is None:
            self._spool = tempfile.mkdtemp(prefix="rups-spool-")
            # Attach in this process too, so inline tasks (jobs=1) and
            # parent-side publishes land in the executor's spool.
            self._previous_spool = shared_store.attach_spool(self._spool)
        return self._spool

    def publish(self, obj: Any) -> "shared_store.SharedRef":
        """Publish a heavy read-only payload into this executor's spool.

        Returns a tiny :class:`~repro.runtime.shared.SharedRef` to put
        in task items instead of the payload; tasks (inline or pooled)
        call :func:`~repro.runtime.shared.checkout` /
        :func:`~repro.runtime.shared.resolve`.  Refs are valid for the
        executor's lifetime — ``close()`` removes the spool.
        """
        return shared_store.publish(obj, spool_dir=self._spool_dir())

    def warm_up(self) -> "DeterministicExecutor":
        """Spin up the worker pool ahead of the first timed wave.

        Spawn-context workers pay interpreter start-up and imports once;
        benchmarks that want to measure steady-state throughput (and
        long-lived services reusing one executor across campaigns) call
        this to move that cost out of the measured region.
        """
        if self.jobs > 1:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_warm_task, 0.05) for _ in range(self.jobs)
            ]
            for future in futures:
                future.result()
        return self

    # -- execution -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=get_context("spawn"),
                initializer=_init_worker,
                initargs=(self._spool_dir(),),
            )
        return self._pool

    def map_ordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        """``[fn(item) for item in items]``, possibly across processes.

        Results always come back in item order.  With ``jobs=1`` the
        calls run inline in this process — the reference behaviour the
        parallel path must (and, by the determinism suite, does) match
        byte for byte.  Either way each task runs against its own
        metrics registry / event ledger / span recorder whose snapshots
        are merged into the caller's active scopes in submission order;
        task spans stitch into the caller's trace tree under whatever
        span is open around this call.
        """
        items = list(items)
        registry = get_registry()
        ledger = get_ledger()
        recorder = get_recorder()
        wave = self._waves
        self._waves += 1
        contexts = [
            recorder.context + ("task", wave, index)
            for index in range(len(items))
        ]
        if self.jobs == 1 or len(items) <= 1:
            results = []
            for item, context in zip(items, contexts):
                result, snapshot, events, spans = _metered_call(
                    (fn, item, context)
                )
                registry.merge(snapshot)
                ledger.merge(events)
                recorder.adopt(spans)
                results.append(result)
            return results
        pool = self._ensure_pool()
        futures = [
            pool.submit(_metered_call, (fn, item, context))
            for item, context in zip(items, contexts)
        ]
        results = []
        for future in futures:
            result, snapshot, events, spans = future.result()
            registry.merge(snapshot)
            ledger.merge(events)
            recorder.adopt(spans)
            results.append(result)
        return results


def fixed_chunks(items: Sequence[Any], size: int) -> list[list[Any]]:
    """Split ``items`` into contiguous chunks of a fixed ``size``.

    The layout depends only on ``len(items)`` and ``size`` — never on
    ``jobs`` — so a task that evaluates its whole chunk in one batched
    numeric kernel (whose floating-point result may legitimately depend
    on the batch composition) still produces byte-identical output under
    any worker count.  The last chunk is the ragged remainder.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    items = list(items)
    return [items[i : i + size] for i in range(0, len(items), size)] or [[]]

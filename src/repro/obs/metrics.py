"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Design constraints, in priority order:

1. **Hot-path cost.**  An increment is one dict ``get`` + one store; an
   observation adds one ``bisect``.  No locks: the registry is
   single-writer by construction (one process, one task at a time), the
   same discipline the deterministic runtime already imposes.
2. **Deterministic merge.**  :meth:`MetricsRegistry.snapshot` returns a
   plain picklable dict; :meth:`MetricsRegistry.merge` folds a snapshot
   in.  Counters and histogram buckets add, gauges are last-write-wins.
   Because the executor runs *every* task — inline or pooled — against
   its own task registry and merges snapshots in submission order, the
   merged state is bit-identical for any worker count: the float
   additions happen in the same order either way.
3. **No dependencies.**  Standard library only, so every subpackage may
   instrument itself without layering concerns.

The module keeps a stack of registries; :func:`use_registry` swaps the
active one (how the executor scopes a task), and the module-level
:func:`inc` / :func:`set_gauge` / :func:`observe` helpers write to
whichever registry is active.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_TIME_BUCKETS_S",
    "MetricsRegistry",
    "get_registry",
    "inc",
    "invariant_snapshot",
    "observe",
    "set_gauge",
    "use_registry",
]

#: Default latency buckets [s]: log-spaced from 1 us to 30 s, bracketing
#: every stage the paper times (1.2 ms SYN search .. 0.52 s exchange).
#: The sub-millisecond decades carry extra edges so streaming update
#: latencies (t-stream replays sit in the 0.1-5 ms range) resolve p99
#: instead of collapsing into one bucket.
DEFAULT_TIME_BUCKETS_S: tuple[float, ...] = (
    1e-6, 3e-6,
    1e-5, 3e-5,
    1e-4, 2e-4, 3e-4, 5e-4,
    1e-3, 2e-3, 3e-3, 5e-3,
    1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


class _Histogram:
    """Fixed-bucket histogram: counts per ``value <= edge`` bucket.

    ``counts`` has ``len(edges) + 1`` slots; the last is the overflow
    bucket (``value > edges[-1]``).
    """

    __slots__ = ("edges", "counts", "count", "sum", "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if len(edges) < 1:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class MetricsRegistry:
    """Counters, gauges and histograms for one process (or one task).

    All three families are created lazily on first write and keyed by
    dotted metric names (``"engine.cache.binding_index.hit"``).  Snapshots
    preserve insertion order, which — together with the executor's
    submission-ordered merge — is what keeps merged registries
    byte-identical across worker counts.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- writes --------------------------------------------------------
    def inc(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] | None = None,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``buckets`` fixes the edges on first use (default:
        :data:`DEFAULT_TIME_BUCKETS_S`); a later call may pass ``None``
        or the identical edges, anything else raises.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = _Histogram(buckets if buckets is not None else DEFAULT_TIME_BUCKETS_S)
            self._histograms[name] = hist
        elif buckets is not None and tuple(float(b) for b in buckets) != hist.edges:
            raise ValueError(f"histogram {name!r} already exists with different buckets")
        hist.observe(value)

    # -- reads ---------------------------------------------------------
    def counter(self, name: str) -> int | float:
        """Current value of counter ``name`` (0 when never written)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (None when never written)."""
        return self._gauges.get(name)

    def histogram_names(self) -> list[str]:
        """Names of all histograms, in creation order."""
        return list(self._histograms)

    def quantile(self, name: str, q: float) -> float:
        """Estimate the ``q``-quantile of histogram ``name``.

        Linear interpolation within the bucket holding the target rank:
        bucket ``i`` spans ``(edges[i-1], edges[i]]``, with the first
        bucket's lower bound taken as the observed minimum and the
        overflow bucket's upper bound as the observed maximum (a fixed-
        bucket histogram knows nothing tighter).  The result is clamped
        to ``[min, max]``; when every observation overflowed the last
        edge, the observed range is interpolated.  Returns NaN for an
        absent or empty histogram; raises for ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        hist = self._histograms.get(name)
        if hist is None or hist.count == 0:
            return float("nan")
        vmin, vmax = hist.min, hist.max
        if hist.count == hist.counts[-1]:
            # Every observation landed past the last edge: interior
            # buckets carry nothing, so interpolate the observed range.
            return min(max(vmin + (vmax - vmin) * q, vmin), vmax)
        target = q * hist.count
        cumulative = 0
        for i, bucket_count in enumerate(hist.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = vmin if i == 0 else hist.edges[i - 1]
                hi = vmax if i == len(hist.edges) else hist.edges[i]
                fraction = (target - cumulative) / bucket_count
                return min(max(lo + (hi - lo) * fraction, vmin), vmax)
            cumulative += bucket_count
        return vmax

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain, picklable, JSON-serialisable copy of the state."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges set.

        Merging task snapshots in submission order reproduces exactly the
        writes an inline run would have made, including float-addition
        order, so parallel and serial metric totals cannot drift apart.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            edges = tuple(float(e) for e in data["edges"])
            hist = self._histograms.get(name)
            if hist is None:
                hist = _Histogram(edges)
                self._histograms[name] = hist
            elif hist.edges != edges:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket edges differ"
                )
            hist.counts = [a + b for a, b in zip(hist.counts, data["counts"])]
            hist.count += data["count"]
            hist.sum += data["sum"]
            hist.min = min(hist.min, data["min"])
            hist.max = max(hist.max, data["max"])

    def clear(self) -> None:
        """Drop all recorded metrics."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: Histogram-name prefixes whose contents are wall-clock measurements:
#: real per run, but never reproducible between runs.
TIMING_HISTOGRAM_PREFIXES: tuple[str, ...] = ("span.",)

#: Counter-name prefixes that count *transport and cache placement*:
#: how many payloads were spooled, checked out, or rebuilt per worker
#: (``runtime.shared.*``) and how each process-local engine LRU saw its
#: request stream (``engine.cache.*``).  Both legitimately vary with
#: worker count and chunk layout even though every result — and every
#: cache-served value — is byte-identical.
PLACEMENT_COUNTER_PREFIXES: tuple[str, ...] = (
    "runtime.shared.",
    "engine.cache.",
)


def invariant_snapshot(
    snapshot: Mapping[str, Any],
    exclude_histogram_prefixes: Sequence[str] = TIMING_HISTOGRAM_PREFIXES,
    exclude_counter_prefixes: Sequence[str] = PLACEMENT_COUNTER_PREFIXES,
) -> dict[str, Any]:
    """The deterministic view of a metrics :meth:`~MetricsRegistry.snapshot`.

    Counters, gauges, and histograms of *measured quantities* (errors,
    sizes, counts) are pure functions of the workload and its seed — the
    runtime's determinism contract holds them byte-identical under any
    ``jobs``.  Two families are not: histograms of *wall clock* (the
    ``span.*`` names the tracer feeds), which are real but never
    reproducible, and counters of *placement* (the ``runtime.shared.*``
    spool/checkout/derived tallies and the ``engine.cache.*`` hit/miss
    tallies), which depend on how the work was spread over processes.
    Exporters that assert or diff byte-identity strip both with this
    helper.  The result is a plain dict of the same shape, with
    excluded series removed.
    """
    return {
        "counters": {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if not any(name.startswith(p) for p in exclude_counter_prefixes)
        },
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            name: {k: (list(v) if isinstance(v, list) else v) for k, v in data.items()}
            for name, data in snapshot.get("histograms", {}).items()
            if not any(name.startswith(p) for p in exclude_histogram_prefixes)
        },
    }


#: Active-registry stack; the bottom entry is the process default.
_STACK: list[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The registry all module-level helpers currently write to."""
    return _STACK[-1]


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the active one for the duration of the block."""
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.pop()


def inc(name: str, value: int | float = 1) -> None:
    """Increment a counter on the active registry."""
    counters = _STACK[-1]._counters
    counters[name] = counters.get(name, 0) + value


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry."""
    _STACK[-1]._gauges[name] = float(value)


def observe(
    name: str, value: float, buckets: Sequence[float] | None = None
) -> None:
    """Record a histogram observation on the active registry."""
    _STACK[-1].observe(name, value, buckets=buckets)

"""Sample statistics, answer digests and run environment for perfbench.

Percentiles come from the raw per-operation samples (never from
``repro.obs`` histogram buckets), and a tail percentile is only taken
where at least :data:`MIN_BEYOND` independent timings lie beyond it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import struct
import time

import numpy as np

#: Candidate tail percentiles, in per-mille, highest first.
TAIL_LADDER_PERMILLE = (999, 990, 980, 950, 900, 750, 500)
#: Independent timings that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(n_timings: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` timings beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` timings
    above it.  Integer arithmetic, so 1000 timings give exactly p99.
    """
    for permille in TAIL_LADDER_PERMILLE:
        if n_timings * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10.0
    return None


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile of raw samples (NaN when empty)."""
    if not samples:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def digest(distances: list[float | None]) -> str:
    """Short SHA-256 of the answered distances, in answer order.

    Unresolved answers hash as NaN.  Equal digests mean bit-identical
    answers; the digest is reported, never gated.
    """
    h = hashlib.sha256()
    for d in distances:
        h.update(struct.pack("<d", float("nan") if d is None else float(d)))
    return h.hexdigest()[:16]


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (``VmHWM``) of one process, in kB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children [MB].

    The sum of per-process peaks: an upper bound on the concurrent peak
    of a pooled run, exact for a single process.  Call it while worker
    processes are still alive.
    """
    pid = os.getpid()
    total_kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(c) for c in _children(pid))
    return total_kb / 1024.0


def process_age_s() -> float | None:
    """Seconds since this process started (``None`` without ``/proc``)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start_s = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_s
    except (OSError, ValueError, IndexError):
        return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (``None`` if not found)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(jobs: int) -> dict[str, object]:
    """What a result depends on besides the code: cores, BLAS, versions."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

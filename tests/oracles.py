"""Reference implementations the differential suites hold production to.

Production runs every SYN search through one fused sweep
(:func:`repro.core.syn._match_windows_many`).  The oracles here answer
the same questions the slow, obvious way:

* :func:`reference_suffix_matches` answers one sweep request with the
  per-window loop (:func:`~repro.core.correlation.reference_sliding_correlation`)
  over the request's clamped suffix;
* :func:`reference_search` swaps that loop in for the sweep, so every
  search entry point — ``seek_syn_point``, ``find_syn_points``, the
  batch and anchored forms, the engine — runs on it inside the block;
* :func:`feature_product_sweep` is the arithmetic of the sweep's
  fallback for degenerate-dominated targets: one product of
  z-normalised window feature rows.

``benchmarks/bench_kernels.py`` times its reference search with the same
oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core import syn
from repro.core.correlation import (
    correlation_matrix,
    normalized_window_features,
    reference_sliding_correlation,
)


def reference_suffix_matches(request):
    """The per-window loop over the clamped suffix of one sweep request."""
    query, ends, target, w, min_pos = request
    if target.n_marks < w:
        return [None] * len(ends)
    p0 = min(max(min_pos, 0), target.n_marks - w)
    out = []
    for end in ends:
        if end - w + 1 < 0 or end >= query.n_marks:
            out.append(None)
            continue
        scores = reference_sliding_correlation(
            query.power_dbm[:, end - w + 1 : end + 1], target.power_dbm[:, p0:]
        )
        best = int(np.argmax(scores))
        out.append((float(scores[best]), p0 + best + w - 1))
    return out


@contextmanager
def reference_search():
    """Run every SYN search inside the block on the per-window loop."""
    production = syn._match_windows_many
    syn._match_windows_many = lambda requests: [
        reference_suffix_matches(r) for r in requests
    ]
    try:
        yield
    finally:
        syn._match_windows_many = production


def feature_product_sweep(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Eq. (2) of ``query`` at every target position as one product of
    window feature rows — what the sweep computes for a target dominated
    by degenerate windows."""
    w = np.asarray(query).shape[1]
    return correlation_matrix(
        normalized_window_features(query, w), normalized_window_features(target, w)
    )[0]

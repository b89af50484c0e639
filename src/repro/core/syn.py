"""SYN-point seeking: the double-sliding cross-correlation check (§IV-D).

"a most-recent segment of S^{T1} is selected to compare with a window of
the same length sliding from the most-recent position l1 to the oldest
position lm on S^{T2} ... the most-recent context segment on S^{T2} is
then checked by a window sliding on S^{T1}.  ...  the window location
where the trajectory correlation coefficient reaches the maximum during
the double-sliding check process is treated as the optimal estimation of
a SYN point."

Complexity is the paper's O(m * w * k) per window sweep (m context
length, w window length, k channels).  Every search — one pair or a
campaign chunk, full or anchored on a prior lock — runs through one
sweep, :func:`_match_windows_many`, on the fused sweep of
:mod:`repro.core.correlation`.

Extensions implemented alongside the baseline search:

* **Flexible window** (§V-C): with a short context the window shrinks
  (>= 10 m) and the threshold relaxes, so a vehicle that just turned onto
  a new road can already identify related neighbours.
* **Multi-SYN extraction** (§VI-C): several most-recent query segments
  at a configurable stride, each yielding its own SYN point, for the
  aggregation schemes of Fig 10.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.config import RupsConfig
from repro.core.correlation import (
    _SUSPECT_FRACTION_LIMIT,
    SlidingWindowStats,
    correlation_matrix,
    fused_sweep_many,
    normalized_window_features,
    trajectory_correlation_rows,
)
from repro.core.trajectory import GsmTrajectory
from repro.obs.events import emit, use_query_id
from repro.obs.metrics import inc
from repro.obs.tracing import trace

__all__ = [
    "ANCHOR_GUARD_M",
    "SynPoint",
    "seek_syn_point",
    "find_syn_points",
    "find_syn_points_anchored",
    "find_syn_points_batch",
    "heading_agreement_rad",
    "heading_agreement_many",
]


#: Backwards guard band of an anchored sweep [m]: window positions up to
#: this far before the last lock are still scanned, absorbing mark-scale
#: lock jitter and odometry drift.
ANCHOR_GUARD_M = 50.0


def _query_scope(query_id: str | None):
    """Tag emitted provenance with a query id when one is known."""
    return use_query_id(query_id) if query_id is not None else nullcontext()


def heading_agreement_rad(
    own: GsmTrajectory, other: GsmTrajectory, syn: SynPoint
) -> float:
    """Mean absolute heading disagreement over a SYN point's window [rad].

    §IV resolves distances "by further comparing their geographical
    trajectories"; the headings of the matched segments provide an
    independent consistency check — two vehicles that truly shared the
    window drove the same curve, while a signal-lookalike on a different
    road generally did not.  Returns the mean absolute angular difference
    between the two heading series over the matched window.
    """
    w_marks = int(round(syn.window_length_m / own.spacing_m)) + 1

    def window(traj: GsmTrajectory, end_distance: float) -> np.ndarray:
        end_idx = int(
            round((end_distance - traj.geo.start_distance_m) / traj.spacing_m)
        )
        start_idx = end_idx - w_marks + 1
        if start_idx < 0 or end_idx >= traj.geo.n_marks:
            raise ValueError("SYN window does not fit inside the trajectory")
        return traj.geo.headings_rad[start_idx : end_idx + 1]

    h_own = window(own, syn.own_distance_m)
    h_other = window(other, syn.other_distance_m)
    delta = np.arctan2(np.sin(h_own - h_other), np.cos(h_own - h_other))
    return float(np.mean(np.abs(delta)))


def heading_agreement_many(
    own: GsmTrajectory,
    other: GsmTrajectory,
    syn_points: list[SynPoint] | tuple[SynPoint, ...],
) -> np.ndarray:
    """:func:`heading_agreement_rad` for a whole batch of SYN points.

    One fancy-indexed gather over the heading series per distinct window
    size (all points of one search share theirs) instead of a Python
    loop per point.  A window that does not fit inside either trajectory
    yields ``inf``, so thresholding the result rejects it — the same
    outcome as the scalar function raising ``ValueError``.
    """
    out = np.full(len(syn_points), np.inf)
    if not syn_points:
        return out
    w_all = np.array(
        [int(round(s.window_length_m / own.spacing_m)) + 1 for s in syn_points]
    )
    own_end = np.array(
        [
            int(round((s.own_distance_m - own.geo.start_distance_m) / own.spacing_m))
            for s in syn_points
        ]
    )
    other_end = np.array(
        [
            int(
                round(
                    (s.other_distance_m - other.geo.start_distance_m)
                    / other.spacing_m
                )
            )
            for s in syn_points
        ]
    )
    for w in np.unique(w_all):
        rows = np.flatnonzero(w_all == w)
        oe, te = own_end[rows], other_end[rows]
        fits = (
            (oe - w + 1 >= 0)
            & (oe < own.geo.n_marks)
            & (te - w + 1 >= 0)
            & (te < other.geo.n_marks)
        )
        if not fits.any():
            continue
        oe, te = oe[fits], te[fits]
        span = np.arange(w) - (w - 1)  # window-relative mark offsets
        h_own = own.geo.headings_rad[oe[:, None] + span]
        h_other = other.geo.headings_rad[te[:, None] + span]
        delta = np.arctan2(np.sin(h_own - h_other), np.cos(h_own - h_other))
        out[rows[fits]] = np.mean(np.abs(delta), axis=1)
    return out


@dataclass(frozen=True)
class SynPoint:
    """A matched overlapped segment between two trajectories.

    All distances are odometer readings of the respective vehicle at the
    *end mark* of the matched window (the most recent point both vehicles
    are believed to have shared).

    Attributes
    ----------
    score:
        Trajectory correlation coefficient (eq. 2) at the match.
    own_distance_m:
        Own odometer reading at the SYN point.
    other_distance_m:
        Other vehicle's odometer reading at the SYN point.
    own_offset_m:
        Distance from the SYN point to own current position (>= 0).
    other_offset_m:
        Distance from the SYN point to the other vehicle's current
        position (>= 0).
    window_length_m:
        Length of the matched window.
    query_side:
        ``"own"`` if the fixed query segment came from the own
        trajectory, ``"other"`` otherwise (the two passes of the
        double-sliding check).
    """

    score: float
    own_distance_m: float
    other_distance_m: float
    own_offset_m: float
    other_offset_m: float
    window_length_m: float
    query_side: str


def _rescore_winners(
    query: GsmTrajectory,
    query_end_marks: list[int],
    target: GsmTrajectory,
    window_marks: int,
    valid: list[int],
    best: np.ndarray,
    results: list[tuple[float, int] | None],
) -> None:
    """Exactly re-score each sweep's argmax winner into ``results``.

    The double-sided search breaks own/other ties by strict argmax
    order, and :func:`trajectory_correlation` is bitwise-symmetric in
    its arguments — so re-scoring every winner with the pairwise
    reference scorer keeps side ties exact (a mirror-symmetric match
    scores identically from either side) where the sweep's matmul
    rounding would perturb them.
    """
    if not valid:
        return
    qs = np.stack(
        [
            query.power_dbm[
                :,
                query_end_marks[i] - window_marks + 1 : query_end_marks[i] + 1,
            ]
            for i in valid
        ]
    )
    ts = np.stack(
        [
            target.power_dbm[:, int(b) : int(b) + window_marks]
            for b in best
        ]
    )
    exact = trajectory_correlation_rows(qs, ts)
    for j, i in enumerate(valid):
        results[i] = (float(exact[j]), int(best[j]) + window_marks - 1)


def _match_windows_many(
    requests: list[tuple[GsmTrajectory, list[int], GsmTrajectory, int, int]],
) -> list[list[tuple[float, int] | None]]:
    """Best eq.-2 score of each query window slid over its target — the
    one SYN sweep every search runs through.

    Each request is ``(query, query_end_marks, target, window_marks,
    min_target_pos)``.  Per request the result holds one entry per query
    end mark: ``(score, target_end_mark)``, or ``None`` when that query
    window does not fit (a target shorter than one window voids every
    entry).  Only target window start positions ``>= min_target_pos``
    are scanned, clamped into range so at least one position always is:
    ``0`` sweeps the whole target, a positive floor is the streaming
    rung's anchored suffix (see :func:`find_syn_points_batch`).  Winners
    carry absolute positions and are re-scored exactly (see
    :func:`_rescore_winners`), so a suffix that contains the full
    sweep's winner returns the same match.

    Every request goes to one
    :func:`~repro.core.correlation.fused_sweep_many` call over the
    sliding statistics of the target's scanned suffix, built per
    request: the whole target for a full sweep, O(n * suffix) for an
    anchored one.  A target (or suffix) dominated by degenerate windows
    is scored by the feature-matrix product instead, built for that
    request and not kept.
    """
    results: list[list[tuple[float, int] | None]] = [
        [None] * len(ends) for (_, ends, _, _, _) in requests
    ]
    sweeps = []
    for idx, (query, ends, target, w, min_pos) in enumerate(requests):
        if target.n_marks < w:
            continue
        valid = [
            i for i, end in enumerate(ends) if end - w + 1 >= 0 and end < query.n_marks
        ]
        if not valid:
            continue
        starts = np.array([ends[i] - w + 1 for i in valid], dtype=np.intp)
        p0 = min(max(int(min_pos), 0), target.n_marks - w)
        stats = SlidingWindowStats(target.power_dbm[:, p0:], w)
        if stats.suspect_fraction <= _SUSPECT_FRACTION_LIMIT:
            sweeps.append((idx, valid, starts, p0, stats))
            continue
        scores = correlation_matrix(
            normalized_window_features(query.power_dbm, w)[starts],
            normalized_window_features(target.power_dbm[:, p0:], w),
        )
        best = np.argmax(scores, axis=1) + p0
        _rescore_winners(*requests[idx][:4], valid, best, results[idx])

    if sweeps:
        scored = fused_sweep_many(
            [
                (requests[idx][0].power_dbm, starts, stats)
                for idx, _, starts, _, stats in sweeps
            ]
        )
        for (idx, valid, _, p0, _), scores in zip(sweeps, scored):
            best = np.argmax(scores, axis=1) + p0
            _rescore_winners(*requests[idx][:4], valid, best, results[idx])
    return results


def _syn_from_match(
    own: GsmTrajectory,
    other: GsmTrajectory,
    own_end_mark: int,
    other_end_mark: int,
    score: float,
    window_marks: int,
    query_side: str,
) -> SynPoint:
    own_dist = float(own.geo.distances_m[own_end_mark])
    other_dist = float(other.geo.distances_m[other_end_mark])
    return SynPoint(
        score=score,
        own_distance_m=own_dist,
        other_distance_m=other_dist,
        own_offset_m=float(own.geo.end_distance_m - own_dist),
        other_offset_m=float(other.geo.end_distance_m - other_dist),
        window_length_m=(window_marks - 1) * own.spacing_m,
        query_side=query_side,
    )


def _effective_window(
    own: GsmTrajectory, other: GsmTrajectory, config: RupsConfig
) -> tuple[int, float] | None:
    """Window size in marks and the matching threshold (§V-C).

    Returns ``None`` when even the flexible minimum does not fit.
    """
    available = min(own.n_marks, other.n_marks)
    window_marks = config.window_marks
    if available >= window_marks:
        return window_marks, config.coherency_threshold
    if not config.flexible_window:
        return None
    min_marks = int(round(config.min_window_length_m / config.spacing_m)) + 1
    if available < min_marks:
        return None
    window_marks = available
    length_m = (window_marks - 1) * config.spacing_m
    return window_marks, config.threshold_for_window(length_m)


def _emit_no_window(
    own: GsmTrajectory, other: GsmTrajectory, config: RupsConfig
) -> None:
    """Provenance for a search that never ran: no window fits (§V-C)."""
    emit(
        "syn.no_window",
        own_marks=own.n_marks,
        other_marks=other.n_marks,
        window_marks=config.window_marks,
        flexible_window=config.flexible_window,
        min_window_length_m=config.min_window_length_m,
    )


def _check_comparable(own: GsmTrajectory, other: GsmTrajectory) -> None:
    if own.spacing_m != other.spacing_m:
        raise ValueError("trajectories must share a mark spacing")
    if not np.array_equal(own.channel_ids, other.channel_ids):
        raise ValueError(
            "trajectories must be reduced to the same channel set first "
            "(see RupsEngine or GsmTrajectory.select_channels)"
        )


def _assemble_candidates(
    own: GsmTrajectory,
    other: GsmTrajectory,
    own_ends: list[int],
    other_ends: list[int],
    own_matches: list[tuple[float, int] | None],
    other_matches: list[tuple[float, int] | None],
    window_marks: int,
) -> list[SynPoint | None]:
    """Per-offset winner across the two query sides (ties keep own)."""
    best_per_offset: list[SynPoint | None] = []
    for k in range(len(own_ends)):
        best: SynPoint | None = None
        if own_matches[k] is not None:
            score, other_end = own_matches[k]
            best = _syn_from_match(
                own, other, own_ends[k], other_end, score, window_marks, "own"
            )
        if other_matches[k] is not None:
            score, own_end = other_matches[k]
            syn = _syn_from_match(
                own, other, own_end, other_ends[k], score, window_marks, "other"
            )
            if best is None or syn.score > best.score:
                best = syn
        best_per_offset.append(best)
    return best_per_offset


def seek_syn_point(
    own: GsmTrajectory,
    other: GsmTrajectory,
    config: RupsConfig | None = None,
) -> SynPoint | None:
    """The paper's double-sliding check: one optimal SYN point or None.

    Pass 1 slides the most-recent own segment over the other trajectory;
    pass 2 slides the most-recent other segment over the own trajectory.
    The global maximum above the coherency threshold wins; below it the
    trajectories are declared unrelated.  A single-offset
    :func:`find_syn_points` search.
    """
    return next(iter(find_syn_points(own, other, config, n_points=1)), None)


def find_syn_points(
    own: GsmTrajectory,
    other: GsmTrajectory,
    config: RupsConfig | None = None,
    n_points: int | None = None,
) -> list[SynPoint]:
    """Locate multiple SYN points from staggered query segments (§VI-C).

    Query windows end at the most recent mark and every ``syn_stride_m``
    behind it, alternating between the two trajectories as query side
    (so the search degrades gracefully whichever vehicle is in front).
    Returns the accepted SYN points, most recent first; empty when the
    trajectories appear unrelated.  A batch-of-one
    :func:`find_syn_points_batch` search.
    """
    return find_syn_points_batch([(own, other)], config, n_points)[0]


def find_syn_points_anchored(
    own: GsmTrajectory,
    other: GsmTrajectory,
    anchor: SynPoint,
    config: RupsConfig | None = None,
    n_points: int | None = None,
    guard_m: float = ANCHOR_GUARD_M,
) -> list[SynPoint]:
    """:func:`find_syn_points` with both sweeps anchored by a prior lock:
    a batch-of-one :func:`find_syn_points_batch` search with ``anchor``
    (see there for the suffix rule and ``guard_m``)."""
    return find_syn_points_batch(
        [(own, other)], config, n_points, anchors=[anchor], guard_m=guard_m
    )[0]


def _anchor_floor(
    target: GsmTrajectory,
    anchor_distance_m: float,
    guard_m: float,
    window_marks: int,
) -> int:
    """First target window start an anchored sweep scans: the window
    whose end mark lies ``guard_m`` before the anchored odometer reading."""
    end_mark = int(
        np.floor(
            (anchor_distance_m - guard_m - target.geo.start_distance_m)
            / target.spacing_m
        )
    )
    return end_mark - (window_marks - 1)


def find_syn_points_batch(
    pairs: list[tuple[GsmTrajectory, GsmTrajectory]],
    config: RupsConfig | None = None,
    n_points: int | None = None,
    query_ids: list[str | None] | None = None,
    anchors: list[SynPoint | None] | None = None,
    guard_m: float = ANCHOR_GUARD_M,
) -> list[list[SynPoint]]:
    """:func:`find_syn_points` for many ``(own, other)`` pairs at once.

    All pairs' sweep requests — both query sides, every staggered offset
    — feed the cross-pair sweep (:func:`_match_windows_many`) together,
    so a campaign chunk or an all-pairs convoy scan costs a handful of
    block matmuls instead of two per pair.  Per pair the accepted SYN
    points, counters, and provenance events are exactly those of the
    per-pair function; ``query_ids`` (optional, one per pair) tags each
    pair's events as :func:`~repro.obs.events.use_query_id` would.

    ``anchors`` (optional, one per pair) anchors a pair's sweeps on a
    prior lock — the streaming fast path (§V-B).  With the most recent
    accepted SYN point as anchor, each query side scans only target
    window positions whose end mark lies at or after the anchored
    odometer reading minus ``guard_m``: odometer distances never
    decrease, so the newly shared segment can only sit there, and an
    update costs the guard band plus the marks travelled since the
    lock, not the whole context.  Thresholds, counters, and provenance
    match the full search; anchored searches also count
    ``syn.searches.anchored`` and their events carry ``anchored=True``.
    The restricted argmax can miss a better peak outside the band
    (e.g. after severe odometry slip), which surfaces as an unresolved
    estimate — callers must then retry the full search, exactly as the
    :class:`~repro.core.tracking.RupsTracker` fallback ladder does.
    """
    config = config or RupsConfig()
    n_points = config.n_syn_points if n_points is None else int(n_points)
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if guard_m < 0:
        raise ValueError("guard_m must be non-negative")
    ids: list[str | None] = (
        [None] * len(pairs) if query_ids is None else list(query_ids)
    )
    if len(ids) != len(pairs):
        raise ValueError("query_ids must match pairs in length")
    pair_anchors = [None] * len(pairs) if anchors is None else list(anchors)
    if len(pair_anchors) != len(pairs):
        raise ValueError("anchors must match pairs in length")
    stride_marks = max(int(round(config.syn_stride_m / config.spacing_m)), 1)
    offsets = [k * stride_marks for k in range(n_points)]

    # Phase A: per-pair admission — comparability, window sizing, the
    # no-window provenance, and the anchored sweep floors.
    requests: list[tuple[GsmTrajectory, list[int], GsmTrajectory, int, int]] = []
    metas: list[tuple[int, float, list[int], list[int], int] | None] = []
    for (own, other), query_id, anchor in zip(pairs, ids, pair_anchors):
        with _query_scope(query_id):
            _check_comparable(own, other)
            inc("syn.searches")
            if anchor is not None:
                inc("syn.searches.anchored")
            eff = _effective_window(own, other, config)
            if eff is None:
                inc("syn.no_window")
                _emit_no_window(own, other, config)
                metas.append(None)
                continue
            window_marks, threshold = eff
            inc("syn.windows", len(offsets))
        own_ends = [own.n_marks - 1 - off for off in offsets]
        other_ends = [other.n_marks - 1 - off for off in offsets]
        own_floor = other_floor = 0
        if anchor is not None:
            own_floor = _anchor_floor(
                other, anchor.other_distance_m, guard_m, window_marks
            )
            other_floor = _anchor_floor(
                own, anchor.own_distance_m, guard_m, window_marks
            )
        metas.append(
            (window_marks, threshold, own_ends, other_ends, len(requests))
        )
        requests.append((own, own_ends, other, window_marks, own_floor))
        requests.append((other, other_ends, own, window_marks, other_floor))

    # Phase B: one cross-pair sweep, then per-pair assembly + acceptance.
    with trace("syn.sweep"):
        matches = _match_windows_many(requests)
    out: list[list[SynPoint]] = []
    for (own, other), query_id, anchor, meta in zip(pairs, ids, pair_anchors, metas):
        if meta is None:
            out.append([])
            continue
        window_marks, threshold, own_ends, other_ends, first = meta
        with _query_scope(query_id):
            with trace("syn.search"):
                candidates = _assemble_candidates(
                    own,
                    other,
                    own_ends,
                    other_ends,
                    matches[first],
                    matches[first + 1],
                    window_marks,
                )
            accepted = [
                syn
                for syn in candidates
                if syn is not None and syn.score >= threshold
            ]
            scored = sum(1 for syn in candidates if syn is not None)
            emit(
                "syn.search",
                windows=len(offsets),
                window_marks=window_marks,
                threshold=threshold,
                shrunk=window_marks < config.window_marks,
                peaks=[None if syn is None else syn.score for syn in candidates],
                accepted=len(accepted),
                rejected_threshold=scored - len(accepted),
                **({} if anchor is None else {"anchored": True}),
            )
            inc("syn.rejected.threshold", scored - len(accepted))
            inc("syn.accepted", len(accepted))
            if len(accepted) > 1:
                inc("syn.multi_syn_yields")
        out.append(accepted)
    return out

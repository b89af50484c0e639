"""Eq. (2): the trajectory correlation coefficient, plain and sliding.

For trajectories ``S1, S2`` of width n channels and equal length,

    r(S1, S2) = (1/n) * sum_i pearson(C1_i, C2_i) + pearson(mean(S1), mean(S2))

where ``C_i`` are per-channel RSSI-over-distance series and ``mean(S)``
is the vector of per-channel averages.  The first term rewards matching
*spatial structure* per channel, the second matching *spectral profile*
across channels; the paper motivates keeping both (§III-C).  The value
range is [-2, 2], hence a coherency threshold of 1.2.

One sliding sweep evaluates eq. (2) for fixed query segments against
every window position of a longer trajectory — the hot path of the SYN
search (§V-A, O(m * w * k)).  Every SYN search (cold queries, fleet
ticks, tracking updates, the anchored streaming rung) runs through
:func:`fused_sweep_many`:

* window means and variances come from per-channel prefix sums in
  O(n * m), the cross terms from one grouped matmul of the centred
  query rows against a strided window view, and only the ``(n_pos, n)``
  sliding statistics (see :class:`SlidingWindowStats`) are kept per
  trajectory — never a per-window feature tensor (tens of MB per
  trajectory at paper-sized contexts);
* prefix-sum variances are ill-conditioned exactly where eq. (2) gates
  windows (near-zero variance), so any window whose prefix-sum variance
  falls below a conservative guard is *recomputed exactly* from its raw
  values, and degenerate windows gate bit-for-bit like
  :func:`trajectory_correlation`;
* a target dominated by such windows falls back to the feature-matrix
  product: :func:`normalized_window_features` z-normalises every window
  into a row so eq. (2) between two windows is a dot product, and
  :func:`correlation_matrix` scores all pairs in one BLAS matmul.

:func:`sliding_trajectory_correlation` is the single-query form of the
sweep.  :func:`reference_sliding_correlation` — a per-window Python loop
calling :func:`trajectory_correlation` at every position — is the ground
truth the differential suites (``tests/test_kernel_equivalence.py``)
hold the sweep to.

Degenerate windows are defined everywhere: a channel whose window has
(near-)zero variance — or contains NaN from un-interpolated scan gaps —
contributes exactly 0 to the channel average, and a degenerate
cross-channel mean profile zeroes the second term.  The sweep, its
fallback and the reference loop apply the same per-side rule, so they
agree up to floating-point association error (< 1e-12 in practice; the
harness asserts 1e-9), and the SYN search re-scores every sweep winner
exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SlidingWindowStats",
    "correlation_matrix",
    "fused_sweep",
    "fused_sweep_many",
    "normalized_window_features",
    "reference_sliding_correlation",
    "sliding_trajectory_correlation",
    "trajectory_correlation",
    "trajectory_correlation_rows",
]

# Sum-of-squared-deviations below this counts as zero variance.  The
# comparison is False for NaN, so windows with missing data are gated
# exactly like constant ones.
_EPS = 1e-12


def trajectory_correlation(s1: np.ndarray, s2: np.ndarray) -> float:
    """Eq. (2) for two equal-shape trajectories ``(n_channels, n_marks)``.

    A channel with zero variance *on either side* (or NaN anywhere in its
    window) contributes 0 to the channel mean — it carries no spatial
    information — matching the convention of
    :func:`~repro.core.power_vector.pearson_correlation`; likewise the
    cross-channel term is 0 when either mean profile is degenerate.  The
    result is always a finite float.
    """
    a = np.asarray(s1, dtype=float)
    b = np.asarray(s2, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(
            f"trajectories must be equal-shape 2-D, got {a.shape} vs {b.shape}"
        )
    if a.shape[1] < 2:
        raise ValueError("trajectories need at least two marks")
    ac = a - a.mean(axis=1, keepdims=True)
    bc = b - b.mean(axis=1, keepdims=True)
    num = np.einsum("ij,ij->i", ac, bc)
    a_ss = np.einsum("ij,ij->i", ac, ac)
    b_ss = np.einsum("ij,ij->i", bc, bc)
    live = (a_ss > _EPS) & (b_ss > _EPS)  # False for NaN too
    with np.errstate(invalid="ignore", divide="ignore"):
        per_channel = np.where(live, num / np.sqrt(np.where(live, a_ss * b_ss, 1.0)), 0.0)
    term1 = float(per_channel.mean())

    ma = a.mean(axis=1)
    mb = b.mean(axis=1)
    mac = ma - ma.mean()
    mbc = mb - mb.mean()
    ma_ss = float(np.dot(mac, mac))
    mb_ss = float(np.dot(mbc, mbc))
    if ma_ss > _EPS and mb_ss > _EPS:
        term2 = float(np.dot(mac, mbc) / np.sqrt(ma_ss * mb_ss))
    else:
        term2 = 0.0
    return term1 + term2


def trajectory_correlation_rows(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """:func:`trajectory_correlation` over stacked pairs ``(p, n, w)``.

    Entry ``i`` is bitwise ``trajectory_correlation(s1[i], s2[i])``: the
    reductions run per pair over the same contiguous axes in the same
    order, so batching changes the Python call count, not the
    arithmetic.  The hot re-scoring path uses this to score all sweep
    winners in one pass.
    """
    a = np.asarray(s1, dtype=float)
    b = np.asarray(s2, dtype=float)
    if a.shape != b.shape or a.ndim != 3:
        raise ValueError(
            f"stacks must be equal-shape 3-D, got {a.shape} vs {b.shape}"
        )
    if a.shape[2] < 2:
        raise ValueError("trajectories need at least two marks")
    ac = a - a.mean(axis=2, keepdims=True)
    bc = b - b.mean(axis=2, keepdims=True)
    num = np.einsum("pij,pij->pi", ac, bc)
    a_ss = np.einsum("pij,pij->pi", ac, ac)
    b_ss = np.einsum("pij,pij->pi", bc, bc)
    live = (a_ss > _EPS) & (b_ss > _EPS)  # False for NaN too
    with np.errstate(invalid="ignore", divide="ignore"):
        per_channel = np.where(
            live, num / np.sqrt(np.where(live, a_ss * b_ss, 1.0)), 0.0
        )
    term1 = per_channel.mean(axis=1)

    ma = a.mean(axis=2)
    mb = b.mean(axis=2)
    mac = ma - ma.mean(axis=1, keepdims=True)
    mbc = mb - mb.mean(axis=1, keepdims=True)
    out = np.empty(len(term1))
    for i, t1 in enumerate(term1):
        # Per-pair BLAS dots, exactly as the scalar scorer does them.
        ma_ss = float(np.dot(mac[i], mac[i]))
        mb_ss = float(np.dot(mbc[i], mbc[i]))
        if ma_ss > _EPS and mb_ss > _EPS:
            term2 = float(np.dot(mac[i], mbc[i]) / np.sqrt(ma_ss * mb_ss))
        else:
            term2 = 0.0
        out[i] = float(t1) + term2
    return out


def _validate_sliding(query: np.ndarray, target: np.ndarray) -> tuple[int, int, int]:
    """Shared shape checks; returns ``(n_channels, w, m)``."""
    if query.ndim != 2 or target.ndim != 2:
        raise ValueError("query and target must be 2-D")
    n, w = query.shape
    if target.shape[0] != n:
        raise ValueError(
            f"channel counts differ: query {n}, target {target.shape[0]}"
        )
    m = target.shape[1]
    if w < 2:
        raise ValueError("query needs at least two marks")
    if m < w:
        raise ValueError(f"target ({m} marks) shorter than query ({w})")
    return n, w, m


def reference_sliding_correlation(
    query: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Eq. (2) of ``query`` at every target position, one window at a time.

    The O(m * w * k) loop of §V-A, kept as the semantic reference for
    the sweep: position ``p`` is literally
    ``trajectory_correlation(query, target[:, p:p+w])``.
    """
    q = np.asarray(query, dtype=float)
    t = np.asarray(target, dtype=float)
    _, w, m = _validate_sliding(q, t)
    return np.array(
        [trajectory_correlation(q, t[:, p : p + w]) for p in range(m - w + 1)]
    )


def normalized_window_features(
    trajectory: np.ndarray, window_marks: int
) -> np.ndarray:
    """Z-normalised feature rows for every candidate window of a trajectory.

    Row ``p`` encodes window ``trajectory[:, p:p+w]`` such that eq. (2)
    between two windows is the plain dot product of their rows:

    * the first ``n*w`` columns hold each channel's window centred and
      scaled to unit norm, weighted ``1/sqrt(n)`` — the dot of two such
      blocks is the per-channel Pearson average (term 1);
    * the last ``n`` columns hold the cross-channel mean profile, centred
      and scaled to unit norm — their dot is term 2.

    Degenerate channels/profiles (zero variance or NaN) become all-zero
    blocks, i.e. contribute exactly 0, the same rule as
    :func:`trajectory_correlation`.

    Returns a ``(m - w + 1, n*w + n)`` float array.
    """
    t = np.asarray(trajectory, dtype=float)
    if t.ndim != 2:
        raise ValueError("trajectory must be 2-D (channels x marks)")
    n, m = t.shape
    w = int(window_marks)
    if w < 2:
        raise ValueError("window needs at least two marks")
    if m < w:
        raise ValueError(f"trajectory ({m} marks) shorter than window ({w})")
    n_pos = m - w + 1

    windows = sliding_window_view(t, w, axis=1)  # (n, n_pos, w) view
    win_mean = windows.mean(axis=2)  # (n, n_pos)

    features = np.empty((n_pos, n * w + n))
    spatial = features[:, : n * w].reshape(n_pos, n, w)
    # Centre every window in place in the output buffer (one big alloc).
    np.subtract(windows.transpose(1, 0, 2), win_mean.T[:, :, None], out=spatial)
    ss = np.einsum("pnw,pnw->pn", spatial, spatial)  # (n_pos, n)
    live = ss > _EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(live, 1.0 / np.sqrt(np.where(live, ss, 1.0) * n), 0.0)
    spatial *= scale[:, :, None]
    if not live.all():
        spatial[~live] = 0.0  # NaN * 0 must end up 0, not NaN

    profile = features[:, n * w :]  # (n_pos, n)
    np.subtract(win_mean.T, win_mean.mean(axis=0)[:, None], out=profile)
    mss = np.einsum("pn,pn->p", profile, profile)
    m_live = mss > _EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        m_scale = np.where(m_live, 1.0 / np.sqrt(np.where(m_live, mss, 1.0)), 0.0)
    profile *= m_scale[:, None]
    if not m_live.all():
        profile[~m_live] = 0.0
    return features


def correlation_matrix(
    features_a: np.ndarray, features_b: np.ndarray
) -> np.ndarray:
    """Eq.-(2) scores between every window pair, as one matmul.

    ``features_*`` are :func:`normalized_window_features` matrices (or row
    subsets thereof) of two trajectories with the same channel set and
    window length.  Entry ``(i, j)`` is the trajectory correlation
    coefficient between window ``i`` of A and window ``j`` of B.
    """
    fa = np.asarray(features_a, dtype=float)
    fb = np.asarray(features_b, dtype=float)
    if fa.ndim != 2 or fb.ndim != 2 or fa.shape[1] != fb.shape[1]:
        raise ValueError(
            "feature matrices must be 2-D with equal width "
            f"(got {fa.shape} vs {fb.shape})"
        )
    return fa @ fb.T


# ----------------------------------------------------------------------
# the sweep: prefix-sum sliding statistics + grouped matmuls
# ----------------------------------------------------------------------

#: Relative guard under which a prefix-sum window variance is considered
#: numerically untrustworthy and recomputed exactly from the raw window.
#: Prefix-sum cancellation error is bounded by ~m * eps of the running
#: magnitude (~1e-12 relative at campaign sizes); 1e-7 leaves five orders
#: of margin while only flagging truly near-degenerate windows.
_SUSPECT_RTOL = 1e-7
#: When more than this fraction of windows is suspect (e.g. wholly
#: constant trajectories), per-window exact recomputation would cost more
#: than the feature-matrix product — the sweep falls back to it instead.
_SUSPECT_FRACTION_LIMIT = 0.25


class SlidingWindowStats:
    """Per-window statistics of one trajectory for the sweep.

    For a ``(n, m)`` trajectory and window length ``w`` (``n_pos = m - w
    + 1`` positions), holds everything the fused sweep needs about the
    *target* side, O(n * n_pos) memory in place of the
    O(n_pos * n * w) feature matrix of :func:`normalized_window_features`:

    ``centered``
        ``(n, m)`` row-centred trajectory with NaN zeroed — the matmul
        operand (window dead/alive state carries the NaN information).
    ``win_mean_c``
        ``(n, n_pos)`` mean of each centred window (prefix sums; suspect
        windows patched with the exact mean).
    ``win_ss``
        ``(n, n_pos)`` sum of squared deviations of each window
        (prefix sums; suspect windows patched exactly).
    ``live``
        ``(n, n_pos)`` bool: window NaN-free and ``win_ss`` above the
        degeneracy epsilon — exactly eq. (2)'s per-channel gate.
    ``profile``
        ``(n_pos, n)`` cross-channel mean profile of each position,
        centred and scaled to unit norm (zero rows where degenerate) —
        identical in meaning to the last ``n`` feature columns of
        :func:`normalized_window_features`.
    """

    __slots__ = (
        "centered",
        "live",
        "n_pos",
        "profile",
        "suspect_fraction",
        "win_mean_c",
        "win_ss",
        "window_marks",
    )

    def __init__(self, trajectory: np.ndarray, window_marks: int) -> None:
        t = np.asarray(trajectory, dtype=float)
        if t.ndim != 2:
            raise ValueError("trajectory must be 2-D (channels x marks)")
        n, m = t.shape
        w = int(window_marks)
        if w < 2:
            raise ValueError("window needs at least two marks")
        if m < w:
            raise ValueError(f"trajectory ({m} marks) shorter than window ({w})")
        n_pos = m - w + 1
        self.window_marks = w
        self.n_pos = n_pos

        nan_mask = np.isnan(t)
        valid = np.maximum((~nan_mask).sum(axis=1), 1)
        row_mean = np.where(
            nan_mask.all(axis=1), 0.0, np.nansum(t, axis=1) / valid
        )
        u = t - row_mean[:, None]
        u[nan_mask] = 0.0
        self.centered = u

        # Prefix sums over marks; window p covers marks [p, p + w).
        def win_sum(x: np.ndarray) -> np.ndarray:
            c = np.cumsum(x, axis=1)
            out = c[:, w - 1 :].copy()
            out[:, 1:] -= c[:, : n_pos - 1]
            return out

        nan_free = win_sum(nan_mask.astype(float)) == 0.0
        s1 = win_sum(u)
        s2 = win_sum(u * u)
        mean_c = s1 / w
        ss = s2 - w * mean_c * mean_c

        # Exactly recompute windows whose prefix-sum variance is within
        # cancellation noise of the degeneracy gate.
        guard = _SUSPECT_RTOL * (1.0 + s2)
        suspect = nan_free & (ss <= guard)
        n_suspect = int(np.count_nonzero(suspect))
        self.suspect_fraction = n_suspect / max(n * n_pos, 1)
        if 0 < n_suspect and self.suspect_fraction <= _SUSPECT_FRACTION_LIMIT:
            sus_c, sus_p = np.nonzero(suspect)
            windows = sliding_window_view(u, w, axis=1)[sus_c, sus_p]
            mu_e = windows.mean(axis=1)
            dev = windows - mu_e[:, None]
            mean_c[sus_c, sus_p] = mu_e
            ss[sus_c, sus_p] = np.einsum("sw,sw->s", dev, dev)

        self.win_mean_c = mean_c
        self.win_ss = ss
        self.live = nan_free & (ss > _EPS)

        # Cross-channel mean profile per position (term 2 operand).  Any
        # channel with a NaN in its window poisons that position's
        # profile — normalized_window_features' NaN-propagating mean does
        # the same — and near-degenerate profiles are recomputed exactly.
        win_mean = mean_c + row_mean[:, None]
        profile = win_mean.T - win_mean.mean(axis=0)[:, None]
        pos_dead = ~nan_free.all(axis=0)
        pss = np.einsum("pn,pn->p", profile, profile)
        p_guard = _SUSPECT_RTOL * (1.0 + np.einsum("pn,pn->p", win_mean.T, win_mean.T))
        p_suspect = ~pos_dead & (pss <= p_guard)
        if p_suspect.any():
            t_zeroed = np.where(nan_mask, 0.0, t)
            sw = sliding_window_view(t_zeroed, w, axis=1)
            for p in np.flatnonzero(p_suspect):
                mu_e = sw[:, p].mean(axis=1)
                profile[p] = mu_e - mu_e.mean()
                pss[p] = float(np.dot(profile[p], profile[p]))
        p_live = ~pos_dead & (pss > _EPS)
        with np.errstate(invalid="ignore", divide="ignore"):
            p_scale = np.where(p_live, 1.0 / np.sqrt(np.where(p_live, pss, 1.0)), 0.0)
        profile *= p_scale[:, None]
        if not p_live.all():
            profile[~p_live] = 0.0
        self.profile = profile


def _query_window_blocks(
    query: np.ndarray, starts: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-window query-side quantities for the fused sweep.

    Returns ``(qc, q_sum, q_ss, q_live, q_profile)`` for the ``r`` query
    windows starting at ``starts``: centred windows ``(r, n, w)`` (dead
    rows zeroed), their element sums ``(r, n)``, sums of squared
    deviations ``(r, n)``, the live mask, and the unit-norm cross-channel
    profile ``(r, n)``.  All computed directly (r is a handful of rows),
    so the query side is bit-exact with :func:`trajectory_correlation`.
    """
    n = query.shape[0]
    windows = sliding_window_view(query, w, axis=1)[:, starts]  # (n, r, w)
    windows = windows.transpose(1, 0, 2)  # (r, n, w)
    win_mean = windows.mean(axis=2)  # (r, n)
    qc = windows - win_mean[:, :, None]
    q_ss = np.einsum("rnw,rnw->rn", qc, qc)
    q_live = q_ss > _EPS  # False for NaN
    if not q_live.all():
        qc = qc.copy()
        qc[~q_live] = 0.0
    q_sum = qc.sum(axis=2)

    q_profile = win_mean - win_mean.mean(axis=1)[:, None]
    qpss = np.einsum("rn,rn->r", q_profile, q_profile)
    qp_live = qpss > _EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        qp_scale = np.where(
            qp_live, 1.0 / np.sqrt(np.where(qp_live, qpss, 1.0)), 0.0
        )
    q_profile = q_profile * qp_scale[:, None]
    if not qp_live.all():
        q_profile[~qp_live] = 0.0
    return qc, q_sum, q_ss, q_live, q_profile


def _fused_finish(
    dots: np.ndarray,
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    target_stats: SlidingWindowStats,
    n: int,
) -> np.ndarray:
    """Turn raw cross dots ``(n, r, n_pos)`` into eq.-(2) scores ``(r, n_pos)``."""
    _, q_sum, q_ss, q_live, q_profile = blocks
    # num[r, c, p] = sum_j qc * (u_win - win_mean_c)  (exact expansion).
    num = dots.transpose(1, 0, 2) - (
        target_stats.win_mean_c[None, :, :] * q_sum[:, :, None]
    )
    live = q_live[:, :, None] & target_stats.live[None, :, :]
    denom_sq = q_ss[:, :, None] * target_stats.win_ss[None, :, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        contrib = np.where(
            live, num / np.sqrt(np.where(live, denom_sq, 1.0)), 0.0
        )
    term1 = contrib.sum(axis=1) / n
    term2 = q_profile @ target_stats.profile.T
    return term1 + term2


def fused_sweep(
    query: np.ndarray,
    starts: np.ndarray,
    target_stats: SlidingWindowStats,
) -> np.ndarray:
    """Eq.-(2) scores of ``r`` query windows against every target position.

    ``query`` is the ``(n, m_q)`` query-side trajectory, ``starts`` the
    start marks of its ``r`` windows, and ``target_stats`` the target's
    precomputed :class:`SlidingWindowStats` (same channel set and window
    length).  Returns ``(r, n_pos)`` scores: a :func:`fused_sweep_many`
    of one request.
    """
    return fused_sweep_many([(query, starts, target_stats)])[0]


def fused_sweep_many(
    sweeps: list[tuple[np.ndarray, np.ndarray, SlidingWindowStats]],
) -> list[np.ndarray]:
    """Eq.-(2) scores of many sweep requests, shared-target GEMMs fused —
    the cross-pair SYN sweep.

    ``sweeps`` is a list of ``(query, starts, target_stats)`` requests,
    typically every side of every pending query in a campaign chunk or a
    convoy's all-pairs scan.  Requests that sweep the *same* target
    stats object with the same operand shape — a convoy head matched
    against many probes, or both directions of a symmetric pair — are
    stacked along the window-row axis and evaluated by a single
    ``np.matmul`` over ``(n, g*r, w) @ (n, w, n_pos)``: the target's
    sliding-window operand is built (and BLAS-buffered) once instead of
    ``g`` times.  Requests with distinct targets run one GEMM each —
    stacking distinct targets would copy each one into a dense batch
    operand for zero reuse, which profiling showed costs more than it
    saves.  Either way every window row sees exactly the operands a
    request swept alone would have fed it, so results are bit-identical
    to one call per request (:func:`fused_sweep`; the differential
    suite holds both to the reference loop).

    Returns one ``(r, n_pos)`` score matrix per request, in order.
    """
    results: list[np.ndarray | None] = [None] * len(sweeps)
    prepared = []
    for idx, (query, starts, stats) in enumerate(sweeps):
        w = stats.window_marks
        n = query.shape[0]
        blocks = _query_window_blocks(
            np.asarray(query, dtype=float),
            np.asarray(starts, dtype=np.intp),
            w,
        )
        prepared.append((idx, n, w, blocks, stats))

    # Group shared-target requests, preserving first-seen order (the
    # grouping depends only on request identity, shapes, and order —
    # never on jobs or chunk layout beyond the request list itself).
    groups: dict[tuple[int, int, int, int], list[tuple]] = {}
    for idx, n, w, blocks, stats in prepared:
        r = blocks[0].shape[0]
        key = (id(stats), n, r, w)
        groups.setdefault(key, []).append((idx, n, blocks, stats))

    for (_, n, r, w), members in groups.items():
        stats = members[0][3]
        sw = sliding_window_view(stats.centered, w, axis=1).transpose(0, 2, 1)
        if len(members) == 1:
            idx, _, blocks, stats = members[0]
            dots = np.matmul(
                np.ascontiguousarray(blocks[0].transpose(1, 0, 2)), sw
            )
            results[idx] = _fused_finish(dots, blocks, stats, n)
            continue
        big_q = np.concatenate(
            [
                np.ascontiguousarray(blocks[0].transpose(1, 0, 2))
                for _, _, blocks, _ in members
            ],
            axis=1,
        )  # (n, g*r, w)
        dots_all = np.matmul(big_q, sw)  # (n, g*r, n_pos)
        for i, (idx, _, blocks, member_stats) in enumerate(members):
            results[idx] = _fused_finish(
                dots_all[:, i * r : (i + 1) * r, :], blocks, member_stats, n
            )
    return results  # type: ignore[return-value]


def sliding_trajectory_correlation(
    query: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Eq. (2) of ``query`` against every window position of ``target``.

    Parameters
    ----------
    query:
        ``(n_channels, w)`` fixed segment.
    target:
        ``(n_channels, m)`` trajectory to slide over, ``m >= w``.

    Returns
    -------
    numpy.ndarray
        ``(m - w + 1,)`` trajectory correlation coefficients; position
        ``p`` compares ``query`` with ``target[:, p:p+w]``.

    The production sweep for one query (the differential harness holds
    it to :func:`reference_sliding_correlation` to 1e-9): O(n * m)
    sliding statistics plus one grouped matmul.  A target dominated by
    degenerate windows (see :data:`_SUSPECT_FRACTION_LIMIT`) is scored
    by the feature-matrix product instead.
    """
    q = np.asarray(query, dtype=float)
    t = np.asarray(target, dtype=float)
    _, w, _ = _validate_sliding(q, t)
    stats = SlidingWindowStats(t, w)
    if stats.suspect_fraction > _SUSPECT_FRACTION_LIMIT:
        return correlation_matrix(
            normalized_window_features(q, w), normalized_window_features(t, w)
        )[0]
    return fused_sweep(q, np.array([0], dtype=np.intp), stats)[0]

"""Trajectory binding: time-domain scans to the distance domain (§IV-C).

"for each element (theta_i, t_i) ... the power vector measured over n
channels during time interval of [t_{i-1}, t_i] can be associated,
forming the corresponding GSM-aware trajectory."  Because scanning takes
time, a moving vehicle misses channels at any given mark; RUPS fills
those "by linearly interpolating between neighbouring power vectors over
distance" (the channel-7-at-l5 example of Fig 6).

The binding grid is *estimated* distance (the vehicle's own odometry),
which is exactly what makes the resolved relative distances sensitive to
odometry quality — a real effect the evaluation inherits.
"""

from __future__ import annotations

import numpy as np

from repro.core.trajectory import GeoTrajectory, GsmTrajectory
from repro.gsm.scanner import ScanStream
from repro.sensors.deadreckoning import EstimatedTrack

__all__ = [
    "DriveBindingIndex",
    "bind_scan",
    "interpolate_missing",
    "seed_interpolate_missing",
]


def bind_scan(
    scan: ScanStream,
    track: EstimatedTrack,
    at_time_s: float | None = None,
    context_length_m: float | None = None,
    spacing_m: float = 1.0,
    interpolate: bool = True,
) -> GsmTrajectory:
    """Bind a measurement stream to the vehicle's estimated trajectory.

    Parameters
    ----------
    scan:
        Raw time-stamped per-channel measurements.
    track:
        The vehicle's dead-reckoned track (provides the distance domain).
    at_time_s:
        Build the trajectory as known at this instant (measurements after
        it are ignored); defaults to the end of the track.
    context_length_m:
        Keep only the most recent context of this length.
    spacing_m:
        Mark spacing (paper: 1 m).
    interpolate:
        Fill missing channels per §IV-C before returning.

    Returns
    -------
    GsmTrajectory
        Width = all channels of the scan's plan; mark ``i`` aggregates
        (averages) all measurements whose estimated distance rounds to
        that mark, NaN where a channel was never measured near the mark.
    """
    geo = track.geo_trajectory(
        at_time_s=at_time_s, length_m=context_length_m, spacing_m=spacing_m
    )
    t_now = track.times_s[-1] if at_time_s is None else float(at_time_s)

    keep = scan.times_s <= t_now
    times = scan.times_s[keep]
    chans = scan.channel_indices[keep]
    rssi = scan.rssi_dbm[keep]

    dist = np.asarray(track.distance_at(times), dtype=float)
    mark_f = (dist - geo.start_distance_m) / spacing_m
    mark = np.round(mark_f).astype(np.int64)
    in_range = (mark >= 0) & (mark < geo.n_marks)
    mark = mark[in_range]
    chans = chans[in_range]
    rssi = rssi[in_range]

    n_channels = scan.plan.n_channels
    flat = chans * geo.n_marks + mark
    sums = np.bincount(flat, weights=rssi, minlength=n_channels * geo.n_marks)
    counts = np.bincount(flat, minlength=n_channels * geo.n_marks)
    with np.errstate(invalid="ignore", divide="ignore"):
        power = (sums / counts).reshape(n_channels, geo.n_marks)
    power[counts.reshape(n_channels, geo.n_marks) == 0] = np.nan

    trajectory = GsmTrajectory(
        power_dbm=power,
        channel_ids=np.arange(n_channels, dtype=np.int64),
        geo=geo,
    )
    return interpolate_missing(trajectory) if interpolate else trajectory


def _grown_1d(buf: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buf`` with room for ``used + extra`` entries (amortised doubling)."""
    need = used + extra
    if need <= buf.shape[0]:
        return buf
    out = np.empty(max(need, 2 * buf.shape[0], 16), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def _grown_cols(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` with room for ``need`` columns (amortised doubling)."""
    if need <= buf.shape[1]:
        return buf
    out = np.empty(
        (buf.shape[0], max(need, 2 * buf.shape[1], 16)), dtype=buf.dtype
    )
    out[:, :used] = buf[:, :used]
    return out


class _ParityState:
    """Growable binning state of one window-start parity.

    ``times``/``chans``/``rssi``/``bins`` hold the in-grid measurements
    sorted by bin, each bin's in stream order (first ``n`` entries of
    capacity-doubled buffers); ``sums``/``counts``/``bin_starts`` are
    the served aggregates, also over-allocated.  ``pend_*`` hold
    measurements whose estimated distance rounds *past* the current
    mark grid — the grid only grows at the end, so they are replayed
    (still in stream order) once the track reaches their mark.
    """

    __slots__ = (
        "times", "chans", "rssi", "bins", "n",
        "sums", "counts", "bin_starts",
        "pend_times", "pend_chans", "pend_rssi", "pend_bins",
    )

    def __init__(self, empty: ScanStream) -> None:
        n_channels = empty.plan.n_channels
        self.times = self.pend_times = empty.times_s
        self.chans = self.pend_chans = empty.channel_indices
        self.rssi = self.pend_rssi = empty.rssi_dbm
        self.bins = self.pend_bins = np.empty(0, dtype=np.int64)
        self.n = 0
        self.sums = np.empty((n_channels, 0))
        self.counts = np.empty((n_channels, 0), dtype=np.int64)
        self.bin_starts = np.zeros(1, dtype=np.int64)


class DriveBindingIndex:
    """Whole-drive binding precompute for repeated-query trajectory builds.

    :func:`bind_scan` re-bins the *entire* scan stream for every query
    instant, yet the binding grid is anchored to whole multiples of
    ``spacing_m`` (see :meth:`EstimatedTrack.geo_trajectory`), so every
    query's marks are a contiguous slice of one global grid.  This index
    bins the drive once — per-mark power sums/counts, mark timestamps
    and headings — and answers each query by slicing its context window
    out, bit-identical to a fresh ``bind_scan`` call:

    * all but the window's most recent mark aggregate exactly the same
      measurements in the same order regardless of the query instant;
    * the most recent mark is the only one a measurement taken *after*
      the query instant can round into (estimated distance is
      non-decreasing in time), so that single column is re-aggregated
      from the time-filtered measurements of its bin;
    * ``np.round`` is round-half-to-even, so a measurement exactly
      halfway between marks bins differently depending on the *parity*
      of the window's first mark index — the index therefore keeps one
      growable state per parity and serves each window from the one
      matching its start.

    The constructor starts both states empty and folds its whole stream
    through the same code :meth:`extend` runs for each newer chunk, so a
    built index and a grown one are one structure.  Construction is one
    pass over the stream, queries are O(window); the equality with
    :func:`bind_scan` is enforced by the differential suites in
    ``tests/test_core_binding_cache.py`` and
    ``tests/test_streaming_prefix.py``.
    """

    @classmethod
    def for_drive(
        cls,
        scan: ScanStream,
        track: EstimatedTrack,
        spacing_m: float = 1.0,
    ) -> "DriveBindingIndex":
        """A (possibly shared) index for this drive, content-addressed.

        Routes construction through the process-resident derived-object
        cache of :mod:`repro.runtime.shared`: two callers — engine
        instances, campaign tasks, warm re-runs — asking for the index
        of bit-identical ``(scan, track)`` inputs get the *same* built
        index back, even when their input objects are distinct
        checkouts.  Falls back to plain construction semantics (the
        cache builds via ``cls(...)``), so results are identical either
        way.
        """
        from repro.runtime import shared

        key = (
            "binding.index",
            shared.content_key(scan),
            shared.content_key(track),
            float(spacing_m),
        )
        return shared.derived(
            key, lambda: cls(scan, track, spacing_m=spacing_m)
        )

    def __init__(
        self,
        scan: ScanStream,
        track: EstimatedTrack,
        spacing_m: float = 1.0,
    ) -> None:
        if spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        self.track = track
        self.spacing_m = float(spacing_m)
        self._plan = scan.plan
        self._n_channels = scan.plan.n_channels
        # Global mark grid: every geo_trajectory() starts/ends on whole
        # multiples of spacing_m inside [first, last] odometer readings.
        self._mark0 = int(np.ceil(float(track.distance_m[0]) / spacing_m))
        self._n_marks = 0
        self._tbuf = self._hbuf = np.empty(0)
        empty = scan.slice(0, 0)
        self._states = {parity: _ParityState(empty) for parity in (0, 1)}
        self._last_time = -np.inf
        # Any stream can be built; only one in time order within the
        # track can be grown, because its binned distances are final.
        self._refusal: str | None = None
        if len(scan) and float(scan.times_s[-1]) > float(track.times_s[-1]):
            self._refusal = (
                "cannot extend: scan reaches beyond the track; its binned "
                "distances would change once the track grows"
            )
        elif np.any(np.diff(scan.times_s) < 0):
            self._refusal = "cannot extend: scan times are not sorted"
        self._fold(scan, track)

    def bind(
        self,
        at_time_s: float | None = None,
        context_length_m: float | None = None,
        interpolate: bool = True,
    ) -> GsmTrajectory:
        """The trajectory :func:`bind_scan` would build at ``at_time_s``."""
        track = self.track
        spacing = self.spacing_m
        t_now = float(track.times_s[-1] if at_time_s is None else at_time_s)
        d_now = float(track.distance_at(t_now))
        last = int(np.floor(d_now / spacing))
        if context_length_m is None:
            first = self._mark0
        else:
            # Match geo_trajectory(): max() in the *distance* domain.  A
            # context length that is not a whole multiple of the spacing
            # puts the window start off the global grid — geo_trajectory
            # does not snap it, so neither can we; the caller falls back
            # to bind_scan.
            first_mark_m = max(
                last * spacing - float(context_length_m),
                np.ceil(float(track.distance_m[0]) / spacing) * spacing,
            )
            first = int(round(first_mark_m / spacing))
            if abs(first * spacing - first_mark_m) > 1e-9:
                raise ValueError(
                    "context_length_m is not a whole multiple of spacing_m; "
                    "the drive index cannot serve off-grid windows"
                )
        n_marks = last - first + 1
        if n_marks < 2:
            raise ValueError(
                "not enough travelled distance for a trajectory "
                f"(have {(last - first) * spacing:.1f} m)"
            )
        lo = first - self._mark0
        hi = last - self._mark0 + 1
        if lo < 0 or hi > self._n_marks:
            raise ValueError("query window escapes the drive's mark grid")

        st = self._states[first % 2]
        sums = st.sums[:, lo:hi].copy()
        counts = st.counts[:, lo:hi].copy()
        # Only the most recent mark can have collected measurements taken
        # after t_now; re-aggregate it from its time-filtered bin.
        b0, b1 = st.bin_starts[hi - 1], st.bin_starts[hi]
        recent = st.times[b0:b1] <= t_now
        chans = st.chans[b0:b1][recent]
        sums[:, -1] = np.bincount(
            chans, weights=st.rssi[b0:b1][recent], minlength=self._n_channels
        )
        counts[:, -1] = np.bincount(chans, minlength=self._n_channels)

        with np.errstate(invalid="ignore", divide="ignore"):
            power = sums / counts
        power[counts == 0] = np.nan

        geo = GeoTrajectory(
            timestamps_s=self._t_marks[lo:hi],
            headings_rad=self._headings[lo:hi],
            spacing_m=spacing,
            start_distance_m=first * spacing,
        )
        trajectory = GsmTrajectory(
            power_dbm=power,
            channel_ids=np.arange(self._n_channels, dtype=np.int64),
            geo=geo,
        )
        return interpolate_missing(trajectory) if interpolate else trajectory

    def extend(self, chunk: ScanStream, track: EstimatedTrack) -> None:
        """Fold a newer scan chunk (and the extended track) into the index.

        After the call, :meth:`bind` answers exactly as a fresh index
        built over the *concatenated* stream and the new track would —
        the prefix-equivalence suite in ``tests/test_streaming_prefix.py``
        holds this bitwise.  Cost is O(appended measurements + changed
        marks), not O(drive).  Everything is checked before anything
        changes: a refused chunk leaves the index as it was.

        Only ever call this on a *privately constructed* index.  Indices
        obtained via :meth:`for_drive` may be shared process-wide
        through the content-addressed cache, and mutating one would
        corrupt every other holder's view.

        Parameters
        ----------
        chunk:
            Measurements strictly newer than everything already folded
            in (sorted times, not reaching beyond ``track``'s end).
        track:
            The dead-reckoned track as known now; must extend the
            previously provided track sample-for-sample.
        """
        if self._refusal is not None:
            raise ValueError(self._refusal)
        plan = self._plan
        if chunk.plan is not plan and not np.array_equal(
            chunk.plan.arfcns, plan.arfcns
        ):
            raise ValueError("chunk channel plan does not match the index")
        old_track = self.track
        m = len(old_track.times_s)
        if len(track.times_s) < m or not (
            np.array_equal(track.times_s[:m], old_track.times_s)
            and np.array_equal(track.distance_m[:m], old_track.distance_m)
            and np.array_equal(track.heading_rad[:m], old_track.heading_rad)
        ):
            raise ValueError("track must extend the previously provided track")
        if len(chunk):
            if np.any(np.diff(chunk.times_s) < 0):
                raise ValueError("chunk times are not sorted")
            if float(chunk.times_s[0]) < self._last_time:
                raise ValueError(
                    "chunk overlaps previously appended measurements"
                )
            if float(chunk.times_s[-1]) > float(track.times_s[-1]):
                raise ValueError("chunk reaches beyond the provided track")
        self._fold(chunk, track)

    def _fold(self, chunk: ScanStream, track: EstimatedTrack) -> None:
        """Bin ``chunk`` into both parity states and grow the grid to
        ``track`` — the index's one binning path.

        Estimated distance never decreases along an extendable stream,
        so a new measurement only lands in mark columns at or after the
        last one touched, and only that suffix region is re-aggregated,
        with a regional ``bincount`` that replays its measurements in
        stream order: float accumulation order, hence bits, stay those
        of a cold build.
        """
        spacing = self.spacing_m
        n_old = self._n_marks
        d_last = float(track.distance_m[-1])
        new_n = max(int(np.floor(d_last / spacing)) - self._mark0 + 1, n_old, 0)

        # Grow the mark grid: new mark times continue the running max
        # seeded with the last old one (max is associative and exact, so
        # the seeded accumulate matches a cold full-array accumulate).
        if new_n > n_old:
            marks = (self._mark0 + np.arange(n_old, new_n)) * spacing
            t_new = np.asarray(track.time_at_distance(marks), dtype=float)
            seed = self._tbuf[max(n_old - 1, 0) : n_old]
            t_new = np.maximum.accumulate(np.concatenate((seed, t_new)))[
                len(seed) :
            ]
            h_new = np.asarray(track.heading_at(t_new), dtype=float)
            self._tbuf = _grown_1d(self._tbuf, n_old, new_n - n_old)
            self._hbuf = _grown_1d(self._hbuf, n_old, new_n - n_old)
            self._tbuf[n_old:new_n] = t_new
            self._hbuf[n_old:new_n] = h_new

        dist = np.asarray(track.distance_at(chunk.times_s), dtype=float)
        for parity, st in self._states.items():
            # Within one parity class round-half-even lands every halfway
            # measurement in the same bin, so one anchor per parity
            # stands in for every grid-aligned window start of that
            # parity.
            anchor = self._mark0 + ((self._mark0 % 2) != parity)
            raw = np.round((dist - anchor * spacing) / spacing).astype(
                np.int64
            ) + (anchor - self._mark0)
            times, chans, rssi = (
                chunk.times_s, chunk.channel_indices, chunk.rssi_dbm
            )
            if np.any(np.diff(raw) < 0):
                # A stream out of distance order is stably sorted by bin,
                # which keeps each bin's measurements — and so its float
                # sums — in stream order; it cannot be grown.
                self._refusal = self._refusal or (
                    "cannot extend: estimated distance is not non-decreasing"
                )
                order = np.argsort(raw, kind="stable")
                raw, times = raw[order], times[order]
                chans, rssi = chans[order], rssi[order]
            keep = raw >= 0
            # Pending measurements precede the chunk in stream order and
            # bins are non-decreasing along the stream, so this concat
            # is sorted both by time and by bin.
            tail_times = np.concatenate([st.pend_times, times[keep]])
            tail_chans = np.concatenate([st.pend_chans, chans[keep]])
            tail_rssi = np.concatenate([st.pend_rssi, rssi[keep]])
            tail_bins = np.concatenate([st.pend_bins, raw[keep]])
            k = int(np.searchsorted(tail_bins, new_n))
            st.pend_times = tail_times[k:].copy()
            st.pend_chans = tail_chans[k:].copy()
            st.pend_rssi = tail_rssi[k:].copy()
            st.pend_bins = tail_bins[k:].copy()

            if k:
                st.times = _grown_1d(st.times, st.n, k)
                st.chans = _grown_1d(st.chans, st.n, k)
                st.rssi = _grown_1d(st.rssi, st.n, k)
                st.bins = _grown_1d(st.bins, st.n, k)
                st.times[st.n : st.n + k] = tail_times[:k]
                st.chans[st.n : st.n + k] = tail_chans[:k]
                st.rssi[st.n : st.n + k] = tail_rssi[:k]
                st.bins[st.n : st.n + k] = tail_bins[:k]
                st.n += k
                c0 = min(int(tail_bins[0]), n_old)
            else:
                c0 = n_old

            if new_n > c0:
                # Re-aggregate only the suffix region [c0, new_n): every
                # measurement in it sits in the served arrays from
                # bin_starts[c0] on, still in stream order.
                s0 = int(st.bin_starts[c0])
                seg_bins = st.bins[s0 : st.n] - c0
                width = new_n - c0
                flat = st.chans[s0 : st.n] * width + seg_bins
                sums = np.bincount(
                    flat,
                    weights=st.rssi[s0 : st.n],
                    minlength=self._n_channels * width,
                ).reshape(self._n_channels, width)
                counts = np.bincount(
                    flat, minlength=self._n_channels * width
                ).reshape(self._n_channels, width)
                st.sums = _grown_cols(st.sums, n_old, new_n)
                st.counts = _grown_cols(st.counts, n_old, new_n)
                st.sums[:, c0:new_n] = sums
                st.counts[:, c0:new_n] = counts
                st.bin_starts = _grown_1d(st.bin_starts, n_old + 1, new_n - n_old)
                st.bin_starts[c0 + 1 : new_n + 1] = s0 + np.searchsorted(
                    seg_bins, np.arange(1, width + 1)
                )

        self._n_marks = new_n
        self._t_marks = self._tbuf[:new_n]
        self._headings = self._hbuf[:new_n]
        self.track = track
        if len(chunk):
            self._last_time = float(chunk.times_s[-1])


def interpolate_missing(trajectory: GsmTrajectory) -> GsmTrajectory:
    """Fill missing channels by linear interpolation over distance (§IV-C).

    Interior gaps are interpolated between the nearest measured marks of
    the same channel; leading/trailing gaps take the nearest measured
    value (``np.interp`` edge behaviour).  Channels never measured at all
    stay NaN — downstream channel selection skips them.
    """
    power = trajectory.power_dbm
    if not np.any(np.isnan(power)):
        return trajectory
    filled = power.copy()
    x = np.arange(power.shape[1], dtype=float)
    missing = np.isnan(power)
    for row in np.flatnonzero(missing.any(axis=1)):
        gaps = missing[row]
        if gaps.all():
            continue
        valid = ~gaps
        # np.interp is pointwise, so filling only the gaps is bitwise
        # what evaluating every column would produce — at a fraction of
        # the work (gaps are typically sparse).
        filled[row, gaps] = np.interp(x[gaps], x[valid], power[row, valid])
    return GsmTrajectory(
        power_dbm=filled,
        channel_ids=trajectory.channel_ids,
        geo=trajectory.geo,
    )


def seed_interpolate_missing(
    prev_raw: GsmTrajectory | None,
    prev_filled: GsmTrajectory | None,
    new: GsmTrajectory,
) -> GsmTrajectory:
    """:func:`interpolate_missing`, seeded from an overlapping prior serve.

    The streaming serve path re-interpolates a context window that
    mostly overlaps the previous one.  Linear interpolation is local —
    a filled value depends only on its two bracketing measured marks —
    so any gap whose brackets both lie in columns that are bitwise
    unchanged between the two raw serves filled to exactly the same
    value last time.  This copies those and re-interpolates only the
    gaps reaching into changed columns, making the serve's fill cost
    O(changed suffix) instead of O(window).

    ``prev_raw``/``prev_filled`` are a prior serve's raw (uninterpolated)
    window and its interpolated result; pass ``None`` to fall back to
    the cold fill.  Bitwise-identical to ``interpolate_missing(new)`` in
    all cases.
    """
    if prev_raw is None or prev_filled is None:
        return interpolate_missing(new)
    if prev_raw.geo.spacing_m != new.geo.spacing_m or not np.array_equal(
        prev_raw.channel_ids, new.channel_ids
    ):
        return interpolate_missing(new)
    off_f = (
        new.geo.start_distance_m - prev_raw.geo.start_distance_m
    ) / new.spacing_m
    off = int(round(off_f))
    if off < 0 or abs(off - off_f) > 1e-9:
        return interpolate_missing(new)
    n_overlap = min(prev_raw.n_marks - off, new.n_marks)
    if n_overlap <= 0:
        return interpolate_missing(new)
    a = prev_raw.power_dbm[:, off : off + n_overlap]
    b = new.power_dbm[:, :n_overlap]
    # Bit-level compare (same itemsize, view is free); a false "changed"
    # flag only costs recomputation, never correctness.
    same_cols = (a.view(np.int64) == b.view(np.int64)).all(axis=0)
    j0 = n_overlap if same_cols.all() else int(np.argmin(same_cols))
    if j0 == 0:
        return interpolate_missing(new)
    power = new.power_dbm
    missing = np.isnan(power)
    if not missing.any():
        return new
    filled = power.copy()
    pf = prev_filled.power_dbm
    n_ch, n = power.shape
    valid_any = ~missing.all(axis=1)
    # Every column below j0 is bitwise what the previous serve saw, so
    # the previous fill is exact wherever its interpolation brackets
    # also sat below j0.  Copy the whole prefix unconditionally — one
    # contiguous 2-D copy instead of a masked one — then repair the
    # three places the copy over-reaches: rows with no measurement at
    # all (stay NaN), leading gaps (the previous window may have
    # bracketed them from since-dropped columns; the new window clamps),
    # and gaps past each row's last prefix measurement (their right
    # bracket may be a changed column).
    filled[:, :j0] = pf[:, off : off + j0]
    if not valid_any.all():
        filled[~valid_any, :j0] = power[~valid_any, :j0]
    # Leading gaps clamp to the first measured mark (np.interp's left
    # edge behaviour), independent of everything downstream.
    v0 = (~missing).argmax(axis=1)
    vmax = int(v0[valid_any].max()) if valid_any.any() else 0
    if vmax > 0:
        lead = (
            missing[:, :vmax]
            & (np.arange(vmax) < v0[:, None])
            & valid_any[:, None]
        )
        np.copyto(
            filled[:, :vmax],
            power[np.arange(n_ch), v0][:, None],
            where=lead,
        )
    below = ~missing[:, :j0]
    has_below = below.any(axis=1)
    v_last = j0 - 1 - below[:, ::-1].argmax(axis=1)
    # Gaps past v_last (or all gaps of a row with nothing measured below
    # j0) may bracket into changed columns: re-interpolate them, all
    # rows at once, with the lerp ``np.interp`` itself applies —
    # ``slope = (fp_hi - fp_lo) / (x_hi - x_lo)`` then
    # ``slope * (x - x_lo) + fp_lo`` — on identical operands (mark
    # indices are integer-valued floats, so coordinate differences are
    # exact), which keeps the fill bitwise what the cold path produces.
    # All such gaps sit at columns > min(starts), so the bracket search
    # runs on that short suffix only.
    starts = np.where(has_below, v_last, v0)
    if valid_any.any():
        base = int(starts[valid_any].min())
        sub_miss = missing[:, base:]
        sub_cols = np.arange(n - base)
        fill = (
            sub_miss
            & (sub_cols > (starts - base)[:, None])
            & valid_any[:, None]
        )
        r, c = np.nonzero(fill)
    else:
        r = c = np.empty(0, dtype=np.intp)
    if r.size:
        # Bracketing measured marks per column (suffix coordinates):
        # last valid at-or-left, first valid at-or-right (out of range
        # when the gap is trailing).  Every fill column's left bracket
        # is at or after its row's ``starts`` mark, which is >= base.
        n_sub = n - base
        left = np.maximum.accumulate(
            np.where(sub_miss, -1, sub_cols), axis=1
        )
        right = np.minimum.accumulate(
            np.where(sub_miss, n_sub, sub_cols)[:, ::-1], axis=1
        )[:, ::-1]
        lo, hi = left[r, c], right[r, c]
        f_lo = power[r, base + lo]
        out = f_lo.copy()  # trailing gaps clamp to the last measured mark
        interior = hi < n_sub
        ri, lo_i, hi_i = r[interior], lo[interior], hi[interior]
        slope = (power[ri, base + hi_i] - f_lo[interior]) / (
            hi_i - lo_i
        ).astype(float)
        out[interior] = (
            slope * (c[interior] - lo_i).astype(float) + f_lo[interior]
        )
        filled[r, base + c] = out
    return GsmTrajectory(
        power_dbm=filled,
        channel_ids=new.channel_ids,
        geo=new.geo,
    )

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

:class:`DriveBindingIndex` serves what :func:`bind_scan` builds from one
growable whole-drive binning whose gap fill stays resident.
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

    ``filled`` is the grid as :func:`interpolate_missing` fills it (a
    row's gaps after its last measured mark, which every window
    re-fills, may hold NaN), refreshed by ``bind()`` for ``fill_n``
    columns and ``fill_count`` measurements.  No fold changes a column
    before ``fill_frozen``; ``anchors`` holds each row's last measured
    column before it (-1: none), up to which the row's fill is final.
    """

    __slots__ = (
        "times", "chans", "rssi", "bins", "n",
        "sums", "counts", "bin_starts",
        "pend_times", "pend_chans", "pend_rssi", "pend_bins",
        "filled", "fill_n", "fill_count", "fill_frozen", "anchors",
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
        self.filled = np.empty((n_channels, 0))
        self.fill_n = self.fill_count = self.fill_frozen = 0
        self.anchors = np.full(n_channels, -1, dtype=np.int64)

    def refresh_fill(self, n_marks: int) -> None:
        """Bring ``filled`` up to the first ``n_marks`` grid columns.

        Columns before ``fill_frozen`` have not changed since the last
        refresh.  A row measured from there on is re-filled from its
        anchor on, because its gaps after the anchor are the only ones
        whose brackets can have moved; any other row only gained
        trailing gaps.
        """
        if self.fill_n == n_marks and self.fill_count == self.n:
            return
        f0 = self.fill_frozen
        counts = self.counts[:, f0:n_marks]
        measured = counts > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            block = self.sums[:, f0:n_marks] / counts
        block[~measured] = np.nan
        self.filled = _grown_cols(self.filled, self.fill_n, n_marks)
        if f0 == 0:
            self.filled[:, :n_marks] = _interpolated(block)
        else:
            self.filled[:, f0:n_marks] = block
            rows = np.flatnonzero(measured.any(axis=1))
            _refill(self.filled, self.counts, rows, self.anchors[rows] + 1, n_marks)
        frozen = int(self.bins[self.n - 1]) if self.n else 0
        if frozen > f0:
            seen = measured[:, : frozen - f0]
            last = frozen - 1 - seen[:, ::-1].argmax(axis=1)
            self.anchors = np.where(seen.any(axis=1), last, self.anchors)
        self.fill_n, self.fill_count, self.fill_frozen = n_marks, self.n, frozen


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
    built index and a grown one are one structure.  Each state also
    keeps its grid gap-filled (one float per cell), refreshed by
    :meth:`bind` over only the columns folded since, so a query copies
    its window out and re-fills only the window's edges (and must not
    run on two threads at once).  Construction is one pass over the
    stream, queries are O(window); the equality with :func:`bind_scan`
    is enforced by the differential suites in
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
        """The trajectory :func:`bind_scan` would build at ``at_time_s``;
        it owns its arrays, so a later :meth:`extend` leaves it as is."""
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
        if interpolate:
            st.refresh_fill(self._n_marks)
            power = st.filled[:, lo:hi].copy()
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                power = st.sums[:, lo:hi] / st.counts[:, lo:hi]
            power[st.counts[:, lo:hi] == 0] = np.nan
        # Only the most recent mark can have collected measurements taken
        # after t_now; re-aggregate it from its time-filtered bin.
        b0, b1 = st.bin_starts[hi - 1], st.bin_starts[hi]
        recent = st.times[b0:b1] <= t_now
        chans = st.chans[b0:b1][recent]
        counts = np.bincount(chans, minlength=self._n_channels)
        with np.errstate(invalid="ignore", divide="ignore"):
            power[:, -1] = np.bincount(
                chans, weights=st.rssi[b0:b1][recent], minlength=self._n_channels
            ) / counts
        power[counts == 0, -1] = np.nan
        if interpolate:
            _fill_edges(power, st.counts[:, lo : hi - 1] > 0, counts > 0)

        geo = GeoTrajectory(
            timestamps_s=self._t_marks[lo:hi],
            headings_rad=self._headings[lo:hi],
            spacing_m=spacing,
            start_distance_m=first * spacing,
        )
        return GsmTrajectory(
            power_dbm=power,
            channel_ids=np.arange(self._n_channels, dtype=np.int64),
            geo=geo,
        )

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
    return GsmTrajectory(
        power_dbm=_interpolated(power),
        channel_ids=trajectory.channel_ids,
        geo=trajectory.geo,
    )


def _interpolated(power: np.ndarray) -> np.ndarray:
    """A copy of ``power`` with its gaps filled as :func:`interpolate_missing`
    fills them: one ``np.interp`` per row over mark indices."""
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
    return filled


def _runs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run number and column of every cell of the runs ``[starts, stops)``."""
    lengths = stops - starts
    run = np.repeat(np.arange(lengths.size), lengths)
    offset = starts - (np.cumsum(lengths) - lengths)
    return run, np.arange(run.size) + offset[run]


def _fill_gaps(a, rows, cols, left, right, stop) -> None:
    """Write ``np.interp``'s value into each gap ``a[rows, cols]``.

    ``left``/``right`` are its bracketing measured columns (``-1`` /
    ``stop``: none, so it clamps to the other).  Interior gaps use
    ``np.interp``'s own lerp on its own operands: mark coordinates are
    integer-valued floats, so their differences are exact whichever
    column the coordinates start from.
    """
    lead, trail = left < 0, right >= stop
    value = a[rows, np.where(lead, right, left)]
    inner = ~(lead | trail)
    lo, hi = left[inner], right[inner]
    f_lo = value[inner]
    slope = (a[rows[inner], hi] - f_lo) / (hi - lo).astype(float)
    value[inner] = slope * (cols[inner] - lo).astype(float) + f_lo
    a[rows, cols] = value


def _refill(filled, counts, rows, starts, stop) -> None:
    """Re-fill the gaps of ``filled[rows[i], starts[i]:stop]`` in place.

    ``counts`` marks the measured cells, whose values ``filled`` holds;
    column ``starts[i] - 1`` is measured unless ``starts[i]`` is 0, and
    each run holds a measured cell.  Brackets come from a running max
    and min over the runs laid end to end, keyed per run so that none
    crosses into a neighbour.
    """
    run, cols = _runs(starts, np.full_like(starts, stop))
    r = rows[run]
    measured = counts[r, cols] > 0
    base = run * (stop + 2) + 1
    key = base + cols
    left = np.maximum.accumulate(np.where(measured, key, base + starts[run] - 1))
    right = np.minimum.accumulate(np.where(measured, key, base + stop)[::-1])[::-1]
    gap = ~measured
    base = base[gap]
    _fill_gaps(filled, r[gap], cols[gap], left[gap] - base, right[gap] - base, stop)


def _fill_edges(power: np.ndarray, measured: np.ndarray, tail: np.ndarray) -> None:
    """Finish a window copied out of a filled grid, in place.

    ``measured`` marks the window's measured cells before its last
    column, ``tail`` its rows measured in that (re-aggregated) column.
    A gap bracketed on both sides before the last column was filled in
    the grid exactly as the window fills it, so only the cells whose
    brackets the window's edges move are re-filled: each row's leading
    gap, which clamps to its first measured mark; the gaps after its
    last measured mark before the last column, which end at that column
    or clamp; and rows with no measurement, which stay NaN.
    """
    n = power.shape[1]
    body = measured.any(axis=1)
    power[~(body | tail)] = np.nan
    first = np.where(body, measured.argmax(axis=1), n - 1)
    rows = np.flatnonzero((body | tail) & (first > 0))
    run, cols = _runs(np.zeros_like(rows), first[rows])
    _fill_gaps(power, rows[run], cols, np.full_like(cols, -1), first[rows][run], n)
    rows = np.flatnonzero(body)
    final = n - 2 - measured[rows, ::-1].argmax(axis=1)
    right = np.where(tail[rows], n - 1, n)
    run, cols = _runs(final + 1, n - tail[rows])
    _fill_gaps(power, rows[run], cols, final[run], right[run], n)

"""Trajectory containers.

§IV-B: "the vehicle can estimate its m-meter geographical trajectory T^m
as a vector of m+1 elements.  Each element is a tuple (theta_i, t_i)",
and §IV-C binds a power vector to every element, "forming the
corresponding GSM-aware trajectory S^{T^m}" — a matrix with "a width of n
channels and a length of m meters" (§III-C).

Both containers live purely in the *estimated distance domain* of their
own vehicle: mark ``i`` sits at odometer reading
``start_distance_m + i * spacing_m``.  Nothing here knows about true
positions — that is the point of RUPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeoTrajectory",
    "GsmTrajectory",
    "TrajectoryBuilder",
]


@dataclass(frozen=True)
class GeoTrajectory:
    """Per-metre geographical trajectory ``(theta_i, t_i)``.

    Attributes
    ----------
    timestamps_s:
        ``(n,)`` time at which the vehicle crossed each mark; weakly
        increasing (marks are distance-indexed, so stops create gaps in
        time, never in distance).
    headings_rad:
        ``(n,)`` heading at each mark [rad, clockwise from north].
    spacing_m:
        Mark spacing [m] (1 m in the paper).
    start_distance_m:
        Odometer reading of mark 0 [m]; mark ``i`` is at
        ``start_distance_m + i * spacing_m``.
    """

    timestamps_s: np.ndarray
    headings_rad: np.ndarray
    spacing_m: float = 1.0
    start_distance_m: float = 0.0

    def __post_init__(self) -> None:
        ts = np.ascontiguousarray(np.asarray(self.timestamps_s, dtype=float))
        hd = np.ascontiguousarray(np.asarray(self.headings_rad, dtype=float))
        if ts.ndim != 1 or hd.shape != ts.shape:
            raise ValueError("timestamps and headings must be equal-length 1-D")
        if ts.size < 2:
            raise ValueError("a trajectory needs at least two marks")
        if np.any(np.diff(ts) < -1e-9):
            raise ValueError("timestamps must be non-decreasing")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        object.__setattr__(self, "timestamps_s", ts)
        object.__setattr__(self, "headings_rad", hd)
        # Lazy memo of the per-mark odometer readings: the tracker loop
        # and SYN assembly read distances_m on every update, and the
        # arange was rebuilt on each access.
        object.__setattr__(self, "_distances_m", None)
        object.__setattr__(self, "_end_distance_m", None)

    @property
    def n_marks(self) -> int:
        """Number of distance marks (paper's m+1)."""
        return int(self.timestamps_s.size)

    @property
    def length_m(self) -> float:
        """Trajectory length (paper's m) [m]."""
        return (self.n_marks - 1) * self.spacing_m

    @property
    def distances_m(self) -> np.ndarray:
        """Odometer reading at every mark (memoised; treat as read-only)."""
        d = self._distances_m  # type: ignore[attr-defined]
        if d is None:
            d = self.start_distance_m + self.spacing_m * np.arange(self.n_marks)
            object.__setattr__(self, "_distances_m", d)
        return d

    @property
    def end_distance_m(self) -> float:
        """Odometer reading of the most recent mark (memoised)."""
        d = self._end_distance_m  # type: ignore[attr-defined]
        if d is None:
            d = self.start_distance_m + self.spacing_m * (self.n_marks - 1)
            object.__setattr__(self, "_end_distance_m", d)
        return d

    @property
    def end_time_s(self) -> float:
        """Timestamp of the most recent mark."""
        return float(self.timestamps_s[-1])

    def tail(self, length_m: float) -> "GeoTrajectory":
        """The most recent ``length_m`` metres (view-based slices)."""
        n_keep = int(round(length_m / self.spacing_m)) + 1
        if n_keep < 2:
            raise ValueError("tail must keep at least one metre")
        n_keep = min(n_keep, self.n_marks)
        return GeoTrajectory(
            timestamps_s=self.timestamps_s[-n_keep:],
            headings_rad=self.headings_rad[-n_keep:],
            spacing_m=self.spacing_m,
            start_distance_m=self.end_distance_m - (n_keep - 1) * self.spacing_m,
        )

    def slice_marks(self, start: int, stop: int) -> "GeoTrajectory":
        """Marks ``start:stop`` as a new trajectory."""
        if stop - start < 2:
            raise ValueError("slice must keep at least two marks")
        return GeoTrajectory(
            timestamps_s=self.timestamps_s[start:stop],
            headings_rad=self.headings_rad[start:stop],
            spacing_m=self.spacing_m,
            start_distance_m=self.start_distance_m + start * self.spacing_m,
        )


@dataclass(frozen=True)
class GsmTrajectory:
    """A GSM-aware trajectory: power matrix bound to a geo trajectory.

    Attributes
    ----------
    power_dbm:
        ``(n_channels, n_marks)`` RSSI at every (channel, mark); NaN where
        the channel was missing at that mark (not yet interpolated).
    channel_ids:
        ``(n_channels,)`` identifiers (plan positions or ARFCNs) — needed
        so two vehicles align channels before comparing.
    geo:
        The underlying geographical trajectory (same marks).
    """

    power_dbm: np.ndarray
    channel_ids: np.ndarray
    geo: GeoTrajectory

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.power_dbm, dtype=float))
        c = np.ascontiguousarray(np.asarray(self.channel_ids, dtype=np.int64))
        if p.ndim != 2:
            raise ValueError("power_dbm must be 2-D (channels x marks)")
        if c.shape != (p.shape[0],):
            raise ValueError("channel_ids must have one entry per power row")
        if p.shape[1] != self.geo.n_marks:
            raise ValueError(
                f"power has {p.shape[1]} marks but geo has {self.geo.n_marks}"
            )
        if len(np.unique(c)) != c.size:
            raise ValueError("duplicate channel ids")
        object.__setattr__(self, "power_dbm", p)
        object.__setattr__(self, "channel_ids", c)

    @property
    def n_channels(self) -> int:
        """Trajectory width (paper's n)."""
        return int(self.power_dbm.shape[0])

    @property
    def n_marks(self) -> int:
        """Number of marks."""
        return int(self.power_dbm.shape[1])

    @property
    def length_m(self) -> float:
        """Trajectory length (paper's m) [m]."""
        return self.geo.length_m

    @property
    def spacing_m(self) -> float:
        """Mark spacing [m]."""
        return self.geo.spacing_m

    @property
    def missing_fraction(self) -> float:
        """Fraction of (channel, mark) cells with no measurement."""
        return float(np.count_nonzero(np.isnan(self.power_dbm))) / self.power_dbm.size

    def tail(self, length_m: float) -> "GsmTrajectory":
        """The most recent ``length_m`` metres."""
        geo_tail = self.geo.tail(length_m)
        return GsmTrajectory(
            power_dbm=self.power_dbm[:, -geo_tail.n_marks :],
            channel_ids=self.channel_ids,
            geo=geo_tail,
        )

    def slice_marks(self, start: int, stop: int) -> "GsmTrajectory":
        """Marks ``start:stop`` as a new trajectory."""
        return GsmTrajectory(
            power_dbm=self.power_dbm[:, start:stop],
            channel_ids=self.channel_ids,
            geo=self.geo.slice_marks(start, stop),
        )

    def select_channels(self, channel_ids: np.ndarray) -> "GsmTrajectory":
        """Restrict to the given channel ids (paper: 'top 45 channels')."""
        wanted = np.asarray(channel_ids, dtype=np.int64)
        pos = {int(c): i for i, c in enumerate(self.channel_ids)}
        try:
            rows = np.array([pos[int(c)] for c in wanted], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"channel {exc} not present in trajectory") from None
        return GsmTrajectory(
            power_dbm=self.power_dbm[rows],
            channel_ids=wanted.copy(),
            geo=self.geo,
        )

    def strongest_channels(self, k: int) -> np.ndarray:
        """Ids of the ``k`` channels with highest mean power.

        The paper's checking window uses the "top 45 channels" (§VI-B):
        strong carriers have the best SNR and the least floor clipping.
        """
        if not 1 <= k <= self.n_channels:
            raise ValueError(f"k must be in [1, {self.n_channels}]")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            means = np.nanmean(self.power_dbm, axis=1)
        means = np.where(np.isnan(means), -np.inf, means)
        order = np.argsort(means)[::-1][:k]
        return self.channel_ids[np.sort(order)]

    def common_channels(self, other: "GsmTrajectory") -> np.ndarray:
        """Channel ids present in both trajectories (sorted)."""
        return np.intersect1d(self.channel_ids, other.channel_ids)


#: Measurements a builder holds unfolded: the append that brings its
#: queue to this many folds it, so a serve folds at most this many.  A
#: fold's cost is mostly fixed per call, so a longer queue folds
#: cheaper per measurement but makes the serve that folds it slower; a
#: chunk at least this long (a vehicle's history) folds at its append.
#: About 30 of a four-radio group's 0.5 s chunks.
MAX_QUEUED_MEASUREMENTS = 4096


class TrajectoryBuilder:
    """Incrementally maintained GSM-aware trajectory for one vehicle.

    The streaming counterpart of :func:`~repro.core.binding.bind_scan`:
    instead of re-binning the whole drive on every tracking period, the
    builder keeps a private, appendable
    :class:`~repro.core.binding.DriveBindingIndex` and serves its
    bounded context window with
    :meth:`~repro.core.binding.DriveBindingIndex.bind`, whose resident
    gap fill re-fills only the columns folded since the last serve plus
    the window's edges.

    :meth:`append` validates a chunk and queues it; :meth:`trajectory`
    folds everything queued in one pass over the concatenated chunks
    and the last accepted track, then serves.  A fold's cost is mostly
    fixed per call, and a fleet appends every vehicle every period but
    serves only the few it is asked about.  The append that brings the
    queue to :data:`MAX_QUEUED_MEASUREMENTS` folds it.  Served
    trajectories are **bit-identical** to a cold
    :func:`~repro.core.binding.bind_scan` over the concatenated stream,
    however the chunks were queued — the contract the prefix-equivalence
    suite in ``tests/test_streaming_prefix.py`` enforces — and own their
    arrays, so later appends never change one.

    :meth:`append` validates before it commits, against the last
    accepted chunk and track, queued or folded: a refused chunk
    (:class:`~repro.core.binding.ChunkRefused`, naming its cause) leaves
    the builder — queue, measurement count, served trajectory — exactly
    as it was.  The fold repeats no check and never raises.

    Parameters
    ----------
    spacing_m:
        Mark spacing (paper: 1 m).
    context_length_m:
        Served context length; must be a whole multiple of the spacing
        (the appendable index cannot serve off-grid windows).
    """

    def __init__(
        self, spacing_m: float = 1.0, context_length_m: float = 1000.0
    ) -> None:
        if spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if (
            abs(round(context_length_m / spacing_m) * spacing_m - context_length_m)
            > 1e-9
        ):
            raise ValueError(
                "context_length_m must be a whole multiple of spacing_m"
            )
        self._spacing_m = float(spacing_m)
        self._context_length_m = float(context_length_m)
        self._index = None  # DriveBindingIndex, created by the first fold
        self._queue: list = []  # accepted chunks not folded yet
        self._n_queued = 0  # measurements in them
        # The last accepted plan, track and measurement time.
        self._plan = None
        self._track = None
        self._last_time_s = -np.inf
        self._n_measurements = 0

    @property
    def n_measurements(self) -> int:
        """Total measurements accepted so far, queued or folded."""
        return self._n_measurements

    def append(self, chunk, track) -> None:
        """Validate a new scan chunk and queue it for the next serve.

        Parameters
        ----------
        chunk:
            :class:`~repro.gsm.scanner.ScanStream` holding only
            measurements newer than everything appended before (ragged
            chunk sizes are fine, empty chunks too).
        track:
            The vehicle's dead-reckoned track *as known now*; each call
            must pass a track that extends the previous one (passing the
            same full-drive track every time satisfies this trivially).

        Raises :class:`~repro.core.binding.ChunkRefused` (a
        ``ValueError``) — with the builder unchanged — for a chunk that
        is unsorted, overlaps earlier measurements, reaches beyond
        ``track``, or uses another channel plan, and for a track that
        does not extend the previous one.
        """
        from repro.core.binding import check_extension

        check_extension(
            chunk,
            track,
            self._spacing_m,
            self._plan,
            self._track,
            self._last_time_s,
        )
        if self._plan is None:
            self._plan = chunk.plan
        self._track = track
        if len(chunk):
            self._last_time_s = float(chunk.times_s[-1])
        # An empty chunk adds only its track, which every fold takes
        # from ``_track``; it is queued only when nothing else is, so
        # that the next serve still folds that track in.
        if len(chunk) or not self._queue:
            self._queue.append(chunk)
        self._n_queued += len(chunk)
        self._n_measurements += len(chunk)
        if self._n_queued >= MAX_QUEUED_MEASUREMENTS:
            self._fold()

    def trajectory(self, at_time_s: float | None = None) -> GsmTrajectory:
        """The bounded GSM-aware trajectory as known at ``at_time_s``.

        Folds whatever is queued first.  Raises ``ValueError`` while the
        drive is still too short for a trajectory, exactly as
        :func:`~repro.core.binding.bind_scan` would.
        """
        if self._track is None:
            raise ValueError(
                "not enough travelled distance for a trajectory "
                "(no measurements appended yet)"
            )
        if self._queue:
            self._fold()
        return self._index.bind(
            at_time_s=at_time_s, context_length_m=self._context_length_m
        )

    def _fold(self) -> None:
        """Fold every queued chunk, in one pass, with the last accepted
        track; :meth:`append` checked them all."""
        from repro.core.binding import DriveBindingIndex
        from repro.gsm.scanner import concat_streams

        queued, self._queue, self._n_queued = self._queue, [], 0
        stream = queued[0] if len(queued) == 1 else concat_streams(queued)
        if self._index is None:
            # Private (never shared via for_drive): every fold grows it.
            # Unfolded, it repeats no check of the first queue.
            self._index = DriveBindingIndex._unfolded(
                stream, self._track, self._spacing_m
            )
        self._index._fold(stream, self._track)

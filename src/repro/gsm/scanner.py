"""GSM radio scan-schedule model.

The paper's phones sweep channels sequentially at ~15 ms/channel; while a
vehicle moves, the channels of one "power vector" are therefore measured at
*different places* — the missing-channel problem of §IV-C/Fig 6.  With R
parallel radios the band is split R ways ("Each group divides the selected
115 channels ... according to the number of phones and scans the spectrum
in parallel", §VI-A), shrinking the spatial smear per sweep.

This module turns (field, motion, radio group) into the exact stream of
time-stamped per-channel measurements such hardware would produce.  Radio
placement matters (§VI-B): a centrally-mounted radio suffers in-cabin
attenuation and extra noise, degrading SYN accuracy — modelled by
:class:`PlacementProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from repro.gsm.band import ChannelPlan
from repro.gsm.field import SignalField
from repro.util.rng import as_generator

__all__ = [
    "PlacementProfile",
    "PLACEMENT_PROFILES",
    "Measurement",
    "RadioGroup",
    "ScanSchedule",
    "ScanStream",
    "build_schedule",
    "concat_streams",
    "scan_drive",
]


@dataclass(frozen=True)
class PlacementProfile:
    """Radio mounting position effects.

    Attributes
    ----------
    extra_loss_db:
        Mean additional attenuation (vehicle body / cabin) [dB].
    extra_noise_db:
        Additional measurement-noise std, combined in quadrature with the
        field's base noise [dB].
    pattern_distortion:
        Extra vehicle-specific variance fraction of the multipath field:
        an in-cabin antenna sees the environment through the body shell,
        so the spatial pattern it measures deviates from what a
        windshield-mounted antenna (or the neighbour's radio) measures.
        This is the dominant reason central placement degrades SYN
        accuracy (paper Fig 9).
    extra_skew_m:
        Additional per-channel sampling-parallax sigma [m]: the in-cabin
        antenna's effective phase centre and body diffraction shift the
        spatial pattern it records relative to a windshield mount.
    """

    name: str
    extra_loss_db: float
    extra_noise_db: float
    pattern_distortion: float = 0.0
    extra_skew_m: float = 0.0


#: The two mounting positions of §VI-B: "on the top of the instrument
#: panel" (front, near the windshield — good sky view) vs "at the center
#: of the Passat" (in-cabin, surrounded by the body shell).
PLACEMENT_PROFILES: MappingProxyType = MappingProxyType(
    {
        "front": PlacementProfile(
            "front", extra_loss_db=0.0, extra_noise_db=0.0, pattern_distortion=0.0
        ),
        "central": PlacementProfile(
            "central",
            extra_loss_db=8.0,
            extra_noise_db=3.0,
            pattern_distortion=0.35,
            extra_skew_m=4.0,
        ),
    }
)


@dataclass(frozen=True)
class Measurement:
    """One channel measurement (convenience record for tests/examples)."""

    time_s: float
    channel_index: int
    rssi_dbm: float
    radio_id: int


class RadioGroup:
    """A set of parallel scanning radios sharing one channel plan.

    Channels are interleaved round-robin across radios (radio ``r`` gets
    plan positions ``r, r+R, r+2R, ...``), so every radio's sweep covers
    the whole band coarsely rather than a contiguous block — this matches
    how one would configure real hardware to minimise per-location
    spectral gaps.
    """

    def __init__(
        self,
        plan: ChannelPlan,
        n_radios: int = 1,
        placement: str | PlacementProfile = "front",
    ) -> None:
        if n_radios < 1:
            raise ValueError("n_radios must be >= 1")
        if n_radios > plan.n_channels:
            raise ValueError("more radios than channels")
        self.plan = plan
        self.n_radios = int(n_radios)
        if isinstance(placement, str):
            try:
                placement = PLACEMENT_PROFILES[placement]
            except KeyError:
                raise ValueError(
                    f"unknown placement {placement!r}; "
                    f"choose from {sorted(PLACEMENT_PROFILES)}"
                ) from None
        self.placement = placement
        self._assignments = [
            np.arange(r, plan.n_channels, self.n_radios) for r in range(self.n_radios)
        ]

    def channels_of_radio(self, radio_id: int) -> np.ndarray:
        """Plan positions swept by one radio."""
        return self._assignments[radio_id].copy()

    @property
    def sweep_time_s(self) -> float:
        """Worst-case time for the group to cover the whole plan once [s]."""
        longest = max(a.size for a in self._assignments)
        return longest * self.plan.scan_time_s

    def sweep_span_m(self, speed_ms: float) -> float:
        """Distance a vehicle covers during one full sweep at given speed.

        This is the paper's §V-C arithmetic: 90 channels / 10 radios at
        15 ms each is 135 ms, i.e. 3 m at 80 km/h.
        """
        if speed_ms < 0:
            raise ValueError("speed must be non-negative")
        return speed_ms * self.sweep_time_s


@dataclass(frozen=True)
class ScanSchedule:
    """Precomputed measurement instants for a radio group.

    Arrays align element-wise and are sorted by time.
    """

    times_s: np.ndarray
    channel_indices: np.ndarray
    radio_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.times_s.size)


def build_schedule(group: RadioGroup, t0: float, t1: float) -> ScanSchedule:
    """All measurement instants of a radio group over ``[t0, t1)``.

    Each radio cycles its channel subset; a measurement is stamped at the
    *end* of its 15 ms sensing slot (when the RSSI value is available).
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    dt = group.plan.scan_time_s
    times_list: list[np.ndarray] = []
    chans_list: list[np.ndarray] = []
    radios_list: list[np.ndarray] = []
    for radio_id in range(group.n_radios):
        subset = group.channels_of_radio(radio_id)
        n_meas = int(np.floor((t1 - t0) / dt))
        if n_meas == 0:
            continue
        k = np.arange(n_meas)
        times_list.append(t0 + (k + 1) * dt)
        chans_list.append(subset[k % subset.size])
        radios_list.append(np.full(n_meas, radio_id, dtype=np.int64))
    if not times_list:
        return ScanSchedule(
            times_s=np.empty(0),
            channel_indices=np.empty(0, dtype=np.int64),
            radio_ids=np.empty(0, dtype=np.int64),
        )
    times = np.concatenate(times_list)
    chans = np.concatenate(chans_list)
    radios = np.concatenate(radios_list)
    order = np.argsort(times, kind="stable")
    return ScanSchedule(times[order], chans[order], radios[order])


@dataclass(frozen=True)
class ScanStream:
    """The measurement stream one vehicle's radio group produced.

    Attributes
    ----------
    times_s, channel_indices, radio_ids:
        The schedule actually executed (aligned element-wise).
    s_true_m:
        True arc-length position of the vehicle at each measurement [m]
        (simulation-internal; the RUPS pipeline never reads it).
    rssi_dbm:
        Measured RSSI values [dBm]; every one must be finite.
    plan:
        The channel plan measured.

    Raises ``ValueError`` for a non-finite RSSI.  Every path into
    binding — :func:`~repro.core.binding.bind_scan`, the drive binding
    index, the streaming builder, a scan loaded from disk — takes a
    stream, so this one check keeps ``inf``/``NaN`` out of every context.
    """

    times_s: np.ndarray
    channel_indices: np.ndarray
    radio_ids: np.ndarray
    s_true_m: np.ndarray
    rssi_dbm: np.ndarray
    plan: ChannelPlan

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.rssi_dbm)):
            raise ValueError("scan holds non-finite RSSI")

    def __len__(self) -> int:
        return int(self.times_s.size)

    def measurements(self) -> list[Measurement]:
        """Materialise as record objects (small streams only)."""
        return [
            Measurement(float(t), int(c), float(r), int(rid))
            for t, c, r, rid in zip(
                self.times_s, self.channel_indices, self.rssi_dbm, self.radio_ids
            )
        ]

    def slice(self, start: int, stop: int) -> "ScanStream":
        """A contiguous sub-stream (views, not copies) of measurements.

        The streaming pipeline feeds a drive to
        :class:`~repro.core.trajectory.TrajectoryBuilder` chunk by
        chunk; slicing keeps the chunks zero-copy.
        """
        return ScanStream(
            times_s=self.times_s[start:stop],
            channel_indices=self.channel_indices[start:stop],
            radio_ids=self.radio_ids[start:stop],
            s_true_m=self.s_true_m[start:stop],
            rssi_dbm=self.rssi_dbm[start:stop],
            plan=self.plan,
        )


def concat_streams(streams: "list[ScanStream] | tuple[ScanStream, ...]") -> ScanStream:
    """Concatenate scan chunks back into one stream (plan must match).

    The inverse of feeding a drive chunk-wise: the rebuild-per-update
    baseline in the streaming benchmark re-binds the concatenation on
    every event, which is exactly what the incremental path must stay
    bit-identical to.
    """
    if not streams:
        raise ValueError("need at least one stream to concatenate")
    plan = streams[0].plan
    for s in streams[1:]:
        if s.plan is not plan and s.plan.n_channels != plan.n_channels:
            raise ValueError("streams use different channel plans")
    return ScanStream(
        times_s=np.concatenate([s.times_s for s in streams]),
        channel_indices=np.concatenate([s.channel_indices for s in streams]),
        radio_ids=np.concatenate([s.radio_ids for s in streams]),
        s_true_m=np.concatenate([s.s_true_m for s in streams]),
        rssi_dbm=np.concatenate([s.rssi_dbm for s in streams]),
        plan=plan,
    )


def scan_drive(
    field: SignalField,
    position_fn: Callable[[np.ndarray], np.ndarray],
    group: RadioGroup,
    t0: float,
    t1: float,
    lane: int = 0,
    day: int = 0,
    rng: np.random.Generator | int | None = 0,
    include_blockage: bool = True,
    vehicle_key: object = None,
) -> ScanStream:
    """Simulate a radio group scanning while the vehicle drives.

    Parameters
    ----------
    field:
        The road's signal field.  Its plan must equal the group's plan.
    position_fn:
        Vectorized map from times [s] to arc length [m] along the field's
        road (typically ``MotionProfile.arc_length_at``).
    t0, t1:
        Scan window [s].
    lane, day:
        Field query context.
    rng:
        Measurement-noise stream.
    vehicle_key:
        Identity of the measuring vehicle; enables the field's
        vehicle-specific micro multipath (same-lane decorrelation) plus
        the placement's pattern distortion.

    Returns
    -------
    ScanStream
        One RSSI sample per (radio, slot) with true positions attached.
    """
    if field.plan is not group.plan and field.plan.n_channels != group.plan.n_channels:
        raise ValueError("field and radio group use different channel plans")
    gen = as_generator(rng)
    schedule = build_schedule(group, t0, t1)
    s = np.asarray(position_fn(schedule.times_s), dtype=float)
    if s.shape != schedule.times_s.shape:
        raise ValueError("position_fn must return one position per time")
    placement = group.placement
    noise = float(
        np.hypot(field.config.noise_sigma_db, placement.extra_noise_db)
    )
    rssi = field.measure(
        times_s=schedule.times_s,
        s_m=s,
        channel_indices=schedule.channel_indices,
        lane=lane,
        day=day,
        extra_loss_db=placement.extra_loss_db,
        noise_sigma_db=noise,
        rng=gen,
        include_blockage=include_blockage,
        vehicle_key=vehicle_key,
        extra_distortion=placement.pattern_distortion,
        extra_skew_m=placement.extra_skew_m,
    )
    return ScanStream(
        times_s=schedule.times_s,
        channel_indices=schedule.channel_indices,
        radio_ids=schedule.radio_ids,
        s_true_m=s,
        rssi_dbm=rssi,
        plan=field.plan,
    )

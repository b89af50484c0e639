"""Resident state for a fleet of tracked vehicles.

The store keeps, per vehicle, the resident
:class:`~repro.core.trajectory.TrajectoryBuilder` the streaming
pipeline feeds, and one tracking session per *ordered* pair (``own``
tracks ``other``).

It is deliberately single-process and unlocked — one dict of slots and
one of sessions: the fleet service runs every state transition, and
every search, in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.binding import ChunkRefused
from repro.core.config import RupsConfig
from repro.core.tracking import RupsTracker
from repro.core.trajectory import GsmTrajectory, TrajectoryBuilder
from repro.gsm.scanner import ScanStream
from repro.obs.metrics import inc, set_gauge
from repro.sensors.deadreckoning import EstimatedTrack

__all__ = ["FleetStore", "VehicleSlot"]


@dataclass
class VehicleSlot:
    """Everything the fleet keeps resident for one vehicle.

    Attributes
    ----------
    vehicle_id:
        The vehicle's stable identifier.
    builder:
        Resident incremental trajectory builder: it validates and
        queues every ingested chunk, and folds the queue into its
        binding index when the vehicle is next served (or when the
        queue is full), so a vehicle that is never queried pays no fold
        per ingest.
    n_chunks, n_measurements:
        Lifetime ingest totals.
    """

    vehicle_id: str
    builder: TrajectoryBuilder
    n_chunks: int = 0
    n_measurements: int = 0


class FleetStore:
    """Per-vehicle builders and per-pair tracking sessions.

    Parameters
    ----------
    config:
        RUPS configuration shared by every session; its
        ``context_length_m`` is each builder's serving window.

    Every session is a ``RupsTracker(config)`` with the tracker's
    default lock window, failure ladder and staleness budget.
    """

    def __init__(self, config: RupsConfig | None = None) -> None:
        self.config = config or RupsConfig()
        self._slots: dict[str, VehicleSlot] = {}
        self._sessions: dict[tuple[str, str], RupsTracker] = {}

    # -- ingestion -----------------------------------------------------
    def ingest(
        self, vehicle_id: str, chunk: ScanStream, track: EstimatedTrack
    ) -> VehicleSlot:
        """Validate one newly arrived scan chunk and queue it in a
        vehicle's builder, to be folded when the vehicle is next served.

        ``chunk`` carries all measurements since the previous ingest and
        ``track`` the dead-reckoned track as known now (it must extend
        the previous one) — the same contract as
        :meth:`RupsTracker.stream_update`.  Unknown vehicles are
        admitted on their first *accepted* ingest: a chunk the builder
        refuses (:class:`~repro.core.binding.ChunkRefused`, a
        ``ValueError``) changes nothing, admission included, and counts
        under ``fleet.store.ingests.rejected.<cause>``.
        """
        slot = self._slots.get(vehicle_id)
        admit = slot is None
        if admit:
            slot = VehicleSlot(
                vehicle_id=str(vehicle_id),
                builder=TrajectoryBuilder(
                    spacing_m=self.config.spacing_m,
                    context_length_m=self.config.context_length_m,
                ),
            )
        try:
            slot.builder.append(chunk, track)
        except ChunkRefused as refusal:
            inc(f"fleet.store.ingests.rejected.{refusal.cause}")
            raise
        if admit:
            self._slots[vehicle_id] = slot
            inc("fleet.store.vehicles_admitted")
            set_gauge("fleet.store.vehicles", self.n_vehicles)
        slot.n_chunks += 1
        slot.n_measurements += len(chunk)
        inc("fleet.store.ingests")
        inc("fleet.store.measurements", len(chunk))
        return slot

    # -- reads ---------------------------------------------------------
    def has(self, vehicle_id: str) -> bool:
        """Whether the vehicle has ever ingested."""
        return vehicle_id in self._slots

    def slot(self, vehicle_id: str) -> VehicleSlot:
        """The vehicle's resident slot (``KeyError`` when unknown)."""
        return self._slots[vehicle_id]

    def trajectory(
        self, vehicle_id: str, at_time_s: float | None = None
    ) -> GsmTrajectory:
        """Serve the vehicle's bounded GSM-aware trajectory.

        Raises ``KeyError`` for an unknown vehicle and ``ValueError``
        while its drive is still too short for a trajectory — the same
        errors a cold build would produce, surfaced per query by the
        service as error estimates rather than failures.
        """
        return self.slot(vehicle_id).builder.trajectory(at_time_s=at_time_s)

    def vehicles(self) -> list[str]:
        """All admitted vehicle ids, sorted."""
        return sorted(self._slots)

    @property
    def n_vehicles(self) -> int:
        """Number of admitted vehicles."""
        return len(self._slots)

    # -- sessions ------------------------------------------------------
    def session(self, own_id: str, other_id: str) -> RupsTracker:
        """The tracking session where ``own_id`` tracks ``other_id``.

        Ordered: ``(a, b)`` and ``(b, a)`` are distinct sessions (each
        side tracks the other against its *own* trajectory).  Created on
        first use, resident thereafter.
        """
        key = (str(own_id), str(other_id))
        tracker = self._sessions.get(key)
        if tracker is None:
            tracker = RupsTracker(self.config)
            self._sessions[key] = tracker
            inc("fleet.store.sessions_opened")
            set_gauge("fleet.store.sessions", self.n_sessions)
        return tracker

    @property
    def n_sessions(self) -> int:
        """Number of open tracking sessions."""
        return len(self._sessions)

    def drop_vehicle(self, vehicle_id: str) -> None:
        """Forget a vehicle: its slot and every session involving it.

        The chunks its builder still queues go unfolded.  A no-op for
        unknown vehicles.
        """
        if self._slots.pop(vehicle_id, None) is not None:
            inc("fleet.store.vehicles_dropped")
            set_gauge("fleet.store.vehicles", self.n_vehicles)
        for key in [key for key in self._sessions if vehicle_id in key]:
            del self._sessions[key]
        set_gauge("fleet.store.sessions", self.n_sessions)

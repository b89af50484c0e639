"""Sharded resident state for a fleet of tracked vehicles.

One city-scale deployment holds thousands of vehicles' streaming state;
a flat dict would serialise every touch behind one lock in a real
service.  The store therefore shards by vehicle id — with a *stable*
hash (``zlib.crc32``), never the interpreter's randomised ``hash()``,
so shard assignment is reproducible across processes and runs — and
keeps, per vehicle, the resident
:class:`~repro.core.trajectory.TrajectoryBuilder` the streaming
pipeline feeds.  Tracking sessions are per *ordered* pair (``own``
tracks ``other``) and live in the owning vehicle's shard.

The store itself is deliberately single-process and unlocked: the
deterministic fleet service runs all state transitions in the
submitting process and fans only pure searches out to workers, so the
shards here encode placement (which a distributed port would turn into
per-shard processes), not concurrency.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

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
        Resident incremental trajectory builder; every ingested chunk is
        folded in, so serving a bounded context is O(window).
    n_chunks, n_measurements:
        Lifetime ingest totals.
    """

    vehicle_id: str
    builder: TrajectoryBuilder
    n_chunks: int = 0
    n_measurements: int = 0


class FleetStore:
    """Sharded per-vehicle builders and per-pair tracking sessions.

    Parameters
    ----------
    config:
        RUPS configuration shared by every session; must have a bounded
        ``context_length_m`` (the builders need a serving window).
    n_shards:
        Shard count; ids are placed by ``crc32(id) % n_shards``.

    Every session is a ``RupsTracker(config)`` with the tracker's
    default lock window, failure ladder and staleness budget.
    """

    def __init__(
        self,
        config: RupsConfig | None = None,
        n_shards: int = 8,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.config = config or RupsConfig()
        if self.config.context_length_m is None:
            raise ValueError("FleetStore requires a bounded context_length_m")
        self.n_shards = int(n_shards)
        self._shards: list[dict[str, VehicleSlot]] = [
            {} for _ in range(self.n_shards)
        ]
        self._sessions: list[dict[tuple[str, str], RupsTracker]] = [
            {} for _ in range(self.n_shards)
        ]

    # -- placement -----------------------------------------------------
    def shard_of(self, vehicle_id: str) -> int:
        """Stable shard index of ``vehicle_id``.

        ``zlib.crc32`` rather than ``hash()``: the built-in string hash
        is salted per interpreter (``PYTHONHASHSEED``), which would make
        shard placement — and any placement-derived metric — differ
        between runs and between parent and spawn workers.
        """
        return zlib.crc32(str(vehicle_id).encode()) % self.n_shards

    # -- ingestion -----------------------------------------------------
    def ingest(
        self, vehicle_id: str, chunk: ScanStream, track: EstimatedTrack
    ) -> VehicleSlot:
        """Fold one newly arrived scan chunk into a vehicle's builder.

        ``chunk`` carries all measurements since the previous ingest and
        ``track`` the dead-reckoned track as known now (it must extend
        the previous one) — the same contract as
        :meth:`RupsTracker.stream_update`.  Unknown vehicles are
        admitted on their first *accepted* ingest: a chunk the builder
        rejects (``ValueError``) changes nothing, admission included.
        """
        shard = self._shards[self.shard_of(vehicle_id)]
        slot = shard.get(vehicle_id)
        admit = slot is None
        if admit:
            slot = VehicleSlot(
                vehicle_id=str(vehicle_id),
                builder=TrajectoryBuilder(
                    spacing_m=self.config.spacing_m,
                    context_length_m=self.config.context_length_m,
                ),
            )
        slot.builder.append(chunk, track)
        if admit:
            shard[vehicle_id] = slot
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
        return vehicle_id in self._shards[self.shard_of(vehicle_id)]

    def slot(self, vehicle_id: str) -> VehicleSlot:
        """The vehicle's resident slot (``KeyError`` when unknown)."""
        return self._shards[self.shard_of(vehicle_id)][vehicle_id]

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
        """All admitted vehicle ids, sorted (placement-independent)."""
        out: list[str] = []
        for shard in self._shards:
            out.extend(shard)
        return sorted(out)

    @property
    def n_vehicles(self) -> int:
        """Number of admitted vehicles."""
        return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Vehicles per shard (balance diagnostics)."""
        return [len(shard) for shard in self._shards]

    # -- sessions ------------------------------------------------------
    def session(self, own_id: str, other_id: str) -> RupsTracker:
        """The tracking session where ``own_id`` tracks ``other_id``.

        Ordered: ``(a, b)`` and ``(b, a)`` are distinct sessions (each
        side tracks the other against its *own* trajectory).  Created on
        first use, resident in the owning vehicle's shard thereafter.
        """
        sessions = self._sessions[self.shard_of(own_id)]
        key = (str(own_id), str(other_id))
        tracker = sessions.get(key)
        if tracker is None:
            tracker = RupsTracker(self.config)
            sessions[key] = tracker
            inc("fleet.store.sessions_opened")
            set_gauge("fleet.store.sessions", self.n_sessions)
        return tracker

    @property
    def n_sessions(self) -> int:
        """Number of open tracking sessions."""
        return sum(len(sessions) for sessions in self._sessions)

    def drop_vehicle(self, vehicle_id: str) -> None:
        """Forget a vehicle: its slot and every session involving it.

        A no-op for unknown vehicles.  Sessions *owned by* the vehicle
        live in its shard; sessions where it is the tracked neighbour
        are scattered, so all shards are swept.
        """
        shard = self._shards[self.shard_of(vehicle_id)]
        if shard.pop(vehicle_id, None) is not None:
            inc("fleet.store.vehicles_dropped")
            set_gauge("fleet.store.vehicles", self.n_vehicles)
        for sessions in self._sessions:
            stale = [
                key
                for key in sessions
                if key[0] == vehicle_id or key[1] == vehicle_id
            ]
            for key in stale:
                del sessions[key]
        set_gauge("fleet.store.sessions", self.n_sessions)

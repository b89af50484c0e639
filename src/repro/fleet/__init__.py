"""City-scale relative-distance-fixing service over the streaming hot path.

The paper frames RUPS as an on-demand service: any vehicle may ask, at
any moment, for its relative distance to any neighbour whose context it
has received.  One :class:`~repro.core.tracking.RupsTracker` per pair
and one resident :class:`~repro.core.trajectory.TrajectoryBuilder` per
vehicle already make a single session cheap (§V-B and the streaming
pipeline); this package scales that to a *fleet*:

* :mod:`repro.fleet.store` — :class:`FleetStore`, the resident state:
  per-vehicle builders fed by scan ingestion, and per-pair tracking
  sessions, both addressed by vehicle id.
* :mod:`repro.fleet.service` — :class:`FleetService`, the deterministic
  request path: ``submit()`` enqueues pair queries, ``tick()`` runs all
  pending sessions' SYN searches as one cross-pair batched kernel call
  per round, in the calling process, then folds each result back into
  its session in submission order, one round per rung of the tracking
  ladder.  A session holds one undecided plan at a time, so its later
  query in a tick is planned once its earlier one is decided.

Splitting every tracking period into a plan/absorb pair around a pure
batched search (``RupsTracker.plan_update`` / ``absorb_update``) is
what lets one search call serve many sessions while each session walks
its ladder exactly as a dedicated tracker would.
"""

from repro.fleet.service import (
    FleetEstimate,
    FleetQuery,
    FleetService,
    FleetTicket,
)
from repro.fleet.store import FleetStore, VehicleSlot

__all__ = [
    "FleetEstimate",
    "FleetQuery",
    "FleetService",
    "FleetStore",
    "FleetTicket",
    "VehicleSlot",
]

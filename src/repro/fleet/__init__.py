"""City-scale relative-distance-fixing service over the streaming hot path.

The paper frames RUPS as an on-demand service: any vehicle may ask, at
any moment, for its relative distance to any neighbour whose context it
has received.  One :class:`~repro.core.tracking.RupsTracker` per pair
and one resident :class:`~repro.core.trajectory.TrajectoryBuilder` per
vehicle already make a single session cheap (§V-B and the streaming
pipeline); this package scales that to a *fleet*:

* :mod:`repro.fleet.store` — :class:`FleetStore`, sharded resident
  state: per-vehicle builders fed by scan ingestion, and per-pair
  tracking sessions, both addressed by vehicle id.
* :mod:`repro.fleet.service` — :class:`FleetService`, the deterministic
  request path: ``submit()`` enqueues pair queries, ``tick()`` runs all
  pending sessions' SYN searches as fixed-size cross-pair batches fanned
  out over a :class:`~repro.runtime.DeterministicExecutor` (trajectories
  travel as :mod:`repro.runtime.shared` refs, not payloads), then folds
  each result back into its session in submission order, one round
  per rung of the tracking ladder.

Splitting every tracking period into a parent-side plan/absorb pair and
pure batched searches (``RupsTracker.plan_update`` /
``absorb_update``) is what keeps the fleet deterministic: all session
state transitions happen in the submitting process, so results, merged
metrics (modulo wall-clock ``span.*`` histograms) and the provenance
event stream are byte-identical for any ``jobs``.
"""

from repro.fleet.service import (
    DEFAULT_CHUNK_PAIRS,
    FleetEstimate,
    FleetQuery,
    FleetService,
    FleetTicket,
)
from repro.fleet.store import FleetStore, VehicleSlot

__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "FleetEstimate",
    "FleetQuery",
    "FleetService",
    "FleetStore",
    "FleetTicket",
    "VehicleSlot",
]

"""RUPS core: the paper's contribution.

The pipeline (paper Fig 5):

1. :mod:`repro.core.trajectory` — containers: the per-metre geographical
   trajectory ``(theta_i, t_i)`` and the GSM-aware trajectory (a power
   matrix bound to it).
2. :mod:`repro.core.binding` — bind time-domain RSSI scans to the
   distance domain; linear interpolation of missing channels (§IV-C).
3. :mod:`repro.core.power_vector` — eq. (1) Pearson correlation of power
   vectors and eq. (3) relative change.
4. :mod:`repro.core.correlation` — eq. (2) trajectory correlation
   coefficient, including the fused all-window-positions sweep.
5. :mod:`repro.core.syn` — the double-sliding cross-correlation check
   that finds SYN points (§IV-D), with the flexible-window variant
   (§V-C) and multi-SYN extraction (§VI-C).
6. :mod:`repro.core.resolver` — relative-distance resolution from SYN
   points (§IV-E) and the aggregation schemes of Fig 10.
7. :mod:`repro.core.engine` — :class:`RupsEngine`, the end-to-end
   per-vehicle facade.
"""

from repro.core.binding import bind_scan, interpolate_missing
from repro.core.config import RupsConfig
from repro.core.correlation import (
    correlation_matrix,
    normalized_window_features,
    reference_sliding_correlation,
    sliding_trajectory_correlation,
    trajectory_correlation,
)
from repro.core.engine import RupsEngine, RupsEstimate
from repro.core.power_vector import (
    pearson_correlation,
    relative_change,
)
from repro.core.resolver import (
    AGGREGATORS,
    aggregate_estimates,
    resolve_relative_distance,
)
from repro.core.syn import SynPoint, find_syn_points, seek_syn_point
from repro.core.tracking import DistanceFilter, RupsTracker, TrackerUpdate
from repro.core.trajectory import GeoTrajectory, GsmTrajectory

__all__ = [
    "bind_scan",
    "interpolate_missing",
    "RupsConfig",
    "correlation_matrix",
    "normalized_window_features",
    "reference_sliding_correlation",
    "sliding_trajectory_correlation",
    "trajectory_correlation",
    "RupsEngine",
    "RupsEstimate",
    "pearson_correlation",
    "relative_change",
    "AGGREGATORS",
    "aggregate_estimates",
    "resolve_relative_distance",
    "SynPoint",
    "find_syn_points",
    "seek_syn_point",
    "DistanceFilter",
    "RupsTracker",
    "TrackerUpdate",
    "GeoTrajectory",
    "GsmTrajectory",
]

"""RUPS configuration.

Defaults follow the paper's implementation choices: journey contexts of
1,000 m (§V-A), a checking window of the top 45 channels and 85 m
(§VI-B), a coherency threshold of 1.2 (§VI-B), 1 m binding resolution
(§III-A), five SYN points with selective averaging (§VI-C), and the
flexible-window floor of 10 m (§V-C).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

__all__ = ["RupsConfig"]


@dataclass(frozen=True)
class RupsConfig:
    """All tunables of the RUPS pipeline.

    Attributes
    ----------
    context_length_m:
        Journey-context length exchanged and searched (paper: 1,000 m).
    window_length_m:
        Checking-window length (paper: 85 m in §VI-B, 100 m in §V-A).
    window_channels:
        Checking-window width: number of strongest channels used
        (paper: "top 45 channels").
    coherency_threshold:
        Minimum trajectory correlation coefficient (eq. 2, range [-2, 2])
        for a window position to count as a SYN point (paper: 1.2).
    spacing_m:
        Distance-domain binding resolution (paper: 1 m).
    n_syn_points:
        SYN points sought for aggregation (paper: 5, §VI-C).
    syn_stride_m:
        Spacing between the ends of successive query windows when seeking
        multiple SYN points.
    aggregation:
        ``"single"``, ``"mean"`` or ``"selective"`` (§VI-C; selective
        drops the max and min estimates before averaging).
    flexible_window:
        Enable the §V-C adaptive window: when less context than
        ``window_length_m`` is available, shrink the window (down to
        ``min_window_length_m``) and relax the threshold linearly to
        ``min_coherency_threshold``.
    min_window_length_m:
        Smallest window the flexible mode accepts (paper: 10 m).
    min_coherency_threshold:
        Threshold used at the smallest window.
    heading_check:
        Reject SYN points whose matched windows disagree in heading by
        more than ``max_heading_disagreement_rad`` on average — the
        "further comparing their geographical trajectories" consistency
        test.  Off by default (matches the paper's evaluation); useful
        on winding networks where different roads can look spectrally
        similar.
    max_heading_disagreement_rad:
        Heading-agreement gate for the check above.
    """

    context_length_m: float = 1000.0
    window_length_m: float = 85.0
    window_channels: int = 45
    coherency_threshold: float = 1.2
    spacing_m: float = 1.0
    n_syn_points: int = 5
    syn_stride_m: float = 25.0
    aggregation: str = "selective"
    flexible_window: bool = True
    min_window_length_m: float = 10.0
    min_coherency_threshold: float = 0.9
    heading_check: bool = False
    max_heading_disagreement_rad: float = 0.35

    def __post_init__(self) -> None:
        if not isinstance(self.context_length_m, numbers.Real):
            raise ValueError(
                "context_length_m must be a number, "
                f"got {self.context_length_m!r}"
            )
        if self.context_length_m <= 0:
            raise ValueError("context_length_m must be positive")
        if not 0 < self.window_length_m <= self.context_length_m:
            raise ValueError("window_length_m must be in (0, context_length_m]")
        if self.window_channels < 1:
            raise ValueError("window_channels must be >= 1")
        if not -2.0 <= self.coherency_threshold <= 2.0:
            raise ValueError("coherency_threshold must lie in [-2, 2] (eq. 2 range)")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if self.n_syn_points < 1:
            raise ValueError("n_syn_points must be >= 1")
        if self.syn_stride_m <= 0:
            raise ValueError("syn_stride_m must be positive")
        if self.aggregation not in ("single", "mean", "selective"):
            raise ValueError(
                f"aggregation must be 'single', 'mean' or 'selective', "
                f"got {self.aggregation!r}"
            )
        if not 0 < self.min_window_length_m <= self.window_length_m:
            raise ValueError(
                "min_window_length_m must be in (0, window_length_m]"
            )
        if self.min_coherency_threshold > self.coherency_threshold:
            raise ValueError(
                "min_coherency_threshold cannot exceed coherency_threshold"
            )
        if self.max_heading_disagreement_rad <= 0:
            raise ValueError("max_heading_disagreement_rad must be positive")

    @property
    def window_marks(self) -> int:
        """Checking-window length in marks."""
        return int(round(self.window_length_m / self.spacing_m)) + 1

    def threshold_for_window(self, window_length_m: float) -> float:
        """Coherency threshold for a (possibly shrunken) window (§V-C).

        Linear interpolation between ``min_coherency_threshold`` at
        ``min_window_length_m`` and ``coherency_threshold`` at the full
        window length.
        """
        if window_length_m >= self.window_length_m:
            return self.coherency_threshold
        if window_length_m < self.min_window_length_m:
            raise ValueError(
                f"window of {window_length_m} m is below the "
                f"{self.min_window_length_m} m minimum"
            )
        span = self.window_length_m - self.min_window_length_m
        if span <= 0:
            return self.coherency_threshold
        frac = (window_length_m - self.min_window_length_m) / span
        return self.min_coherency_threshold + frac * (
            self.coherency_threshold - self.min_coherency_threshold
        )

"""The end-to-end RUPS facade.

:class:`RupsEngine` wires the pipeline of Fig 5 together for one vehicle:
bind scans to the estimated trajectory, reduce to the strongest common
channels, run the SYN search against a neighbour's trajectory, and
resolve + aggregate the relative distance.  It also implements the §V-B
tracking hook: after a SYN lock, subsequent queries can reuse the lock
and only extend trajectories incrementally (see
:mod:`repro.v2v.exchange` for the communication side).
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.binding import DriveBindingIndex, bind_scan
from repro.core.config import RupsConfig
from repro.core.resolver import aggregate_estimates, resolve_relative_distance
from repro.core.syn import (
    SynPoint,
    _effective_window,
    _query_scope,
    find_syn_points_batch,
)
from repro.core.trajectory import GsmTrajectory
from repro.gsm.scanner import ScanStream
from repro.obs.events import emit
from repro.obs.metrics import inc
from repro.obs.tracing import trace
from repro.sensors.deadreckoning import EstimatedTrack

__all__ = ["ESTIMATE_CAUSES", "RupsEngine", "RupsEstimate"]

#: Root-cause taxonomy of :attr:`RupsEstimate.cause`, the per-query
#: attribution the event ledger and error reporter bin by (§V, Figs
#: 9–12 discuss exactly these failure modes):
#:
#: * ``no_window``    — even the flexible minimum window did not fit
#:   (contexts too short to attempt a search);
#: * ``short_context``— a shrunk flexible window was searched but every
#:   candidate fell below the relaxed threshold;
#: * ``threshold``    — full-width search, all peaks below the coherency
#:   threshold (trajectories look unrelated);
#: * ``heading``      — candidates passed the correlation threshold but
#:   every one failed the heading-agreement gate;
#: * ``flex_window``  — resolved, but from a shrunk window (treat with
#:   reduced confidence);
#: * ``low_margin``   — resolved with the best peak barely above the
#:   threshold;
#: * ``ok``           — resolved cleanly.
ESTIMATE_CAUSES = (
    "no_window",
    "short_context",
    "threshold",
    "heading",
    "flex_window",
    "low_margin",
    "ok",
)

#: A resolved estimate whose best peak clears the threshold by less than
#: this is attributed ``low_margin``.
_LOW_MARGIN = 0.05


@dataclass(frozen=True)
class RupsEstimate:
    """Result of one relative-distance query.

    Attributes
    ----------
    distance_m:
        Aggregated relative distance [m]; positive = the other vehicle is
        ahead.  ``None`` when no SYN point satisfied the coherency
        threshold (unrelated trajectories / insufficient context).
    syn_points:
        The accepted SYN points, most recent first.
    per_syn_m:
        The individual distance estimates (one per SYN point).
    aggregation:
        Scheme used to combine them.
    cause:
        Root-cause attribution of the outcome (one of
        :data:`ESTIMATE_CAUSES`): why the query failed, or which caveat
        a resolved estimate carries.
    """

    distance_m: float | None
    syn_points: tuple[SynPoint, ...]
    per_syn_m: tuple[float, ...]
    aggregation: str
    cause: str = "ok"

    @property
    def resolved(self) -> bool:
        """Whether a distance was resolved at all."""
        return self.distance_m is not None

    @property
    def best_score(self) -> float | None:
        """Highest SYN score, if any."""
        if not self.syn_points:
            return None
        return max(s.score for s in self.syn_points)


class RupsEngine:
    """Per-vehicle RUPS pipeline.

    Parameters
    ----------
    config:
        Algorithm tunables; defaults follow the paper (see
        :class:`~repro.core.config.RupsConfig`).

    On-grid builds are served from a per-drive
    :class:`~repro.core.binding.DriveBindingIndex`, which is
    differentially tested to be bit-identical to :func:`bind_scan`.  The
    engine keeps the last few indices in a small LRU keyed on the
    identity of the ``(scan, track)`` inputs; it holds strong references
    to the keyed objects, so a recycled ``id()`` can never alias a dead
    entry (hits additionally verify identity).  Nothing else carries
    over between queries: every estimate reduces channels and runs its
    SYN sweep afresh.
    """

    _BINDING_INDEX_SLOTS = 4

    def __init__(self, config: RupsConfig | None = None) -> None:
        self.config = config or RupsConfig()
        # (id(scan), id(track)) -> (scan, track, DriveBindingIndex)
        self._binding_indices: OrderedDict[tuple, tuple] = OrderedDict()
        # Materialise the cache counters so every metrics snapshot that
        # saw an engine carries the full hit/miss key set, hits or not.
        for outcome in ("hit", "miss"):
            inc(f"engine.cache.binding_index.{outcome}", 0)

    # ------------------------------------------------------------------
    def _binding_index(
        self, scan: ScanStream, track: EstimatedTrack
    ) -> DriveBindingIndex:
        key = (id(scan), id(track))
        hit = self._binding_indices.get(key)
        if hit is not None and hit[0] is scan and hit[1] is track:
            self._binding_indices.move_to_end(key)
            inc("engine.cache.binding_index.hit")
            emit("engine.build", diagnostic=True, cache="hit")
            return hit[2]
        inc("engine.cache.binding_index.miss")
        emit("engine.build", diagnostic=True, cache="miss")
        with trace("engine.bind_index"):
            # Content-addressed: a fresh engine (or another process's
            # checkout of the same drive) reuses an already-built index.
            index = DriveBindingIndex.for_drive(
                scan, track, spacing_m=self.config.spacing_m
            )
        self._binding_indices[key] = (scan, track, index)
        while len(self._binding_indices) > self._BINDING_INDEX_SLOTS:
            self._binding_indices.popitem(last=False)
        return index

    def build_trajectory(
        self,
        scan: ScanStream,
        track: EstimatedTrack,
        at_time_s: float | None = None,
        context_length_m: float | None = None,
    ) -> GsmTrajectory:
        """Perceive the GSM-aware trajectory as known at ``at_time_s``.

        Binds the raw scan stream to the dead-reckoned distance domain and
        interpolates missing channels (§IV-C).  The result is what the
        vehicle would broadcast to neighbours.

        On-grid contexts are sliced out of the drive's cached
        :class:`~repro.core.binding.DriveBindingIndex` (whole-drive
        binning, O(window) per query), so convoy scenes and campaigns
        stop re-binning the full scan stream on every query; an off-grid
        context falls back to :func:`bind_scan`.  Both paths are
        bit-identical.
        """
        ctx = (
            self.config.context_length_m
            if context_length_m is None
            else context_length_m
        )
        spacing = self.config.spacing_m
        on_grid = abs(round(ctx / spacing) * spacing - ctx) <= 1e-9
        if not on_grid:
            emit("engine.build", diagnostic=True, cache="bypass")
            with trace("engine.build"):
                return bind_scan(
                    scan,
                    track,
                    at_time_s=at_time_s,
                    context_length_m=ctx,
                    spacing_m=spacing,
                    interpolate=True,
                )
        with trace("engine.build"):
            return self._binding_index(scan, track).bind(
                at_time_s=at_time_s, context_length_m=ctx, interpolate=True
            )

    def _reduce_channels(
        self, own: GsmTrajectory, other: GsmTrajectory
    ) -> tuple[GsmTrajectory, GsmTrajectory]:
        """Restrict both trajectories to the strongest common channels.

        The paper's checking window is "top 45 channels wide" (§VI-B);
        strength is ranked on the combined mean power so both vehicles
        agree on the subset.
        """
        common = own.common_channels(other)
        if common.size < 2:
            raise ValueError("trajectories share fewer than two channels")
        # Same scan plan on both sides (the common case, every streaming
        # update): the restriction is the identity — skip the copies.
        own_c = (
            own
            if np.array_equal(common, own.channel_ids)
            else own.select_channels(common)
        )
        other_c = (
            other
            if np.array_equal(common, other.channel_ids)
            else other.select_channels(common)
        )
        k = min(self.config.window_channels, common.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            mean_own = np.nanmean(own_c.power_dbm, axis=1)
            mean_other = np.nanmean(other_c.power_dbm, axis=1)
            var_own = np.nanvar(own_c.power_dbm, axis=1)
            var_other = np.nanvar(other_c.power_dbm, axis=1)
        combined = np.where(np.isnan(mean_own), -np.inf, mean_own) + np.where(
            np.isnan(mean_other), -np.inf, mean_other
        )
        # A channel with (near-)zero variance on either side carries no
        # spatial information — a dead receiver chain or a floor-clipped
        # carrier.  Keeping it would dilute eq. 2's channel average, so
        # demote such channels below every live one (they are still used
        # if nothing better exists).
        dead = (
            np.nan_to_num(var_own, nan=0.0) < 1e-6
        ) | (np.nan_to_num(var_other, nan=0.0) < 1e-6)
        combined = np.where(dead, combined - 1e6, combined)
        n_live = int(np.count_nonzero(~dead))
        if n_live >= 2:
            # Never pad the window with dead channels: a narrower window
            # of live channels beats a full-width one diluted by zeros.
            k = min(k, n_live)
        top = np.sort(np.argsort(combined)[::-1][:k])
        chosen = common[top]
        own_r = own_c.select_channels(chosen)
        other_r = other_c.select_channels(chosen)
        return own_r, other_r

    # ------------------------------------------------------------------
    def estimate_relative_distance(
        self,
        own: GsmTrajectory,
        other: GsmTrajectory,
        n_syn_points: int | None = None,
        aggregation: str | None = None,
    ) -> RupsEstimate:
        """Fix the relative distance to a neighbour (§IV-D/E + §VI-C).

        Parameters
        ----------
        own:
            This vehicle's GSM-aware trajectory.
        other:
            The neighbour's trajectory as received over V2V.
        n_syn_points, aggregation:
            Optional overrides of the configured multi-SYN behaviour.
        """
        (estimate,) = self.estimate_relative_distance_batch(
            [(own, other)], n_syn_points=n_syn_points, aggregation=aggregation
        )
        return estimate

    def estimate_relative_distance_batch(
        self,
        pairs: list[tuple[GsmTrajectory, GsmTrajectory]],
        n_syn_points: int | None = None,
        aggregation: str | None = None,
        query_ids: list[str | None] | None = None,
        anchors: list[SynPoint | None] | None = None,
    ) -> list[RupsEstimate]:
        """:meth:`estimate_relative_distance` for many pairs at once.

        Channel reduction and the final resolve/attribute stage run per
        pair, but every pair's SYN sweeps feed one cross-pair batched
        kernel (:func:`~repro.core.syn.find_syn_points_batch`) — the
        campaign's query chunks, all-pairs convoy scans, fleet ticks and
        tracking updates all go through here.  Per pair the estimate,
        counters, and provenance events are exactly those of the scalar
        method; ``query_ids`` optionally tags each pair's events.

        ``anchors`` (optional, one per pair) runs a pair's search as the
        streaming rung: sweeps anchored on a prior lock,
        :data:`~repro.core.syn.ANCHOR_GUARD_M` back (see
        :func:`~repro.core.syn.find_syn_points_batch`).  An
        unresolved anchored estimate is *not* proof the vehicles
        diverged: the caller must retry the full search before dropping
        a lock (the tracker's fallback ladder does).
        """
        agg = self.config.aggregation if aggregation is None else aggregation
        ids: list[str | None] = (
            [None] * len(pairs) if query_ids is None else list(query_ids)
        )
        if len(ids) != len(pairs):
            raise ValueError("query_ids must match pairs in length")
        pair_anchors = [None] * len(pairs) if anchors is None else list(anchors)
        if len(pair_anchors) != len(pairs):
            raise ValueError("anchors must match pairs in length")
        reduced: list[tuple[GsmTrajectory, GsmTrajectory]] = []
        for (own, other), query_id in zip(pairs, ids):
            with _query_scope(query_id), trace("engine.reduce"):
                reduced.append(self._reduce_channels(own, other))
        syn_lists = find_syn_points_batch(
            reduced,
            self.config,
            n_points=n_syn_points,
            query_ids=ids,
            anchors=pair_anchors,
        )
        estimates = []
        for (own_r, other_r), syn_points, query_id in zip(
            reduced, syn_lists, ids
        ):
            with _query_scope(query_id):
                estimates.append(
                    self._finish_estimate(own_r, other_r, syn_points, agg)
                )
        return estimates

    def estimate_relative_distance_anchored(
        self,
        own: GsmTrajectory,
        other: GsmTrajectory,
        anchor: SynPoint,
        n_syn_points: int | None = None,
        aggregation: str | None = None,
        query_id: str | None = None,
    ) -> RupsEstimate:
        """Streaming fast path: :meth:`estimate_relative_distance` with
        both sweeps anchored by the last lock — a batch of one with
        ``anchor`` (see :meth:`estimate_relative_distance_batch`)."""
        (estimate,) = self.estimate_relative_distance_batch(
            [(own, other)],
            n_syn_points=n_syn_points,
            aggregation=aggregation,
            query_ids=[query_id],
            anchors=[anchor],
        )
        return estimate

    def _finish_estimate(
        self,
        own_r: GsmTrajectory,
        other_r: GsmTrajectory,
        syn_points: list[SynPoint],
        agg: str,
    ) -> RupsEstimate:
        """Heading gate, resolve, aggregate, attribute, and emit."""
        n_candidates = len(syn_points)
        n_heading_rejected = 0
        if self.config.heading_check and syn_points:
            from repro.core.syn import heading_agreement_many

            # One vectorised gather for the whole batch; out-of-range
            # windows come back inf and fail the mask.
            disagreement = heading_agreement_many(own_r, other_r, syn_points)
            keep = disagreement <= self.config.max_heading_disagreement_rad
            n_heading_rejected = int(np.count_nonzero(~keep))
            inc("syn.rejected.heading", n_heading_rejected)
            syn_points = [s for s, ok in zip(syn_points, keep) if ok]
        with trace("engine.resolve"):
            per_syn = tuple(resolve_relative_distance(s) for s in syn_points)
            distance = aggregate_estimates(syn_points, agg)
        inc("engine.estimates")
        inc(
            "engine.estimates.resolved"
            if distance is not None
            else "engine.estimates.unresolved"
        )
        cause = self._attribute(
            own_r, other_r, distance, syn_points, n_candidates
        )
        best = max((s.score for s in syn_points), default=None)
        emit(
            "engine.estimate",
            resolved=distance is not None,
            distance_m=distance,
            n_syn=len(syn_points),
            rejected_heading=n_heading_rejected,
            best_score=best,
            aggregation=agg,
            cause=cause,
        )
        return RupsEstimate(
            distance_m=distance,
            syn_points=tuple(syn_points),
            per_syn_m=per_syn,
            aggregation=agg,
            cause=cause,
        )

    def _attribute(
        self,
        own_r: GsmTrajectory,
        other_r: GsmTrajectory,
        distance: float | None,
        syn_points: list[SynPoint],
        n_candidates: int,
    ) -> str:
        """Root-cause one estimate (see :data:`ESTIMATE_CAUSES`).

        Re-derives the effective window cheaply (O(1) arithmetic on mark
        counts) rather than threading it out of the search.
        """
        eff = _effective_window(own_r, other_r, self.config)
        if eff is None:
            return "no_window"
        window_marks, threshold = eff
        shrunk = window_marks < self.config.window_marks
        if distance is None:
            if n_candidates == 0:
                return "short_context" if shrunk else "threshold"
            return "heading"
        if shrunk:
            return "flex_window"
        best = max(s.score for s in syn_points)
        if best - threshold < _LOW_MARGIN:
            return "low_margin"
        return "ok"

    # ------------------------------------------------------------------
    def query(
        self,
        own_scan: ScanStream,
        own_track: EstimatedTrack,
        other_trajectory: GsmTrajectory,
        at_time_s: float | None = None,
    ) -> RupsEstimate:
        """Convenience one-shot query from raw own streams.

        Builds the own trajectory at ``at_time_s`` and estimates the
        distance to the neighbour whose (already-built) trajectory was
        received over V2V.
        """
        own = self.build_trajectory(own_scan, own_track, at_time_s=at_time_s)
        return self.estimate_relative_distance(own, other_trajectory)

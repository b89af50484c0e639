"""Differential harness: the fused SYN sweep vs the reference loop.

The fused prefix-sum sweep (``repro.core.correlation``) is only safe to
ship because this harness proves it equivalent to the per-window
reference loop on randomised inputs.  The oracles live in
``tests/oracles.py``; production code has no switch to reach them.

* **Sweep level** — ``sliding_trajectory_correlation`` and the
  feature-matrix product of its degenerate-target fallback against
  ``reference_sliding_correlation`` on random query/target matrices,
  including constant channels, constant regions, and NaN gaps.
* **Search level** — ``seek_syn_point`` / ``find_syn_points`` run once
  in production and once with the reference loop swapped in for the
  sweep (``reference_search``); production must return identical SYN
  indices (exact), scores within 1e-9, and identical
  ``None``/rejection outcomes.
* **Suffix sweeps** — the anchored streaming rung's ``min_target_pos``
  floors against the reference loop over the same clamped suffix:
  mixed anchored/full batches, floors past the last position, and
  degenerate targets and suffixes that take the fallback.

Scenarios rotate through genuine overlaps (a shared road signal plus
per-vehicle noise), disjoint signals (mostly rejections), degenerate
trajectories (constant channels / windows, NaN cells), and short
contexts that exercise the flexible window and the too-short ``None``
path.  A quick subset always runs; the full 200-pair sweep is marked
``slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import syn
from repro.core.config import RupsConfig
from repro.core.correlation import (
    _SUSPECT_FRACTION_LIMIT,
    SlidingWindowStats,
    correlation_matrix,
    reference_sliding_correlation,
    sliding_trajectory_correlation,
)
from repro.core.syn import (
    SynPoint,
    _match_windows_many,
    find_syn_points,
    find_syn_points_anchored,
    find_syn_points_batch,
    seek_syn_point,
)
from repro.core.trajectory import GeoTrajectory, GsmTrajectory
from tests.oracles import (
    feature_product_sweep,
    reference_search,
    reference_suffix_matches,
)

TOL = 1e-9


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def make_trajectory(
    power: np.ndarray, spacing: float = 1.0, start: float = 0.0
) -> GsmTrajectory:
    n_marks = power.shape[1]
    geo = GeoTrajectory(
        timestamps_s=np.linspace(0.0, float(n_marks), n_marks),
        headings_rad=np.zeros(n_marks),
        spacing_m=spacing,
        start_distance_m=start,
    )
    return GsmTrajectory(
        power_dbm=power, channel_ids=np.arange(power.shape[0]), geo=geo
    )


def _road_signal(rng: np.random.Generator, n_ch: int, length: int) -> np.ndarray:
    """Spatially-correlated per-channel RSSI over one stretch of road."""
    walk = np.cumsum(rng.normal(0.0, 1.0, size=(n_ch, length)), axis=1)
    kernel = np.ones(5) / 5.0
    smooth = np.apply_along_axis(
        lambda r: np.convolve(r, kernel, mode="same"), 1, walk
    )
    return -80.0 + 2.0 * smooth + rng.normal(0.0, 4.0, size=(n_ch, 1))


def random_scenario(seed: int):
    """One (own, other, config kwargs) scenario, seed-deterministic."""
    rng = np.random.default_rng(seed)
    kind = ("overlap", "disjoint", "degenerate", "short")[seed % 4]
    n_ch = int(rng.integers(3, 10))
    spacing = float(rng.choice([1.0, 2.0]))
    window_length_m = float(rng.integers(12, 40)) * spacing
    threshold = float(rng.choice([0.6, 1.0, 1.2]))
    cfg = dict(
        context_length_m=4000.0,
        window_length_m=window_length_m,
        window_channels=n_ch,
        coherency_threshold=threshold,
        spacing_m=spacing,
        n_syn_points=int(rng.integers(1, 5)),
        syn_stride_m=float(rng.integers(4, 25)) * spacing,
        flexible_window=True,
        min_window_length_m=min(10.0 * spacing, window_length_m),
        min_coherency_threshold=0.5 * threshold,
    )

    if kind == "short":
        # Anywhere from container minimum (2 marks) to barely one window.
        window_marks = int(round(window_length_m / spacing)) + 1
        la = int(rng.integers(2, window_marks + 4))
        lb = int(rng.integers(2, window_marks + 4))
        own = make_trajectory(rng.normal(-80, 6, size=(n_ch, la)), spacing)
        other = make_trajectory(rng.normal(-80, 6, size=(n_ch, lb)), spacing)
        return own, other, cfg

    road_len = int(rng.integers(120, 400))
    road = _road_signal(rng, n_ch, road_len)
    if kind == "disjoint":
        road_b = _road_signal(rng, n_ch, road_len)
    else:
        road_b = road

    la = int(rng.integers(60, road_len + 1))
    lb = int(rng.integers(60, road_len + 1))
    a0 = int(rng.integers(0, road_len - la + 1))
    b0 = int(rng.integers(0, road_len - lb + 1))
    own_p = road[:, a0 : a0 + la] + rng.normal(0, 1.0, size=(n_ch, la))
    other_p = road_b[:, b0 : b0 + lb] + rng.normal(0, 1.0, size=(n_ch, lb))

    if kind == "degenerate":
        flavour = seed % 3
        if flavour == 0:  # dead channels on one or both sides
            own_p[0] = -80.0
            other_p[rng.integers(0, n_ch)] = -75.0
        elif flavour == 1:  # constant stretch (zero-variance windows)
            cut = la // 2
            own_p[:, :cut] = own_p[:, cut : cut + 1]
        else:  # NaN gaps from missing scans
            mask = rng.random(own_p.shape) < 0.01
            own_p[mask] = np.nan
            other_p[rng.random(other_p.shape) < 0.01] = np.nan

    own = make_trajectory(own_p, spacing)
    other = make_trajectory(other_p, spacing)
    return own, other, cfg


# ----------------------------------------------------------------------
# equivalence assertions
# ----------------------------------------------------------------------

def assert_search_equivalent(own, other, cfg: dict) -> None:
    config = RupsConfig(**cfg)
    with reference_search():
        ref_single = seek_syn_point(own, other, config)
        ref_multi = find_syn_points(own, other, config)

    fast_single = seek_syn_point(own, other, config)
    assert (ref_single is None) == (fast_single is None)
    if ref_single is not None:
        _assert_same_syn(ref_single, fast_single)

    fast_multi = find_syn_points(own, other, config)
    assert len(ref_multi) == len(fast_multi)
    for r, b in zip(ref_multi, fast_multi):
        _assert_same_syn(r, b)


def _assert_same_syn(r, b) -> None:
    # Indices must match exactly — the argmax landed on the same window.
    assert r.query_side == b.query_side
    assert r.own_distance_m == b.own_distance_m
    assert r.other_distance_m == b.other_distance_m
    assert r.window_length_m == b.window_length_m
    assert abs(r.score - b.score) < TOL


# ----------------------------------------------------------------------
# sweep-level differential
# ----------------------------------------------------------------------

#: The production sweep and the arithmetic of its degenerate-target
#: fallback (the one product of window feature rows).
_FAST_FNS = {
    "batched": feature_product_sweep,
    "fused": sliding_trajectory_correlation,
}


class TestSlidingKernelDifferential:
    @pytest.mark.parametrize("sweep", sorted(_FAST_FNS))
    @pytest.mark.parametrize("seed", range(40))
    def test_random_inputs_agree(self, seed, sweep):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        m = int(rng.integers(5, 150))
        w = int(rng.integers(2, min(m, 50) + 1))
        target = rng.normal(-80, 6, size=(n, m))
        query = rng.normal(-80, 6, size=(n, w))
        if seed % 4 == 1:  # constant region in the target
            lo = m // 3
            target[:, lo : lo + max(w, 3)] = -77.0
        if seed % 4 == 2:  # dead query channel
            query[0] = -70.0
        if seed % 4 == 3:  # NaN gaps
            target[rng.random(target.shape) < 0.02] = np.nan
        ref = reference_sliding_correlation(query, target)
        fast = _FAST_FNS[sweep](query, target)
        assert ref.shape == fast.shape == (m - w + 1,)
        assert np.isfinite(fast).all()
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=TOL)

    @pytest.mark.parametrize("sweep", sorted(_FAST_FNS))
    def test_constant_everything(self, sweep):
        query = np.full((4, 12), -80.0)
        target = np.full((4, 40), -80.0)
        ref = reference_sliding_correlation(query, target)
        fast = _FAST_FNS[sweep](query, target)
        assert np.all(ref == 0.0)
        assert np.all(fast == 0.0)

    @pytest.mark.parametrize("sweep", sorted(_FAST_FNS))
    def test_argmax_identical_on_true_overlap(self, sweep):
        rng = np.random.default_rng(7)
        target = _road_signal(rng, 8, 300)
        query = target[:, 150:200] + rng.normal(0, 0.5, size=(8, 50))
        ref = reference_sliding_correlation(query, target)
        fast = _FAST_FNS[sweep](query, target)
        assert int(np.argmax(ref)) == int(np.argmax(fast)) == 150


# ----------------------------------------------------------------------
# search-level differential
# ----------------------------------------------------------------------

class TestSearchDifferentialQuick:
    @pytest.mark.parametrize("seed", range(24))
    def test_identical_syn_decisions(self, seed):
        own, other, cfg = random_scenario(seed)
        assert_search_equivalent(own, other, cfg)

    def test_true_overlap_found_at_same_offset(self):
        rng = np.random.default_rng(123)
        road = _road_signal(rng, 8, 400)
        own = make_trajectory(road[:, 100:350] + rng.normal(0, 0.8, (8, 250)))
        other = make_trajectory(road[:, 50:330] + rng.normal(0, 0.8, (8, 280)))
        cfg = dict(window_length_m=30.0, window_channels=8, spacing_m=1.0)
        assert_search_equivalent(own, other, cfg)
        syn_point = seek_syn_point(own, other, RupsConfig(**cfg))
        assert syn_point is not None

    def test_no_overlap_rejected_by_both(self):
        rng = np.random.default_rng(321)
        own = make_trajectory(_road_signal(rng, 6, 200))
        other = make_trajectory(_road_signal(rng, 6, 200))
        config = RupsConfig(window_length_m=30.0, window_channels=6, spacing_m=1.0)
        with reference_search():
            ref = seek_syn_point(own, other, config)
        fast = seek_syn_point(own, other, config)
        assert (ref is None) == (fast is None)

    def test_oracle_bypasses_the_sweep(self, monkeypatch):
        """Inside ``reference_search`` no search reaches the fused sweep,
        so the differentials above really compare two implementations."""
        own, other, cfg = random_scenario(0)

        def unreachable(_):
            raise AssertionError("production sweep ran under the oracle")

        monkeypatch.setattr(syn, "fused_sweep_many", unreachable)
        with reference_search():
            find_syn_points(own, other, RupsConfig(**cfg))
        with pytest.raises(AssertionError, match="production sweep"):
            find_syn_points(own, other, RupsConfig(**cfg))


@pytest.mark.slow
class TestSearchDifferentialSweep:
    """The headline sweep: ~200 seeded scenario pairs, full equivalence."""

    @pytest.mark.parametrize("seed", range(24, 224))
    def test_identical_syn_decisions(self, seed):
        own, other, cfg = random_scenario(seed)
        assert_search_equivalent(own, other, cfg)


# ----------------------------------------------------------------------
# cross-pair batch differential
# ----------------------------------------------------------------------

def random_pair_batch(seed: int, n_pairs: int):
    """``n_pairs`` comparable pairs sharing one config, seed-deterministic.

    The mix rotates per pair through genuine overlaps, disjoint signals,
    too-short contexts (pairs that contribute *no* sweep to the batch),
    degenerate constant/NaN windows, and convoy pairs that share one
    target trajectory *object* (each pair still sweeps its own sliding
    statistics: the search builds them per request).
    """
    rng = np.random.default_rng(1_000_000 + seed)
    n_ch = int(rng.integers(3, 8))
    spacing = float(rng.choice([1.0, 2.0]))
    window_length_m = float(rng.integers(12, 36)) * spacing
    threshold = float(rng.choice([0.6, 1.0]))
    cfg = dict(
        context_length_m=4000.0,
        window_length_m=window_length_m,
        window_channels=n_ch,
        coherency_threshold=threshold,
        spacing_m=spacing,
        n_syn_points=int(rng.integers(1, 4)),
        syn_stride_m=float(rng.integers(4, 20)) * spacing,
        flexible_window=True,
        min_window_length_m=min(10.0 * spacing, window_length_m),
        min_coherency_threshold=0.5 * threshold,
    )
    road_len = int(rng.integers(140, 320))
    road = _road_signal(rng, n_ch, road_len)
    convoy_len = int(rng.integers(100, road_len + 1))
    convoy_head = make_trajectory(
        road[:, :convoy_len] + rng.normal(0, 1.0, size=(n_ch, convoy_len)),
        spacing,
    )
    window_marks = int(round(window_length_m / spacing)) + 1
    pairs = []
    for p in range(n_pairs):
        kind = ("overlap", "convoy", "disjoint", "short", "degenerate")[
            (seed + p) % 5
        ]
        if kind == "short":
            la = int(rng.integers(2, window_marks + 4))
            lb = int(rng.integers(2, window_marks + 4))
            pairs.append(
                (
                    make_trajectory(rng.normal(-80, 6, size=(n_ch, la)), spacing),
                    make_trajectory(rng.normal(-80, 6, size=(n_ch, lb)), spacing),
                )
            )
            continue
        road_b = _road_signal(rng, n_ch, road_len) if kind == "disjoint" else road
        la = int(rng.integers(60, road_len + 1))
        a0 = int(rng.integers(0, road_len - la + 1))
        own_p = road[:, a0 : a0 + la] + rng.normal(0, 1.0, size=(n_ch, la))
        if kind == "degenerate":
            flavour = (seed + p) % 3
            if flavour == 0:
                own_p[0] = -80.0  # dead channel
            elif flavour == 1:
                cut = la // 2
                own_p[:, :cut] = own_p[:, cut : cut + 1]  # constant stretch
            else:
                own_p[rng.random(own_p.shape) < 0.01] = np.nan
        own = make_trajectory(own_p, spacing)
        if kind == "convoy":
            # Several pairs share this one target object.
            pairs.append((own, convoy_head))
            continue
        lb = int(rng.integers(60, road_len + 1))
        b0 = int(rng.integers(0, road_len - lb + 1))
        other_p = road_b[:, b0 : b0 + lb] + rng.normal(0, 1.0, size=(n_ch, lb))
        pairs.append((own, make_trajectory(other_p, spacing)))
    return pairs, cfg


def assert_batch_equivalent(pairs, cfg: dict) -> None:
    """`find_syn_points_batch` must match per-pair reference searches."""
    config = RupsConfig(**cfg)
    with reference_search():
        expected = [find_syn_points(own, other, config) for own, other in pairs]
    got = find_syn_points_batch(pairs, config)
    assert len(got) == len(expected)
    for exp, out in zip(expected, got):
        assert len(exp) == len(out)
        for r, b in zip(exp, out):
            _assert_same_syn(r, b)


class TestBatchDifferentialQuick:
    @pytest.mark.parametrize("seed", range(12))
    def test_batch_matches_reference(self, seed):
        n_pairs = (1, 2, 5, 9)[seed % 4]
        pairs, cfg = random_pair_batch(seed, n_pairs)
        assert_batch_equivalent(pairs, cfg)

    def test_batch_of_one_equals_per_pair_search(self):
        """Ragged extreme: the chunk holds a single pending query."""
        pairs, cfg = random_pair_batch(100, 1)
        config = RupsConfig(**cfg)
        (from_batch,) = find_syn_points_batch(pairs, config)
        assert from_batch == find_syn_points(pairs[0][0], pairs[0][1], config)

    def test_all_pairs_windowless(self):
        """A batch with zero pending sweeps (chunk > pending work)."""
        rng = np.random.default_rng(8)
        cfg = dict(
            window_length_m=30.0,
            window_channels=4,
            spacing_m=1.0,
            flexible_window=False,
        )
        pairs = [
            (
                make_trajectory(rng.normal(-80, 6, size=(4, 5))),
                make_trajectory(rng.normal(-80, 6, size=(4, 5))),
            )
            for _ in range(3)
        ]
        assert find_syn_points_batch(pairs, RupsConfig(**cfg)) == [[], [], []]

    def test_query_ids_length_mismatch_rejected(self):
        pairs, cfg = random_pair_batch(3, 2)
        with pytest.raises(ValueError, match="query_ids"):
            find_syn_points_batch(
                pairs, RupsConfig(**cfg), query_ids=["only-one"]
            )

    def test_shared_target_convoy_grouping(self):
        """All pairs share one target object — a convoy head probed by
        several followers — and the per-pair decisions still match the
        reference exactly.  Each pair sweeps its own sliding statistics,
        so the shared object is never scored in a shared GEMM."""
        rng = np.random.default_rng(77)
        road = _road_signal(rng, 6, 260)
        head = make_trajectory(road[:, :200] + rng.normal(0, 1.0, (6, 200)))
        pairs = [
            (
                make_trajectory(
                    road[:, o : o + 150] + rng.normal(0, 1.0, (6, 150))
                ),
                head,
            )
            for o in (0, 30, 60, 90, 110)
        ]
        cfg = dict(window_length_m=30.0, window_channels=6, spacing_m=1.0)
        assert_batch_equivalent(pairs, cfg)


@pytest.mark.slow
class TestBatchDifferentialSweep:
    """~200 batched scenario pairs: prime batch sizes, every pair mix."""

    @pytest.mark.parametrize("seed", range(48))
    def test_batch_matches_reference(self, seed):
        n_pairs = 3 + seed % 4  # 3..6 pairs per batch, 216 pairs total
        pairs, cfg = random_pair_batch(1000 + seed, n_pairs)
        assert_batch_equivalent(pairs, cfg)


# ----------------------------------------------------------------------
# anchored suffix sweeps (min_target_pos)
# ----------------------------------------------------------------------

def assert_suffix_sweeps_match_reference(requests) -> None:
    """The production sweep == the reference loop over each suffix: same
    winner end mark, bit-identical (re-scored) winner score."""
    expected = [reference_suffix_matches(r) for r in requests]
    assert _match_windows_many(requests) == expected


def _suffix_requests(seed: int):
    """Sweep requests over one shared road: both directions of a pair
    plus convoy probes sharing the target object, with floors drawn
    from the full range (negative, zero, interior, past the end)."""
    rng = np.random.default_rng(2_000_000 + seed)
    n_ch = int(rng.integers(3, 8))
    road = _road_signal(rng, n_ch, 300)
    head = make_trajectory(road[:, 40:300] + rng.normal(0, 1.0, (n_ch, 260)))
    w = int(rng.integers(8, 30))
    floors = [-40, 0, int(rng.integers(1, 200)), 10_000]
    requests = []
    for k, o in enumerate(rng.integers(0, 200, size=4)):
        la = int(rng.integers(w + 5, 100))
        probe = make_trajectory(road[:, o : o + la] + rng.normal(0, 1.0, (n_ch, la)))
        ends = [probe.n_marks - 1 - j * 7 for j in range(3)]
        requests.append((probe, ends, head, w, floors[k]))
        requests.append((head, [head.n_marks - 1], probe, w, floors[(k + 2) % 4] // 3))
    return requests


class TestSuffixSweepDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_anchored_and_full_requests(self, seed):
        assert_suffix_sweeps_match_reference(_suffix_requests(seed))

    def test_floor_past_last_position_clamps(self):
        rng = np.random.default_rng(5)
        road = _road_signal(rng, 5, 200)
        own = make_trajectory(road[:, :120] + rng.normal(0, 1.0, (5, 120)))
        other = make_trajectory(road[:, 30:200] + rng.normal(0, 1.0, (5, 170)))
        w = 21
        n_pos = other.n_marks - w + 1
        requests = [
            (own, [own.n_marks - 1], other, w, n_pos - 1),
            (own, [own.n_marks - 1], other, w, n_pos),
            (own, [own.n_marks - 1], other, w, 10**9),
        ]
        assert_suffix_sweeps_match_reference(requests)
        for (match,) in _match_windows_many(requests):
            assert match[1] == other.n_marks - 1  # the last window

    def test_degenerate_suffix_takes_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(11)
        road = _road_signal(rng, 6, 260)
        target_p = road[:, :260] + rng.normal(0, 1.0, (6, 260))
        target_p[:, 200:] = target_p[:, 200:201]  # constant tail
        target = make_trajectory(target_p)
        own = make_trajectory(road[:, 60:160] + rng.normal(0, 1.0, (6, 100)))
        w, p0 = 25, 180
        assert SlidingWindowStats(target.power_dbm, w).suspect_fraction <= (
            _SUSPECT_FRACTION_LIMIT
        )
        assert SlidingWindowStats(target.power_dbm[:, p0:], w).suspect_fraction > (
            _SUSPECT_FRACTION_LIMIT
        ), "fixture: the suffix must be degenerate-dominated"
        flat_p = target_p.copy()
        flat_p[:, 90:] = flat_p[:, 90:91]  # constant for the last 170 marks
        flat = make_trajectory(flat_p)
        assert SlidingWindowStats(flat.power_dbm, w).suspect_fraction > (
            _SUSPECT_FRACTION_LIMIT
        ), "fixture: the whole target must be degenerate-dominated"
        fallbacks = []

        def counted(features_a, features_b):
            fallbacks.append(features_b.shape[0])
            return correlation_matrix(features_a, features_b)

        monkeypatch.setattr(syn, "correlation_matrix", counted)
        ends = [own.n_marks - 1, own.n_marks - 11]
        assert_suffix_sweeps_match_reference(
            [
                (own, ends, target, w, p0),
                (own, ends, target, w, 0),
                (own, ends, flat, w, 0),
            ]
        )
        # The input picks the fallback: the degenerate suffix and the
        # degenerate whole target, never the healthy full sweep.
        assert fallbacks == [target.n_marks - p0 - w + 1, flat.n_marks - w + 1]


class TestAnchoredSearchDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_with_anchors_matches_per_pair_reference(self, seed):
        pairs, cfg = random_pair_batch(3000 + seed, 5)
        anchors = []
        for k, (own, other) in enumerate(pairs):
            if k % 2 or own.n_marks < 3 or other.n_marks < 3:
                anchors.append(None)
                continue
            anchors.append(
                SynPoint(
                    score=1.5,
                    own_distance_m=float(own.geo.distances_m[own.n_marks // 2]),
                    other_distance_m=float(other.geo.distances_m[other.n_marks // 3]),
                    own_offset_m=0.0,
                    other_offset_m=0.0,
                    window_length_m=cfg["window_length_m"],
                    query_side="own",
                )
            )
        assert any(a is not None for a in anchors)
        config = RupsConfig(**cfg)
        with reference_search():
            expected = [
                find_syn_points(own, other, config)
                if anchor is None
                else find_syn_points_anchored(own, other, anchor, config, guard_m=5.0)
                for (own, other), anchor in zip(pairs, anchors)
            ]
        got = find_syn_points_batch(pairs, config, anchors=anchors, guard_m=5.0)
        for exp, out in zip(expected, got):
            assert len(exp) == len(out)
            for r, b in zip(exp, out):
                _assert_same_syn(r, b)

    def test_anchors_length_mismatch_rejected(self):
        pairs, cfg = random_pair_batch(3, 2)
        with pytest.raises(ValueError, match="anchors"):
            find_syn_points_batch(pairs, RupsConfig(**cfg), anchors=[None])

"""Cross-cutting property-based tests on core data structures/invariants.

Complements the per-module suites with randomized structural checks:
trajectory container algebra, codec fuzzing, eq.-2 identities, and
aggregation-scheme invariants.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    reference_sliding_correlation,
    sliding_trajectory_correlation,
    trajectory_correlation,
)
from repro.core.resolver import AGGREGATORS
from repro.core.trajectory import GeoTrajectory, GsmTrajectory
from repro.v2v.serialization import decode_trajectory, encode_trajectory
from repro.v2v.wsm import fragment_payload, reassemble


def traj_strategy(draw):
    n_ch = draw(st.integers(2, 12))
    n_marks = draw(st.integers(3, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    geo = GeoTrajectory(
        timestamps_s=np.sort(rng.uniform(0.0, 500.0, n_marks)),
        headings_rad=rng.uniform(-np.pi, np.pi, n_marks),
        spacing_m=float(draw(st.sampled_from([0.5, 1.0, 2.0]))),
        start_distance_m=float(draw(st.floats(0.0, 5000.0))),
    )
    return GsmTrajectory(
        power_dbm=rng.uniform(-109.0, -45.0, size=(n_ch, n_marks)),
        channel_ids=np.arange(n_ch),
        geo=geo,
    )


trajectories = st.builds(lambda d: d, st.data()).map(lambda _: None)  # unused


class TestTrajectoryAlgebra:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_tail_preserves_recent_content(self, data):
        traj = traj_strategy(data.draw)
        keep_m = data.draw(
            st.floats(2 * traj.spacing_m, max(traj.length_m, 2 * traj.spacing_m))
        )
        tail = traj.tail(keep_m)
        assert tail.geo.end_distance_m == pytest.approx(traj.geo.end_distance_m)
        assert np.array_equal(tail.power_dbm, traj.power_dbm[:, -tail.n_marks :])
        assert tail.n_marks <= traj.n_marks

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_slice_then_distances_consistent(self, data):
        traj = traj_strategy(data.draw)
        assume(traj.n_marks >= 4)
        start = data.draw(st.integers(0, traj.n_marks - 3))
        stop = data.draw(st.integers(start + 2, traj.n_marks))
        part = traj.slice_marks(start, stop)
        assert part.geo.distances_m[0] == pytest.approx(
            traj.geo.distances_m[start]
        )
        assert part.geo.distances_m[-1] == pytest.approx(
            traj.geo.distances_m[stop - 1]
        )

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_select_channels_permutation_roundtrip(self, data):
        traj = traj_strategy(data.draw)
        perm = np.random.default_rng(
            data.draw(st.integers(0, 1000))
        ).permutation(traj.channel_ids)
        selected = traj.select_channels(perm)
        back = selected.select_channels(traj.channel_ids)
        assert np.array_equal(back.power_dbm, traj.power_dbm)


class TestCodecProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_quantization_bound(self, data):
        traj = traj_strategy(data.draw)
        decoded = decode_trajectory(encode_trajectory(traj))
        assert np.max(np.abs(decoded.power_dbm - traj.power_dbm)) <= 0.25
        assert decoded.geo.spacing_m == traj.geo.spacing_m

    @given(st.binary(min_size=0, max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_decode_garbage_raises_cleanly(self, junk):
        with pytest.raises(ValueError):
            decode_trajectory(junk)

    @given(st.binary(min_size=1, max_size=40_000), st.integers(0, 2**15))
    @settings(max_examples=25, deadline=None)
    def test_fragmentation_roundtrip_any_payload(self, payload, msg_id):
        packets = fragment_payload(payload, message_id=msg_id)
        assert reassemble(packets) == payload

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_reassemble_any_order(self, data):
        payload = data.draw(st.binary(min_size=3000, max_size=10_000))
        packets = fragment_payload(payload)
        order = data.draw(st.permutations(range(len(packets))))
        shuffled = [packets[i] for i in order]
        assert reassemble(shuffled) == payload


class TestEq2Identities:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(4, 40))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed, n_ch, n_marks):
        rng = np.random.default_rng(seed)
        a = rng.normal(-80, 5, size=(n_ch, n_marks))
        b = rng.normal(-80, 5, size=(n_ch, n_marks))
        assert trajectory_correlation(a, b) == pytest.approx(
            trajectory_correlation(b, a), abs=1e-12
        )

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.05, 20.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_offset_scale_invariance_both_sides(self, seed, gain, offset):
        # Uniform positive rescaling / offset of the raw RSSI — a fixed
        # receiver gain or calibration bias — must not change eq. 2, on
        # whichever side (or both) it is applied.
        rng = np.random.default_rng(seed)
        a = rng.normal(-80, 5, size=(6, 20))
        b = rng.normal(-80, 5, size=(6, 20))
        base = trajectory_correlation(a, b)
        assert trajectory_correlation(gain * a + offset, b) == pytest.approx(
            base, abs=1e-9
        )
        assert trajectory_correlation(a, gain * b + offset) == pytest.approx(
            base, abs=1e-9
        )
        assert trajectory_correlation(
            gain * a + offset, gain * b + offset
        ) == pytest.approx(base, abs=1e-9)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_value_bounds(self, seed, n_ch, n_marks):
        # Each Pearson term lies in [-1, 1], so eq. 2 is within [-2, 2];
        # for a single channel the cross-channel profile is degenerate
        # (zero by convention), leaving a plain Pearson in [-1, 1].
        rng = np.random.default_rng(seed)
        a = rng.normal(-80, 5, size=(n_ch, n_marks))
        b = rng.normal(-80, 5, size=(n_ch, n_marks))
        r = trajectory_correlation(a, b)
        assert np.isfinite(r)
        assert -2.0 - 1e-9 <= r <= 2.0 + 1e-9
        if n_ch == 1:
            assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(4, 40))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, seed, n_ch, n_marks):
        # eq. 2 is invariant to per-channel affine rescaling with positive
        # gain (Pearson terms are; the row-mean term shifts but stays
        # within bounds for uniform gain).
        rng = np.random.default_rng(seed)
        a = rng.normal(-80, 5, size=(n_ch, n_marks))
        b = rng.normal(-80, 5, size=(n_ch, n_marks))
        base = trajectory_correlation(a, b)
        scaled = trajectory_correlation(2.0 * a + 7.0, b)
        assert scaled == pytest.approx(base, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sliding_agrees_with_direct_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(-80, 6, size=(5, 40))
        query = rng.normal(-80, 6, size=(5, 12))
        scores = sliding_trajectory_correlation(query, target)
        for p in range(scores.size):
            assert scores[p] == pytest.approx(
                trajectory_correlation(query, target[:, p : p + 12]), abs=1e-9
            )


class TestSlidingSearchProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(
            [reference_sliding_correlation, sliding_trajectory_correlation]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_score_vector_spans_exactly_the_valid_positions(self, seed, sweep):
        rng = np.random.default_rng(seed)
        n_ch = int(rng.integers(1, 8))
        m = int(rng.integers(4, 80))
        w = int(rng.integers(2, m + 1))
        target = rng.normal(-80, 6, size=(n_ch, m))
        query = rng.normal(-80, 6, size=(n_ch, w))
        scores = sweep(query, target)
        assert scores.shape == (m - w + 1,)
        assert 0 <= int(np.argmax(scores)) <= m - w
        assert np.all(np.isfinite(scores))

    @given(st.integers(0, 2**31 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_syn_windows_always_inside_both_trajectories(self, seed, oracle):
        from repro.core.config import RupsConfig
        from repro.core.syn import find_syn_points

        from tests.oracles import reference_search
        from tests.test_kernel_equivalence import random_scenario

        own, other, cfg = random_scenario(seed)
        with reference_search() if oracle else nullcontext():
            syn_points = find_syn_points(own, other, RupsConfig(**cfg))
        for syn in syn_points:
            for traj, end_distance in (
                (own, syn.own_distance_m),
                (other, syn.other_distance_m),
            ):
                assert (
                    traj.geo.start_distance_m + syn.window_length_m
                    <= end_distance + 1e-9
                )
                assert end_distance <= traj.geo.end_distance_m + 1e-9


class TestAggregatorProperties:
    @given(
        st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=12)
    )
    @settings(max_examples=40, deadline=None)
    def test_all_schemes_within_sample_range(self, values):
        arr = np.array(values)
        for name, fn in AGGREGATORS.items():
            out = fn(arr)
            assert arr.min() - 1e-9 <= out <= arr.max() + 1e-9, name

    @given(
        st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=3, max_size=12),
        st.floats(500.0, 1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_selective_bounded_by_outlier_less_than_mean(self, values, outlier):
        # Adding one huge outlier moves the selective average by no more
        # than it moves the plain mean.
        base = np.array(values)
        dirty = np.append(base, outlier)
        clean_center = float(np.mean(base))
        d_sel = abs(AGGREGATORS["selective"](dirty) - clean_center)
        d_mean = abs(AGGREGATORS["mean"](dirty) - clean_center)
        assert d_sel <= d_mean + 1e-9

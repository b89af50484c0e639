"""Tests for repro.core.correlation: eq. (2) plain and sliding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    reference_sliding_correlation,
    sliding_trajectory_correlation,
    trajectory_correlation,
)
from repro.core.power_vector import pearson_correlation
from tests.oracles import feature_product_sweep

#: The reference loop, the feature-matrix product the sweep falls back to
#: on degenerate-dominated targets, and the production sweep.
SWEEPS = {
    "reference": reference_sliding_correlation,
    "batched": feature_product_sweep,
    "fused": sliding_trajectory_correlation,
}


def random_traj(n_ch, n_marks, seed=0, mean=-80.0):
    rng = np.random.default_rng(seed)
    base = rng.normal(mean, 6.0, size=(n_ch, 1))
    return base + rng.normal(0.0, 4.0, size=(n_ch, n_marks))


class TestTrajectoryCorrelationEq2:
    def test_self_correlation_is_two(self):
        s = random_traj(8, 40)
        assert trajectory_correlation(s, s) == pytest.approx(2.0)

    def test_range_bounds(self):
        a = random_traj(8, 40, seed=1)
        b = random_traj(8, 40, seed=2)
        r = trajectory_correlation(a, b)
        assert -2.0 <= r <= 2.0

    def test_independent_near_zero(self):
        a = random_traj(40, 300, seed=3)
        b = random_traj(40, 300, seed=4)
        assert abs(trajectory_correlation(a, b)) < 0.4

    def test_equals_sum_of_terms(self):
        a = random_traj(5, 30, seed=5)
        b = random_traj(5, 30, seed=6)
        term1 = np.mean(
            [pearson_correlation(a[i], b[i]) for i in range(5)]
        )
        term2 = pearson_correlation(a.mean(axis=1), b.mean(axis=1))
        assert trajectory_correlation(a, b) == pytest.approx(term1 + term2)

    def test_constant_channel_contributes_zero(self):
        a = random_traj(4, 30, seed=7)
        b = random_traj(4, 30, seed=8)
        a2 = a.copy()
        a2[0] = -75.0  # constant channel
        r = trajectory_correlation(a2, b)
        per = [pearson_correlation(a2[i], b[i]) for i in range(1, 4)]
        term2 = pearson_correlation(a2.mean(axis=1), b.mean(axis=1))
        assert r == pytest.approx(np.sum(per) / 4 + term2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            trajectory_correlation(np.zeros((3, 10)), np.zeros((3, 11)))
        with pytest.raises(ValueError):
            trajectory_correlation(np.zeros((3, 1)), np.zeros((3, 1)))

    def test_symmetry(self):
        a = random_traj(6, 25, seed=9)
        b = random_traj(6, 25, seed=10)
        assert trajectory_correlation(a, b) == pytest.approx(
            trajectory_correlation(b, a)
        )


class TestSlidingCorrelation:
    def test_matches_direct_evaluation(self):
        target = random_traj(7, 60, seed=11)
        query = target[:, 20:35] + np.random.default_rng(12).normal(
            0, 1.0, size=(7, 15)
        )
        scores = sliding_trajectory_correlation(query, target)
        assert scores.shape == (60 - 15 + 1,)
        for p in (0, 10, 20, 33, 45):
            direct = trajectory_correlation(query, target[:, p : p + 15])
            assert scores[p] == pytest.approx(direct, abs=1e-9)

    def test_peak_at_true_position(self):
        target = random_traj(10, 200, seed=13)
        query = target[:, 120:160]
        scores = sliding_trajectory_correlation(query, target)
        assert int(np.argmax(scores)) == 120
        assert scores[120] == pytest.approx(2.0)

    def test_noisy_peak_still_found(self):
        target = random_traj(20, 300, seed=14)
        rng = np.random.default_rng(15)
        query = target[:, 200:260] + rng.normal(0, 1.5, size=(20, 61))[:, :60]
        scores = sliding_trajectory_correlation(query, target)
        assert abs(int(np.argmax(scores)) - 200) <= 1

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            sliding_trajectory_correlation(np.zeros((3, 10)), np.zeros((4, 20)))

    def test_target_too_short(self):
        with pytest.raises(ValueError):
            sliding_trajectory_correlation(np.zeros((3, 10)), np.zeros((3, 5)))

    def test_query_too_short(self):
        with pytest.raises(ValueError):
            sliding_trajectory_correlation(np.zeros((3, 1)), np.zeros((3, 5)))

    def test_single_position(self):
        a = random_traj(4, 30, seed=16)
        scores = sliding_trajectory_correlation(a, a)
        assert scores.shape == (1,)
        assert scores[0] == pytest.approx(2.0)

    def test_constant_target_window_zero_score(self):
        query = random_traj(3, 10, seed=17)
        target = np.full((3, 30), -80.0)
        scores = sliding_trajectory_correlation(query, target)
        assert np.allclose(scores, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_bounded_for_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        query = rng.normal(size=(4, 8))
        target = rng.normal(size=(4, 30))
        scores = sliding_trajectory_correlation(query, target)
        assert np.all(scores <= 2.0 + 1e-9)
        assert np.all(scores >= -2.0 - 1e-9)
        assert np.all(np.isfinite(scores))


class TestDegenerateWindows:
    """Regression: zero-variance / NaN windows yield defined values.

    A window with no spatial information must contribute exactly 0 —
    never a NaN, inf, or numpy warning that could leak into SYN
    acceptance — in the production sweep, its fallback and the
    reference loop alike.
    """

    def test_both_sides_constant_is_zero(self):
        a = np.full((3, 20), -80.0)
        b = np.full((3, 20), -75.0)
        assert trajectory_correlation(a, b) == 0.0

    def test_one_side_constant_is_zero(self):
        rng = np.random.default_rng(0)
        a = np.full((3, 20), -80.0)
        b = rng.normal(-80, 6, size=(3, 20))
        assert trajectory_correlation(a, b) == 0.0
        assert trajectory_correlation(b, a) == 0.0

    def test_no_numpy_warnings_on_degenerate_input(self):
        import warnings

        rng = np.random.default_rng(1)
        a = rng.normal(-80, 6, size=(4, 25))
        a[0] = -70.0  # dead channel
        b = rng.normal(-80, 6, size=(4, 25))
        b[1] = np.nan  # missing channel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = trajectory_correlation(a, b)
            scores = {name: sweep(a, b) for name, sweep in SWEEPS.items()}
        assert np.isfinite(r)
        for name, s in scores.items():
            assert np.isfinite(s).all(), name

    def test_nan_channel_gated_like_dead_channel(self):
        rng = np.random.default_rng(2)
        a = rng.normal(-80, 6, size=(4, 30))
        b = rng.normal(-80, 6, size=(4, 30))
        a_nan = a.copy()
        a_nan[2, 7] = np.nan
        from repro.core.power_vector import pearson_correlation

        # The NaN channel contributes 0 to the channel average (but still
        # counts in the denominator); the cross-channel profile term is
        # killed because one mean is undefined.
        per = [pearson_correlation(a_nan[i], b[i]) for i in (0, 1, 3)]
        expected = float(np.sum(per)) / 4
        assert trajectory_correlation(a_nan, b) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_nan_gap_only_poisons_covering_windows(self, sweep):
        # Regression for the historical cumulative-sum kernel, where one
        # NaN smeared into the running sums of *every* later position.
        rng = np.random.default_rng(3)
        target = rng.normal(-80, 6, size=(3, 60))
        target[1, 20:23] = np.nan
        query = rng.normal(-80, 6, size=(3, 10))
        scores = SWEEPS[sweep](query, target)
        assert np.isfinite(scores).all()
        for p in range(scores.size):
            direct = trajectory_correlation(query, target[:, p : p + 10])
            assert scores[p] == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_constant_stretch_scores_defined(self, sweep):
        rng = np.random.default_rng(4)
        target = rng.normal(-80, 6, size=(3, 60))
        target[:, 25:45] = -80.0  # zero-variance stretch
        query = rng.normal(-80, 6, size=(3, 12))
        scores = SWEEPS[sweep](query, target)
        assert np.isfinite(scores).all()
        # Windows fully inside the stretch carry no information at all.
        assert scores[30] == pytest.approx(0.0, abs=1e-12)

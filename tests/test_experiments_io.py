"""Tests for repro.experiments.io: trace persistence."""

import numpy as np
import pytest

from repro.experiments.io import load_scan, load_track, save_scan, save_track


class TestScanRoundtrip:
    def test_roundtrip(self, tmp_path, shared_pair):
        path = tmp_path / "scan.npz"
        save_scan(path, shared_pair.rear.scan)
        loaded = load_scan(path)
        orig = shared_pair.rear.scan
        assert np.array_equal(loaded.times_s, orig.times_s)
        assert np.array_equal(loaded.channel_indices, orig.channel_indices)
        assert np.array_equal(loaded.rssi_dbm, orig.rssi_dbm)
        assert loaded.plan.n_channels == orig.plan.n_channels
        assert np.array_equal(loaded.plan.arfcns, orig.plan.arfcns)
        assert loaded.plan.scan_time_s == orig.plan.scan_time_s

    def test_loaded_scan_drives_pipeline(self, tmp_path, shared_pair, shared_engine):
        path = tmp_path / "scan.npz"
        save_scan(path, shared_pair.rear.scan)
        loaded = load_scan(path)
        traj = shared_engine.build_trajectory(
            loaded, shared_pair.rear.estimated, at_time_s=200.0
        )
        direct = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=200.0
        )
        assert np.allclose(traj.power_dbm, direct.power_dbm, equal_nan=True)

    def test_version_check(self, tmp_path, shared_pair):
        path = tmp_path / "scan.npz"
        save_scan(path, shared_pair.rear.scan)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["format_version"] = np.int64(99)
        np.savez_compressed(path, **contents)
        with pytest.raises(ValueError, match="version"):
            load_scan(path)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rssi_refused(self, tmp_path, shared_pair, value):
        path = tmp_path / "scan.npz"
        save_scan(path, shared_pair.rear.scan)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["rssi_dbm"][len(contents["rssi_dbm"]) // 2] = value
        np.savez_compressed(path, **contents)
        with pytest.raises(ValueError, match="non-finite RSSI"):
            load_scan(path)


class TestTrackRoundtrip:
    def test_roundtrip(self, tmp_path, shared_pair):
        path = tmp_path / "track.npz"
        save_track(path, shared_pair.rear.estimated)
        loaded = load_track(path)
        orig = shared_pair.rear.estimated
        assert np.array_equal(loaded.times_s, orig.times_s)
        assert np.array_equal(loaded.distance_m, orig.distance_m)
        assert np.array_equal(loaded.heading_rad, orig.heading_rad)

    def test_version_check(self, tmp_path, shared_pair):
        path = tmp_path / "track.npz"
        save_track(path, shared_pair.rear.estimated)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["format_version"] = np.int64(99)
        np.savez_compressed(path, **contents)
        with pytest.raises(ValueError, match="version"):
            load_track(path)

"""Tests for repro.gsm.scanner: radio groups and scan schedules."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gsm.band import RGSM900
from repro.gsm.scanner import (
    PLACEMENT_PROFILES,
    RadioGroup,
    build_schedule,
    scan_drive,
)


class TestRadioGroup:
    def test_channel_partition(self, small_plan):
        group = RadioGroup(small_plan, n_radios=4)
        all_channels = np.sort(
            np.concatenate([group.channels_of_radio(r) for r in range(4)])
        )
        assert np.array_equal(all_channels, np.arange(small_plan.n_channels))

    def test_interleaved_assignment(self, small_plan):
        group = RadioGroup(small_plan, n_radios=3)
        assert np.array_equal(
            group.channels_of_radio(1), np.arange(1, small_plan.n_channels, 3)
        )

    def test_sweep_time_scales_down(self, small_plan):
        t1 = RadioGroup(small_plan, n_radios=1).sweep_time_s
        t4 = RadioGroup(small_plan, n_radios=4).sweep_time_s
        assert t4 < t1
        assert t4 == pytest.approx(t1 / 4, rel=0.15)

    def test_paper_sweep_arithmetic(self):
        # SV-C: "scanning a band of 90 GSM channels with ten parallel
        # radios would take 135ms. For a vehicle moving at 80km/h, a
        # power vector can only span a distance of 3 meter."
        band90 = RGSM900.subset(np.arange(90))
        group = RadioGroup(band90, n_radios=10)
        assert group.sweep_time_s == pytest.approx(0.135, rel=0.03)
        assert group.sweep_span_m(80 / 3.6) == pytest.approx(3.0, rel=0.05)

    def test_placement_lookup(self, small_plan):
        g = RadioGroup(small_plan, placement="central")
        assert g.placement.extra_loss_db > 0
        with pytest.raises(ValueError, match="unknown placement"):
            RadioGroup(small_plan, placement="trunk")

    def test_validation(self, small_plan):
        with pytest.raises(ValueError):
            RadioGroup(small_plan, n_radios=0)
        with pytest.raises(ValueError):
            RadioGroup(small_plan, n_radios=small_plan.n_channels + 1)

    def test_placements_defined(self):
        assert set(PLACEMENT_PROFILES) == {"front", "central"}
        assert PLACEMENT_PROFILES["front"].extra_loss_db == 0.0


class TestBuildSchedule:
    def test_times_sorted_and_bounded(self, small_plan):
        group = RadioGroup(small_plan, n_radios=2)
        sched = build_schedule(group, 0.0, 5.0)
        assert np.all(np.diff(sched.times_s) >= 0)
        assert sched.times_s.min() > 0.0
        assert sched.times_s.max() <= 5.0 + small_plan.scan_time_s

    def test_measurement_rate(self, small_plan):
        group = RadioGroup(small_plan, n_radios=3)
        sched = build_schedule(group, 0.0, 10.0)
        expected = 3 * int(np.floor(10.0 / small_plan.scan_time_s))
        assert len(sched) == expected

    def test_each_radio_cycles_its_subset(self, small_plan):
        group = RadioGroup(small_plan, n_radios=2)
        sched = build_schedule(group, 0.0, 20.0)
        for r in range(2):
            mask = sched.radio_ids == r
            chans = sched.channel_indices[mask]
            subset = group.channels_of_radio(r)
            # first |subset| measurements cover the subset in order
            order = np.argsort(sched.times_s[mask], kind="stable")
            assert np.array_equal(chans[order][: subset.size], subset)

    def test_rejects_empty_window(self, small_plan):
        group = RadioGroup(small_plan)
        with pytest.raises(ValueError):
            build_schedule(group, 5.0, 5.0)


class TestScanDrive:
    def test_stream_contents(self, small_field, small_plan):
        group = RadioGroup(small_plan, n_radios=2)
        stream = scan_drive(
            small_field,
            lambda t: 8.0 * np.asarray(t),  # 8 m/s constant
            group,
            t0=0.0,
            t1=10.0,
            rng=0,
        )
        assert len(stream) > 0
        assert stream.s_true_m.max() <= 8.0 * (10.0 + small_plan.scan_time_s)
        assert np.all(stream.rssi_dbm >= small_field.config.rx_floor_dbm)

    def test_missing_channels_arise_from_motion(self, small_field, small_plan):
        # With one radio at speed, the marks visited between two visits of
        # the same channel exceed the binding spacing -> gaps are physical.
        group = RadioGroup(small_plan, n_radios=1)
        stream = scan_drive(
            small_field, lambda t: 12.0 * np.asarray(t), group, 0.0, 20.0, rng=0
        )
        ch0 = stream.s_true_m[stream.channel_indices == 0]
        assert np.min(np.diff(ch0)) > 5.0  # metres between revisits

    def test_deterministic(self, small_field, small_plan):
        group = RadioGroup(small_plan, n_radios=2)
        a = scan_drive(small_field, lambda t: 5.0 * np.asarray(t), group, 0.0, 5.0, rng=1)
        b = scan_drive(small_field, lambda t: 5.0 * np.asarray(t), group, 0.0, 5.0, rng=1)
        assert np.array_equal(a.rssi_dbm, b.rssi_dbm)

    def test_central_placement_attenuates(self, small_field, small_plan):
        front = RadioGroup(small_plan, n_radios=2, placement="front")
        central = RadioGroup(small_plan, n_radios=2, placement="central")
        sf = scan_drive(small_field, lambda t: 5.0 * np.asarray(t), front, 0.0, 30.0, rng=2)
        sc = scan_drive(small_field, lambda t: 5.0 * np.asarray(t), central, 0.0, 30.0, rng=2)
        assert np.mean(sc.rssi_dbm) < np.mean(sf.rssi_dbm)

    def test_position_fn_shape_check(self, small_field, small_plan):
        group = RadioGroup(small_plan)
        with pytest.raises(ValueError):
            scan_drive(small_field, lambda t: np.zeros(3), group, 0.0, 5.0)

    def test_measurements_materialise(self, small_field, small_plan):
        group = RadioGroup(small_plan, n_radios=1)
        stream = scan_drive(small_field, lambda t: np.zeros_like(np.asarray(t)), group, 0.0, 1.0)
        records = stream.measurements()
        assert len(records) == len(stream)
        assert records[0].channel_index == int(stream.channel_indices[0])


class TestScanStreamRejectsNonFiniteRssi:
    """Every binding path (``bind_scan``, the drive binding index, the
    streaming builder) takes a ``ScanStream``, so a stream holding a
    non-finite RSSI must not exist: one ``inf`` reading would bin into
    ``inf`` cells of every context built over it."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("part", ["drive", "first chunk", "later chunk"])
    def test_poisoned_stream_is_refused(self, shared_pair, part, value):
        scan = shared_pair.rear.scan
        half = len(scan) // 2
        stream = {
            "drive": scan,
            "first chunk": scan.slice(0, half),
            "later chunk": scan.slice(half, len(scan)),
        }[part]
        rssi = stream.rssi_dbm.copy()
        rssi[len(rssi) // 2] = value
        with pytest.raises(ValueError, match="non-finite RSSI"):
            replace(stream, rssi_dbm=rssi)
        assert np.all(np.isfinite(scan.rssi_dbm))  # the source is untouched

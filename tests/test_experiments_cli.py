"""Tests for the ``python -m repro.experiments`` CLI."""

import json
import logging

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import EXPERIMENTS
from repro.obs import (
    EventLedger,
    MetricsRegistry,
    SpanRecorder,
    use_ledger,
    use_recorder,
    use_registry,
)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig1(self, capsys):
        assert main(["fig1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "regenerated in" in out

    def test_run_t_respond(self, capsys):
        assert main(["t-respond"]) == 0
        out = capsys.readouterr().out
        assert "incremental" in out

    def test_eval_workload_flags_accepted(self, capsys):
        # Tiny workload so this stays fast; exercises the EvalSettings path.
        assert main(["fig12", "--drives", "1", "--queries", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "GPS" in out


class TestCliJobs:
    def test_multiple_ids_inline(self, capsys):
        assert main(["fig1", "t-respond", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "incremental" in out
        assert "fig1, t-respond regenerated" in out

    def test_multiple_ids_parallel(self, capsys):
        assert main(["fig1", "t-respond", "--seed", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "incremental" in out

    def test_unknown_id_among_many(self, capsys):
        assert main(["fig1", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_jobs_forwarded_to_jobs_aware_experiment(self, capsys, monkeypatch):
        seen = {}

        class _Stub:
            def render(self):
                return "stub table"

        def fake_campaign(**kwargs):
            seen.update(kwargs)
            return _Stub()

        monkeypatch.setitem(EXPERIMENTS, "t-campaign", fake_campaign)
        assert main(["t-campaign", "--seed", "3", "--jobs", "4"]) == 0
        assert seen["seed"] == 3
        assert seen["jobs"] == 4
        assert "stub table" in capsys.readouterr().out

    def test_jobs_not_forwarded_when_fanning_out(self, capsys, monkeypatch):
        seen = {}

        class _Stub:
            def render(self):
                return "stub table"

        def fake_campaign(**kwargs):
            seen.update(kwargs)
            return _Stub()

        monkeypatch.setitem(EXPERIMENTS, "t-campaign", fake_campaign)
        # Two ids: the worker budget belongs to the fan-out, not to the
        # jobs-aware experiment (jobs=1 keeps execution inline so the
        # monkeypatched registry entry is visible to the task).
        assert main(["t-campaign", "t-respond", "--seed", "3"]) == 0
        assert "jobs" not in seen


class TestCliObservability:
    def test_metrics_out_writes_parseable_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        with use_registry(MetricsRegistry()):
            assert (
                main(
                    [
                        "t-campaign",
                        "--drives",
                        "1",
                        "--queries",
                        "4",
                        "--seed",
                        "1",
                        "--metrics-out",
                        str(path),
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert f"[metrics snapshot written to {path}]" in out
        snap = json.loads(path.read_text())
        counters = snap["counters"]
        assert counters["campaign.queries"] == 4
        assert counters["syn.searches"] >= 1
        assert "engine.cache.binding_index.hit" in counters
        assert "engine.cache.binding_index.miss" in counters
        assert snap["histograms"]["span.syn.search"]["count"] >= 1
        assert snap["histograms"]["span.campaign.query_chunk"]["count"] >= 1

    def test_metrics_out_prints_latency_table(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        with use_registry(MetricsRegistry()), use_recorder(SpanRecorder()):
            assert main(["fig1", "--seed", "2", "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Stage latency" in out
        assert "p90 (ms)" in out

    def test_trace_out_dumps_span_ring(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        with use_registry(MetricsRegistry()), use_recorder(SpanRecorder()):
            assert main(["fig1", "--seed", "2", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"spans written to {path}" in out
        dump = json.loads(path.read_text())
        assert dump["capacity"] >= 1
        assert dump["dropped_spans"] == 0
        assert len(dump["spans"]) >= 1
        names = {s["name"] for s in dump["spans"]}
        assert "experiment.fig1" in names
        span = dump["spans"][0]
        assert set(span) == {
            "name",
            "start_s",
            "wall_s",
            "cpu_s",
            "depth",
            "parent",
            "trace_id",
            "span_id",
            "parent_id",
            "links",
            "attrs",
        }
        assert dump["trace_id"]
        assert all(s["span_id"] for s in dump["spans"])

    def test_events_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with use_registry(MetricsRegistry()), use_ledger(EventLedger()):
            assert (
                main(
                    [
                        "t-campaign",
                        "--drives",
                        "1",
                        "--queries",
                        "3",
                        "--seed",
                        "1",
                        "--events-out",
                        str(path),
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert f"provenance events written to {path}" in out
        events = [json.loads(line) for line in path.read_text().splitlines()]
        outcomes = [e for e in events if e["kind"] == "query.outcome"]
        assert len(outcomes) == 3
        assert all("cause" in e["data"] for e in outcomes)

    def test_events_out_warns_on_dropped(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with use_registry(MetricsRegistry()), use_ledger(EventLedger(capacity=2)):
            assert (
                main(
                    [
                        "t-campaign",
                        "--drives",
                        "1",
                        "--queries",
                        "3",
                        "--seed",
                        "1",
                        "--events-out",
                        str(path),
                    ]
                )
                == 0
            )
        captured = capsys.readouterr()
        assert "dropped" in captured.err
        assert "truncated" in captured.err

    def test_log_level_enables_repro_logging(self, capsys):
        root = logging.getLogger("repro")
        try:
            with use_registry(MetricsRegistry()):
                assert main(["fig1", "--seed", "2", "--log-level", "INFO"]) == 0
            assert root.level == logging.INFO
            err = capsys.readouterr().err
            assert "experiment start: id=fig1" in err
        finally:
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_bad_log_level_rejected(self):
        with pytest.raises(ValueError):
            main(["fig1", "--log-level", "NOISY"])


class TestCliOpsPlane:
    """The operational flags: --serve-metrics, --prom-out, --slo,
    --flight-out, end to end on a small t-fleet replay."""

    def test_fleet_replay_with_full_ops_plane(self, tmp_path, capsys):
        from repro.obs.openmetrics import parse

        prom = tmp_path / "prom.txt"
        flight = tmp_path / "flight.jsonl"
        with use_registry(MetricsRegistry()), use_ledger(
            EventLedger()
        ), use_recorder(SpanRecorder(capacity=8192)):
            assert (
                main(
                    [
                        "t-fleet",
                        "--vehicles",
                        "4",
                        "--duration",
                        "90",
                        "--seed",
                        "5",
                        "--serve-metrics",
                        "0",
                        "--prom-out",
                        str(prom),
                        "--slo",
                        "--flight-out",
                        str(flight),
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "[serving metrics at http://127.0.0.1:" in out
        assert "SLO report" in out
        assert "fleet_query_p99:" in out
        assert "[flight recorder: 1 dump(s) written to" in out
        assert "(scraped from live endpoint)" in out
        # The scraped exposition is valid OpenMetrics and carries the
        # replay's series, the aux latency histogram, and SLO gauges.
        families = parse(prom.read_text())
        assert "fleet_queries" in families
        assert "fleet_query_latency_s" in families
        assert any(name.startswith("slo_") for name in families)
        # The flight dump is a well-formed black box of the run.
        records = [
            json.loads(line) for line in flight.read_text().splitlines()
        ]
        header = records[0]
        assert header["kind"] == "flight.header"
        assert header["trigger"] == "end_of_run"
        assert header["n_spans"] > 0 and header["n_events"] > 0
        kinds = {r["kind"] for r in records}
        assert kinds == {"flight.header", "flight.span", "flight.event"}

    def test_prom_out_without_server_renders_directly(self, tmp_path, capsys):
        from repro.obs.openmetrics import parse

        prom = tmp_path / "prom.txt"
        with use_registry(MetricsRegistry()), use_recorder(SpanRecorder()):
            assert (
                main(["fig1", "--seed", "2", "--prom-out", str(prom)]) == 0
            )
        out = capsys.readouterr().out
        assert "(rendered)" in out
        assert parse(prom.read_text())

    def test_slo_without_fleet_reports_no_data(self, capsys, monkeypatch):
        from repro.obs import metrics

        # A fleet replay leaves its latency registry registered so the
        # post-run --slo can read it; start this test aux-free.
        monkeypatch.setattr(metrics, "_AUX", {})
        with use_registry(MetricsRegistry()), use_recorder(SpanRecorder()):
            assert main(["fig1", "--seed", "2", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "NO DATA" in out


class TestCliReport:
    @staticmethod
    def _events_file(tmp_path):
        ledger = EventLedger()
        ledger.emit(
            "query.outcome",
            query_id="d0q0",
            truth_m=20.0,
            estimate_m=22.5,
            error_m=2.5,
            resolved=True,
            cause="ok",
        )
        ledger.emit(
            "query.outcome",
            query_id="d0q1",
            truth_m=30.0,
            estimate_m=None,
            error_m=None,
            resolved=False,
            cause="threshold",
        )
        path = tmp_path / "events.jsonl"
        ledger.write_jsonl(str(path))
        return path

    def test_report_renders_attribution(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["report", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Error attribution" in out
        assert "| threshold |" in out
        assert "d0q1 — unresolved" in out

    def test_report_out_writes_file(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        report = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--events",
                    str(events),
                    "--worst",
                    "1",
                    "--report-out",
                    str(report),
                ]
            )
            == 0
        )
        assert f"report written to {report}" in capsys.readouterr().out
        text = report.read_text()
        assert "## Worst 1 queries" in text
        assert "d0q1" in text  # unresolved outranks the 2.5 m error

    def test_report_requires_events(self, capsys):
        assert main(["report"]) == 2
        assert "--events" in capsys.readouterr().err

    def test_report_rejects_extra_ids(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["report", "fig1", "--events", str(path)]) == 2
        assert "no experiment ids" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", "--events", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read events" in capsys.readouterr().err

    def test_end_to_end_campaign_then_report(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        with use_registry(MetricsRegistry()), use_ledger(EventLedger()):
            assert (
                main(
                    [
                        "t-campaign",
                        "--drives",
                        "1",
                        "--queries",
                        "4",
                        "--seed",
                        "1",
                        "--events-out",
                        str(events),
                    ]
                )
                == 0
            )
        assert main(["report", "--events", str(events)]) == 0
        out = capsys.readouterr().out
        # Per-cause query counts must sum to the campaign's query count.
        rows = [
            line
            for line in out.splitlines()
            if line.startswith("|") and "---" not in line and "cause" not in line
        ]
        assert sum(int(r.split("|")[2]) for r in rows) == 4

"""Self-tests of the benchmark: percentile rule, determinism, closure,
a held-out seed, and the contract between the code and BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

#: A seed no tuning run used.
HELD_OUT_SEED = 90210


@pytest.fixture(autouse=True)
def _temp_in_checkout(monkeypatch):
    """Keep the program's spool files inside the checkout, as runs do."""
    tmp = os.path.join(run.OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    monkeypatch.setattr(tempfile, "tempdir", tmp)


def test_tail_percentile_is_highest_with_ten_samples_beyond():
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(9_999) == 99.0
    assert stats.tail_percentile(1_000) == 99.0
    assert stats.tail_percentile(999) == 98.0
    assert stats.tail_percentile(500) == 98.0
    assert stats.tail_percentile(499) == 95.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(19) is None


def test_tail_counts_timings_not_samples():
    from workloads import Outcome

    # 144 queries answered in 18 chunks of 8: every chunk is one timing.
    chunked = Outcome(latencies_ms=[float(i // 8) for i in range(144)], timings=18, busy_s=1.0)
    values, samples = run.end_to_end(chunked, 1.0, 1.0)
    assert values["latency_tail_ms"] == 17.0
    assert samples["latency_tail_ms"].startswith("max of 144 samples")
    # The same 144 samples from 144 separate timings support p90.
    single = Outcome(latencies_ms=[float(i) for i in range(144)], timings=144, busy_s=1.0)
    values, samples = run.end_to_end(single, 1.0, 1.0)
    assert values["latency_tail_ms"] == pytest.approx(stats.percentile(single.latencies_ms, 90.0))
    assert samples["latency_tail_ms"] == "p90 of 144 samples (144 timings)"


def test_percentiles_come_from_raw_samples():
    samples = [float(i) for i in range(1, 1001)]
    assert stats.percentile(samples, 50.0) == pytest.approx(500.5)
    assert stats.percentile(samples, 99.0) == pytest.approx(990.01)
    assert math.isnan(stats.percentile([], 50.0))


def test_digest_tracks_every_bit_of_the_answers():
    assert stats.digest([1.0, None]) == stats.digest([1.0, None])
    assert stats.digest([1.0, 2.0]) != stats.digest([1.0, 2.0 + 1e-12])
    assert stats.digest([1.0, None]) != stats.digest([1.0, 0.0])


def test_self_time_subtracts_wrapped_children():
    spans = [
        ["outer", "timed", 0.0, 10.0, -1, 0.0],
        ["inner", "timed", 1.0, 4.0, 0, 0.0],
        ["inner", "timed", 5.0, 7.0, 0, 0.0],
        ["outer", "setup", 0.0, 1.0, -1, 0.0],
    ]
    rows = layers.summarize(spans, "timed")
    assert rows["outer"] == {"calls": 1, "incl_s": 10.0, "self_s": 5.0, "value": 0.0}
    assert rows["inner"]["calls"] == 2 and rows["inner"]["self_s"] == 5.0
    assert layers.top_level_s(spans, "timed") == 10.0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        layers,
        "TARGETS",
        layers.TARGETS
        + (
            ("core.syn.search", "repro.core.syn", None, "no_such_function"),
            ("core.engine.estimate", "repro.core.engine", "RupsEngine", "no_such_method"),
            ("v2v.codec", "repro.no_such_module", None, "encode"),
        ),
    )
    tracer = layers.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == [
        "repro.core.syn.no_such_function",
        "RupsEngine.no_such_method",
        "repro.no_such_module.encode",
    ]


def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    metrics, _, _ = layers.layer_metrics([], {}, [], 1, 1.0, 1.0)
    assert list(metrics) == list(layers.PER_LAYER)


def _traced_run(name: str, seed: int, seconds: float) -> dict:
    run_ = run.measure(name, seed, seconds, trace=True)
    calls = {row: (r["setup_calls"], r["calls"]) for row, r in run_["detail"]["table"].items()}
    outcome = run_["outcome"]
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors_m,
        "digest": stats.digest(outcome.distances),
        "calls": calls,
        "closure": run_["detail"]["closure"],
    }


@pytest.mark.parametrize("name", ["fleet", "onboard", "campaign"])
def test_same_seed_gives_same_operations_calls_and_answers(name):
    first = _traced_run(name, 3, 0.5)
    second = _traced_run(name, 3, 0.5)
    assert first["attempted"] > 0
    for key in ("attempted", "failed", "digest", "calls"):
        assert first[key] == second[key], key
    assert sum(first["errors"]) / len(first["errors"]) == sum(second["errors"]) / len(
        second["errors"]
    )


def test_traced_rows_close_on_the_busy_time():
    closure = _traced_run("onboard", 5, 0.5)["closure"]
    total = closure["self_sum_s"] + closure["unattributed_s"]
    assert total == pytest.approx(closure["traced_busy_s"], rel=1e-9)
    assert 0.0 <= closure["unattributed_s"] < 0.1 * closure["traced_busy_s"]


@pytest.mark.parametrize("name", ["fleet", "onboard", "campaign", "campaign-pooled"])
def test_held_out_seed_runs_cleanly(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", name,
            "--seed", str(HELD_OUT_SEED),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_without_the_program_it_fails_without_a_result():
    bare = os.path.join(run.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

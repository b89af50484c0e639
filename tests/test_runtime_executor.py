"""Tests for repro.runtime: ordered, spawn-safe deterministic execution."""

import os

import pytest

from repro.runtime import DeterministicExecutor, resolve_jobs


# Module level so they pickle into spawn workers.
def _square(x: int) -> int:
    return x * x


def _pid_task(_: int) -> int:
    return os.getpid()


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4

    def test_none_and_zero_mean_all_cores(self):
        cores = max(os.cpu_count() or 1, 1)
        assert resolve_jobs(None) == cores
        assert resolve_jobs(0) == cores

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestInlineExecution:
    def test_map_ordered(self):
        with DeterministicExecutor(jobs=1) as ex:
            assert ex.map_ordered(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_single_item_runs_inline_even_with_many_jobs(self):
        # One item never justifies a pool.
        with DeterministicExecutor(jobs=4) as ex:
            assert ex.map_ordered(_pid_task, [5]) == [os.getpid()]


class TestParallelExecution:
    def test_results_in_item_order(self):
        with DeterministicExecutor(jobs=2) as ex:
            assert ex.map_ordered(_square, range(8)) == [
                x * x for x in range(8)
            ]

    def test_tasks_run_in_other_processes(self):
        with DeterministicExecutor(jobs=2) as ex:
            pids = ex.map_ordered(_pid_task, range(4))
        assert os.getpid() not in pids

    def test_matches_inline(self):
        items = list(range(11))
        with DeterministicExecutor(jobs=1) as serial:
            expect = serial.map_ordered(_square, items)
        with DeterministicExecutor(jobs=3) as parallel:
            assert parallel.map_ordered(_square, items) == expect

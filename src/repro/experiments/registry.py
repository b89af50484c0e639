"""Experiment registry: id -> callable, for the bench harness and CLI use.

Every id corresponds to one paper artifact (figure or §V table); running
it returns a result object with a ``render()`` method.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.empirical import (
    fig1_spectrograms,
    fig2_temporal_stability,
    fig3_uniqueness,
    fig4_resolution,
)
from repro.experiments.evaluation import (
    fig9_radios,
    fig10_aggregation,
    fig11_environments,
    fig12_vs_gps,
    window_ablation,
)
from repro.experiments.campaign import run_campaign
from repro.experiments.fleet import fleet_replay
from repro.experiments.lossy import loss_sweep
from repro.experiments.stream import stream_replay
from repro.experiments.timing import (
    compute_cost_sweep,
    kernel_comparison_sweep,
    response_time_table,
)

from repro.obs.logconfig import get_logger
from repro.obs.metrics import inc
from repro.obs.tracing import trace
from repro.runtime import DeterministicExecutor

__all__ = ["EXPERIMENTS", "JOBS_AWARE", "run_experiment", "run_experiments"]

_log = get_logger(__name__)

#: All reproducible paper artifacts.
EXPERIMENTS: dict[str, Callable] = {
    "fig1": fig1_spectrograms,
    "fig2": fig2_temporal_stability,
    "fig3": fig3_uniqueness,
    "fig4": fig4_resolution,
    "fig9": fig9_radios,
    "fig10": fig10_aggregation,
    "fig11": fig11_environments,
    "fig12": fig12_vs_gps,
    "t-window": window_ablation,
    "t-compute": compute_cost_sweep,
    "t-kernels": kernel_comparison_sweep,
    "t-respond": response_time_table,
    "t-campaign": run_campaign,
    "t-loss": loss_sweep,
    "t-stream": stream_replay,
    "t-fleet": fleet_replay,
}


#: Experiments whose callables accept a ``jobs=`` fan-out parameter.
JOBS_AWARE = {"t-campaign"}


def run_experiment(exp_id: str, **kwargs):
    """Run one experiment by paper-artifact id and return its result."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    inc("experiments.runs")
    inc(f"experiments.runs.{exp_id}")
    _log.info("experiment start: id=%s", exp_id)
    with trace(f"experiment.{exp_id}"):
        result = fn(**kwargs)
    _log.info("experiment done: id=%s", exp_id)
    return result


def _run_experiment_task(item: tuple[str, dict]):
    exp_id, kwargs = item
    return exp_id, run_experiment(exp_id, **kwargs)


def run_experiments(
    exp_ids: list[str],
    jobs: int | None = 1,
    kwargs_by_id: dict[str, dict] | None = None,
) -> list[tuple[str, object]]:
    """Run several experiments, fanned out across worker processes.

    The coarsest parallel grain: each artifact regenerates in its own
    process (every experiment is already a pure function of its seed /
    settings).  Results come back as ``(exp_id, result)`` pairs in the
    order requested, independent of completion order.
    """
    kwargs_by_id = kwargs_by_id or {}
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; available: {sorted(EXPERIMENTS)}"
        )
    items = [(exp_id, kwargs_by_id.get(exp_id, {})) for exp_id in exp_ids]
    with DeterministicExecutor(jobs=jobs) as executor:
        return executor.map_ordered(_run_experiment_task, items)

"""Golden regression: every answer of a small fixed-seed fleet replay.

The fleet service decides each query through plan → batched search →
absorb rounds over resident builders and sessions; a change to any of
those layers must not silently move an answer.  This pins, per query of
one small deterministic ``fleet_replay``, the query id, whether it
resolved, the tracker mode, the lock state, the unresolved cause and
the serve error exactly, and the distance to a relative 1e-9, against
``tests/goldens/fleet_small.json``.

To regenerate after an *intentional* answer change::

    RUPS_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens_fleet.py

and commit the diff with an explanation of why the answers moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import RupsConfig
from repro.experiments.fleet import fleet_replay

GOLDEN_PATH = Path(__file__).parent / "goldens" / "fleet_small.json"

# Two leader/follower pairs on the 39-channel test plan: about 65
# queries, in both the full and the locked tracking modes.
REPLAY_KWARGS = dict(
    n_vehicles=4,
    duration_s=90.0,
    update_period_s=1.0,
    query_rate_hz=2.0,
    seed=5,
)
CONFIG_KWARGS = dict(context_length_m=500.0, window_channels=20)


def _run(plan) -> dict:
    result = fleet_replay(
        plan=plan, config=RupsConfig(**CONFIG_KWARGS), **REPLAY_KWARGS
    )
    return {
        "replay": {**REPLAY_KWARGS, **CONFIG_KWARGS, "plan": plan.name},
        "queries": [
            {
                "query_id": est.query_id,
                "resolved": est.resolved,
                "mode": est.mode,
                "locked": est.locked,
                "cause": est.cause,
                "error": est.error,
                "distance_m": est.distance_m,
            }
            for _, _, _, est in result.outcomes
        ],
    }


def test_fleet_answers_match_goldens(small_plan):
    actual = _run(small_plan)
    if os.environ.get("RUPS_REGEN_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"goldens regenerated at {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())

    assert actual["replay"] == golden["replay"], (
        "replay parameters changed — regenerate the goldens deliberately"
    )
    assert len(actual["queries"]) == len(golden["queries"])
    modes = set()
    for a, g in zip(actual["queries"], golden["queries"]):
        qid = g["query_id"]
        # Everything but the distance is a decision: pinned exactly.
        for key in ("query_id", "resolved", "mode", "locked", "cause", "error"):
            assert a[key] == g[key], (qid, key)
        if g["distance_m"] is None:
            assert a["distance_m"] is None, qid
        else:
            assert a["distance_m"] == pytest.approx(g["distance_m"], rel=1e-9), qid
        modes.add(g["mode"])
    # The replay exercises both rungs a fleet query reaches.
    assert {"full", "locked"} <= modes

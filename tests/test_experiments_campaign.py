"""Tests for repro.experiments.campaign."""

import pickle

import numpy as np
import pytest

from repro.core.config import RupsConfig
from repro.experiments.campaign import CampaignResult, run_campaign
from repro.experiments.metrics import QueryBatch, QueryOutcome
from repro.roads.types import RoadType


@pytest.fixture(scope="module")
def campaign(small_plan):
    return run_campaign(
        route_length_m=3000.0,
        n_drives=1,
        queries_per_drive=12,
        plan=small_plan,
        seed=5,
        config=RupsConfig(context_length_m=600.0, window_channels=25),
    )


class TestRunCampaign:
    def test_buckets_by_road_type(self, campaign):
        assert campaign.by_road_type
        for road_type, batch in campaign.by_road_type.items():
            assert isinstance(road_type, RoadType)
            assert batch.n_queries > 0

    def test_total_query_count(self, campaign):
        assert campaign.pooled().n_queries == 12

    def test_accuracy(self, campaign):
        pooled = campaign.pooled()
        assert pooled.resolution_rate > 0.7
        assert pooled.mean_rde() < 8.0

    def test_route_metadata(self, campaign):
        assert campaign.route_length_m >= 3000.0
        assert campaign.n_drives == 1

    def test_render(self, campaign):
        text = campaign.render()
        assert "Route campaign" in text
        assert "mean RDE" in text

    def test_warm_rerun_hits_reduction_cache(self, small_plan):
        """A warm re-run — its engine and binding indices resident in
        the process — returns the cold run's result byte for byte."""
        kwargs = dict(
            route_length_m=3000.0,
            n_drives=1,
            queries_per_drive=5,
            plan=small_plan,
            seed=6,
            jobs=1,
            config=RupsConfig(context_length_m=600.0, window_channels=25),
        )
        cold = run_campaign(**kwargs)
        warm = run_campaign(**kwargs)
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_deterministic(self, small_plan):
        kwargs = dict(
            route_length_m=3000.0,
            n_drives=1,
            queries_per_drive=5,
            plan=small_plan,
            seed=6,
            config=RupsConfig(context_length_m=600.0, window_channels=25),
        )
        a = run_campaign(**kwargs).pooled()
        b = run_campaign(**kwargs).pooled()
        assert [o.estimate_m for o in a.outcomes] == [
            o.estimate_m for o in b.outcomes
        ]


class TestCampaignResult:
    def test_pooled_merges(self):
        r = CampaignResult()
        b1 = QueryBatch([QueryOutcome(0.0, 10.0, 11.0)])
        b2 = QueryBatch([QueryOutcome(1.0, 12.0, None)])
        r.by_road_type[RoadType.URBAN_4LANE] = b1
        r.by_road_type[RoadType.SUBURB_2LANE] = b2
        pooled = r.pooled()
        assert pooled.n_queries == 2
        assert pooled.n_resolved == 1

"""Degraded merge: settling a campaign that permanently lost shards."""

import json

import pytest

from repro.config import ExperimentConfig
from repro.errors import TraceFormatError
from repro.machines.hardware import TABLE1_LABS
from repro.recovery.manifest import CampaignManifest
from repro.shard.merge import (
    DegradedMergeInfo,
    merge_degraded,
    merge_outcomes,
)
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, execute_shard_task

CFG = ExperimentConfig(days=1, seed=77)
PLAN = ShardPlan.build(TABLE1_LABS, 2)


def shard_outcomes():
    """Two real shard outcomes over the full Table 1 fleet.  A merge
    consumes its outcomes' recorded rows, so each merge takes fresh
    ones."""
    return [
        execute_shard_task(ShardTask(config=CFG, shard=spec,
                                     labs=tuple(TABLE1_LABS),
                                     collect_nbench=False))
        for spec in PLAN.specs
    ]


@pytest.fixture
def outcomes():
    return shard_outcomes()


class TestMergeDegraded:
    def test_no_holes_matches_strict_merge(self, outcomes):
        store, faults, snapshot, info = merge_degraded(outcomes, PLAN)
        full_store, full_faults, full_snapshot = merge_outcomes(
            shard_outcomes())
        # repr-compare: NaN session_start on free machines defeats ==
        assert repr(list(store.samples())) \
            == repr(list(full_store.samples()))
        assert store.meta == full_store.meta
        assert faults is full_faults is None
        assert snapshot is full_snapshot is None
        assert info.lost_shards == ()
        assert info.machines_lost == 0
        assert info.coverage == 1.0

    @pytest.mark.parametrize("dead", [0, 1])
    def test_dead_shard_machines_excluded(self, outcomes, dead):
        survivor = 1 - dead
        holed = [None if k == dead else outcomes[k] for k in (0, 1)]
        store, _faults, _snapshot, info = merge_degraded(holed, PLAN)
        got_machines = {s.machine_id for s in store.samples()}
        assert got_machines
        assert got_machines <= set(PLAN.specs[survivor].machine_ids)
        assert store.meta.n_machines == PLAN.specs[survivor].n_machines
        assert info.lost_shards == (dead,)
        assert info.machines_lost == PLAN.specs[dead].n_machines
        assert info.machines_total == sum(s.n_machines for s in PLAN.specs)
        assert 0.0 < info.coverage < 1.0

    def test_survivor_accounting_identity_holds(self, outcomes):
        store, _f, _s, _info = merge_degraded([outcomes[0], None], PLAN)
        meta = store.meta
        assert meta.iterations_run * meta.n_machines \
            == meta.attempts + meta.shed + meta.breaker_skipped

    def test_zero_survivors_is_a_failure_not_a_result(self):
        with pytest.raises(TraceFormatError, match="zero surviving"):
            merge_degraded([None, None], PLAN)

    def test_slot_count_must_match_plan(self, outcomes):
        with pytest.raises(TraceFormatError, match="outcome slots"):
            merge_degraded([outcomes[0]], PLAN)

    def test_outcome_in_wrong_slot_rejected(self, outcomes):
        with pytest.raises(TraceFormatError, match="holds"):
            merge_degraded([outcomes[1], outcomes[0]], PLAN)

    def test_coverage_of_empty_roster_is_zero(self):
        info = DegradedMergeInfo(lost_shards=(), machines_lost=0,
                                 machines_total=0)
        assert info.coverage == 0.0


class TestManifestPartialFlag:
    def make_manifest(self):
        return CampaignManifest.fresh(
            "unused", config_digest="d" * 16, plan=PLAN)

    def test_partial_flag_round_trips(self, tmp_path):
        manifest = self.make_manifest()
        manifest.state = "degraded"
        manifest.partial = True
        manifest.lost_shards = [1]
        manifest.write(tmp_path)

        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert raw["partial"] is True
        assert raw["lost_shards"] == [1]
        assert raw["state"] == "degraded"

        back = CampaignManifest.load(tmp_path)
        assert back.partial is True
        assert back.lost_shards == [1]
        assert back.state == "degraded"

    def test_fresh_manifest_is_roster_complete(self, tmp_path):
        manifest = self.make_manifest()
        manifest.write(tmp_path)
        back = CampaignManifest.load(tmp_path)
        assert back.partial is False
        assert back.lost_shards == []

    def test_pre_networked_manifest_defaults_complete(self, tmp_path):
        """Manifests written before the degraded-merge columns existed
        must load as roster-complete, not crash."""
        manifest = self.make_manifest()
        manifest.write(tmp_path)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        del raw["partial"], raw["lost_shards"]
        (tmp_path / "manifest.json").write_text(
            json.dumps(raw, indent=2, sort_keys=True) + "\n")
        back = CampaignManifest.load(tmp_path)
        assert back.partial is False
        assert back.lost_shards == []

"""Supervised campaigns: the campaign coordinator on forked local workers.

Every ``shards>1`` run without ``net=`` runs on
:class:`~repro.shard.coordinator.CampaignCoordinator` with
``endpoint=None``: it forks one worker per shard and speaks to each over
a socketpair.  These tests cover that worker source and the
:class:`~repro.shard.coordinator.CampaignPolicy` knobs; the TCP source
is covered by ``test_net_campaign.py``.
"""

import multiprocessing
import time

import pytest

from repro.config import ExperimentConfig
from repro.errors import ProbeError, ShardWorkerError
from repro.experiment import run_experiment
from repro.faults import FaultPlan
from repro.faults.scenarios import StdoutCorruption
from repro.machines.hardware import TABLE1_LABS
from repro.obs import health
from repro.shard.coordinator import CampaignCoordinator, CampaignPolicy
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask

#: Default liveness deadlines, near-instant regrants.
QUICK = CampaignPolicy(backoff_base=0.01)


def make_task(index=0, shards=1):
    cfg = ExperimentConfig(days=1, seed=5)
    plan = ShardPlan.build(TABLE1_LABS, shards)
    return ShardTask(config=cfg, shard=plan.specs[index],
                     labs=tuple(TABLE1_LABS))


class TestSupervisorPolicy:
    def test_restart_delay_is_capped_multiplicative_backoff(self):
        p = CampaignPolicy(backoff_base=0.5, backoff_multiplier=2.0,
                           backoff_cap=5.0)
        assert [p.regrant_delay(n) for n in range(1, 6)] == [
            0.5, 1.0, 2.0, 4.0, 5.0]

    def test_restart_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            CampaignPolicy().regrant_delay(0)

    @pytest.mark.parametrize("bad", [
        dict(heartbeat_every=0),
        dict(degraded_after=0.0),
        dict(lease_timeout=-1.0),
        dict(degraded_after=10.0, lease_timeout=5.0),
        dict(max_regrants=-1),
        dict(backoff_base=-0.1),
        dict(backoff_multiplier=0.5),
        dict(poll_interval=0.0),
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            CampaignPolicy(**bad)


class TestSupervisorGuards:
    def test_needs_at_least_one_task(self):
        with pytest.raises(ValueError, match="at least one"):
            CampaignCoordinator([])

    def test_duplicate_shard_indexes_rejected(self):
        task = make_task()
        with pytest.raises(ValueError, match="distinct"):
            CampaignCoordinator([task, task])

    def test_runs_exactly_once(self):
        coordinator = CampaignCoordinator([make_task()], policy=QUICK)
        assert coordinator.endpoint is None
        outcomes = coordinator.run()
        assert len(outcomes) == 1 and outcomes[0].shard_index == 0
        assert coordinator.states() == {0: health.DONE}
        report = coordinator.report()
        assert report.heartbeats[0] > 0
        assert report.restarts == {0: 0}
        with pytest.raises(RuntimeError, match="exactly once"):
            coordinator.run()


class TestSupervisorClockSeam:
    """Liveness deadlines run on an injectable monotonic clock."""

    def test_offset_clock_still_completes(self):
        # A clock starting far from zero (e.g. a long-booted host's
        # time.monotonic) must not trip liveness or regrant deadlines.
        coordinator = CampaignCoordinator(
            [make_task()], policy=QUICK,
            clock=lambda: time.monotonic() + 1_000_000.0)
        outcomes = coordinator.run()
        assert len(outcomes) == 1 and outcomes[0].shard_index == 0
        assert coordinator.states() == {0: health.DONE}

    def test_clock_zero_start_still_completes(self):
        # The opposite corner: a clock that starts at exactly 0.0 (the
        # deadline arithmetic must not treat 0 as "never seen").
        t0 = time.monotonic()
        coordinator = CampaignCoordinator(
            [make_task()], policy=QUICK,
            clock=lambda: time.monotonic() - t0)
        outcomes = coordinator.run()
        assert len(outcomes) == 1
        assert coordinator.report().restarts == {0: 0}


def raise_in_workers(monkeypatch, shards):
    """Make the forked workers of ``shards`` raise a ``ProbeError``
    instead of gathering; children inherit the patched entry point,
    while the parent's degraded merge still gathers for real."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork so children inherit the patched entry")
    import repro.shard.worker as worker_mod

    real_gather = worker_mod.gather_shard

    def gather(task, **kwargs):
        if task.shard.index in shards:
            raise ProbeError("probe report missing keys: ['host']")
        return real_gather(task, **kwargs)

    monkeypatch.setattr(worker_mod, "gather_shard", gather)


class TestTaskFailure:
    """A task that raises in a campaign without a run directory is not
    regranted: the re-run would start from scratch and raise again."""

    CFG = ExperimentConfig(days=1, seed=7)

    def test_raising_task_runs_once(self, monkeypatch):
        raise_in_workers(monkeypatch, {1})
        with pytest.raises(ShardWorkerError, match="ProbeError") as err:
            run_experiment(self.CFG, shards=2, supervise=QUICK)
        assert err.value.shard_index == 1
        assert err.value.restarts == 0
        assert "from scratch" in str(err.value)

    def test_every_shard_raising_fails_at_the_first(self, monkeypatch):
        raise_in_workers(monkeypatch, {0, 1})
        with pytest.raises(ShardWorkerError, match="ProbeError") as err:
            run_experiment(self.CFG, shards=2, supervise=QUICK)
        assert err.value.restarts == 0

    def test_raising_task_is_lost_under_allow_partial(self, monkeypatch):
        raise_in_workers(monkeypatch, {1})
        policy = CampaignPolicy(backoff_base=0.01, allow_partial=True)
        result = run_experiment(self.CFG, shards=2, supervise=policy)
        assert result.campaign.states == {0: health.DONE, 1: health.LOST}
        assert result.campaign.restarts == {0: 0, 1: 0}
        assert result.degraded.lost_shards == (1,)

    def test_strict_probe_error_raises_from_run_experiment(self):
        """Corrupt reports reach the post-collector in the parent's one
        pass, so strict post-collect raises there, as in a sequential
        run."""
        def run(**kwargs):
            faults = FaultPlan([StdoutCorruption(0.05)], seed=3)
            return run_experiment(self.CFG, faults=faults,
                                  strict_postcollect=True, **kwargs)

        with pytest.raises(ProbeError) as sequential:
            run()
        with pytest.raises(ProbeError) as sharded:
            run(shards=2, supervise=QUICK)
        assert str(sharded.value) == str(sequential.value)

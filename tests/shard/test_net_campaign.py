"""Campaign coordinator: TCP and forked workers, chaos, degradation.

Every campaign test runs a real coordinator with real worker processes,
over loopback TCP or over the socketpairs of forked local workers;
days=1 keeps each campaign under a second.
"""

import json
import socket
import time

import pytest

from repro.config import ExperimentConfig
from repro.errors import (
    CampaignStopped,
    CheckpointError,
    ShardWorkerError,
)
from repro.experiment import run_experiment
from repro.faults.network import NetworkFaultPlan, ShardHolderDrop
from repro.machines.hardware import TABLE1_LABS
from repro.recovery.crashtest import result_fingerprint
from repro.recovery.runtime import RecoveryConfig
from repro.shard.coordinator import CampaignCoordinator, CampaignPolicy
from repro.shard.net.config import NetConfig
from repro.shard.net.worker import NetWorkerPolicy, spawn_local_workers
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask

CFG = ExperimentConfig(days=1, seed=77)
#: Loopback listener on an ephemeral port.
TCP = "tcp://127.0.0.1:0"

#: Fast liveness so chaos tests fence and regrant within a second.
FAST = CampaignPolicy(degraded_after=0.4, lease_timeout=1.0,
                      backoff_base=0.05, join_timeout=20.0, max_regrants=2)
EAGER_WORKERS = NetWorkerPolicy(connect_attempts=40, backoff_base=0.02,
                                backoff_cap=0.2)


def net(workers=2, *, faults=None, policy=FAST):
    return NetConfig(spawn_workers=workers, policy=policy, faults=faults,
                     worker_policy=EAGER_WORKERS)


@pytest.fixture(scope="module")
def baseline_fp():
    """Fingerprint of the campaign on forked local workers."""
    return result_fingerprint(run_experiment(CFG, shards=2))


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_networked_matches_supervised(self, baseline_fp, shards):
        result = run_experiment(CFG, shards=shards,
                                net=net(workers=shards))
        assert result_fingerprint(result) == baseline_fp
        assert result.degraded is None
        assert result.campaign is not None
        assert sum(result.campaign.restarts.values()) == 0

    def test_reconnect_chaos_recovers_identically(self, baseline_fp,
                                                  tmp_path):
        faults = NetworkFaultPlan(
            [ShardHolderDrop(shard=0, after=20, times=1)], seed=77)
        result = run_experiment(
            CFG, shards=2,
            recovery=RecoveryConfig(run_dir=tmp_path / "chaos",
                                    fsync=False),
            net=net(faults=faults),
        )
        assert result_fingerprint(result) == baseline_fp
        assert sum(result.campaign.restarts.values()) >= 1
        assert result.degraded is None
        assert faults.injected["net_disconnect"] == 1


class TestDegradedCompletion:
    def test_permanent_loss_completes_partial(self, baseline_fp, tmp_path):
        run_dir = tmp_path / "degraded"
        faults = NetworkFaultPlan(
            [ShardHolderDrop(shard=1, after=10, times=None)], seed=77)
        result = run_experiment(
            CFG, shards=2,
            recovery=RecoveryConfig(run_dir=run_dir, fsync=False),
            net=net(faults=faults,
                    policy=CampaignPolicy(degraded_after=0.4,
                                          lease_timeout=1.0,
                                          backoff_base=0.05,
                                          join_timeout=20.0,
                                          max_regrants=1,
                                          allow_partial=True)),
        )
        deg = result.degraded
        assert deg is not None
        assert list(deg.lost_shards) == [1]
        assert 0.0 < deg.coverage < 1.0
        assert result_fingerprint(result) != baseline_fp
        # The manifest pins the same facts for offline consumers.
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["lost_shards"] == [1]
        assert manifest["state"] == "degraded"
        # Survivor accounting identity still holds.
        meta = result.store.meta
        assert meta.iterations_run * meta.n_machines \
            == meta.attempts + meta.shed + meta.breaker_skipped

    def test_all_shards_lost_raises(self):
        faults = NetworkFaultPlan(
            [ShardHolderDrop(shard=0, after=5, times=None),
             ShardHolderDrop(shard=1, after=5, times=None)], seed=77)
        with pytest.raises(ShardWorkerError, match="every shard"):
            run_experiment(
                CFG, shards=2,
                net=net(faults=faults,
                        policy=CampaignPolicy(degraded_after=0.3,
                                              lease_timeout=0.8,
                                              backoff_base=0.02,
                                              join_timeout=20.0,
                                              max_regrants=0,
                                              allow_partial=True)),
            )

    def test_budget_exhaustion_raises_when_partial_disallowed(self):
        faults = NetworkFaultPlan(
            [ShardHolderDrop(shard=0, after=5, times=None)], seed=77)
        with pytest.raises(ShardWorkerError, match="regrant") as ei:
            run_experiment(
                CFG, shards=2,
                net=net(faults=faults,
                        policy=CampaignPolicy(degraded_after=0.3,
                                              lease_timeout=0.8,
                                              backoff_base=0.02,
                                              join_timeout=20.0,
                                              max_regrants=0,
                                              allow_partial=False)),
            )
        assert ei.value.shard_index == 0
        assert ei.value.last_heartbeat is not None


class TestNoHangGuarantees:
    def test_no_workers_fails_after_join_timeout(self):
        # spawn_workers=None and nobody connects: the coordinator must
        # fail the campaign instead of waiting forever.
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="no worker"):
            run_experiment(
                CFG, shards=2,
                net=NetConfig(policy=CampaignPolicy(join_timeout=0.5,
                                                    poll_interval=0.02)),
            )
        assert time.monotonic() - started < 10.0

    def test_stop_raises_campaign_stopped(self):
        plan = ShardPlan.build(TABLE1_LABS, 2)
        tasks = [ShardTask(config=CFG, shard=spec,
                           labs=tuple(TABLE1_LABS), collect_nbench=False)
                 for spec in plan.specs]
        coordinator = CampaignCoordinator(tasks, policy=FAST)
        coordinator.stop()  # queued; honoured on the first loop tick
        with pytest.raises(CampaignStopped):
            coordinator.run()

    def test_runs_exactly_once(self):
        plan = ShardPlan.build(TABLE1_LABS, 2)
        tasks = [ShardTask(config=CFG, shard=spec,
                           labs=tuple(TABLE1_LABS))
                 for spec in plan.specs]
        coordinator = CampaignCoordinator(tasks, endpoint=TCP, policy=FAST)
        coordinator.stop()
        with pytest.raises(CampaignStopped):
            coordinator.run()
        with pytest.raises(RuntimeError, match="exactly once"):
            coordinator.run()


class TestNetValidation:
    def test_needs_two_shards(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            run_experiment(CFG, shards=1, net=NetConfig())

    def test_conflicts_with_supervise(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_experiment(CFG, shards=2, supervise=CampaignPolicy(),
                           net=NetConfig())

    def test_conflicts_with_fleet_factory(self):
        with pytest.raises(ValueError, match="fleet_factory"):
            run_experiment(CFG, shards=2, net=NetConfig(),
                           fleet_factory=lambda *a, **k: None)

    def test_conflicts_with_resume(self, tmp_path):
        with pytest.raises(CheckpointError, match="resume"):
            run_experiment(CFG, resume_from=tmp_path, net=NetConfig())

    def test_coordinator_needs_tasks(self):
        with pytest.raises(ValueError, match="at least one"):
            CampaignCoordinator([], endpoint=TCP)

    def test_coordinator_rejects_duplicate_shards(self):
        plan = ShardPlan.build(TABLE1_LABS, 2)
        task = ShardTask(config=CFG, shard=plan.specs[0],
                         labs=tuple(TABLE1_LABS))
        with pytest.raises(ValueError, match="distinct"):
            CampaignCoordinator([task, task], endpoint=TCP)

    @pytest.mark.parametrize("knobs", [
        {"heartbeat_every": 0},
        {"degraded_after": 0.0},
        {"lease_timeout": 1.0, "degraded_after": 2.0},
        {"max_regrants": -1},
        {"backoff_base": -0.1},
        {"join_timeout": 0.0},
        {"poll_interval": 0.0},
        {"io_timeout": 0.0},
        {"wait_hint": 0.0},
        {"backoff_cap": -0.1},
    ])
    def test_policy_knobs_validated(self, knobs):
        with pytest.raises(ValueError):
            CampaignPolicy(**knobs)


class TestInjectedClock:
    """The liveness layer runs on an injectable monotonic clock."""

    def test_coordinator_accepts_offset_clock(self):
        # A clock starting far from zero must not break manifest
        # throttling, liveness deadlines, or grants.
        offset = 1_000_000.0
        plan = ShardPlan.build(TABLE1_LABS, 2)
        tasks = [ShardTask(config=CFG, shard=spec,
                           labs=tuple(TABLE1_LABS), collect_nbench=False)
                 for spec in plan.specs]
        coordinator = CampaignCoordinator(
            tasks, endpoint=TCP, policy=FAST,
            clock=lambda: time.monotonic() + offset)
        procs = spawn_local_workers(coordinator.endpoint, 2,
                                    policy=EAGER_WORKERS)
        try:
            outcomes = coordinator.run()
        finally:
            for proc in procs:
                proc.join(5.0)
                if proc.is_alive():
                    proc.terminate()
        assert all(o is not None for o in outcomes)
        assert coordinator.report().restarts == {0: 0, 1: 0}
        from repro.shard.merge import merge_outcomes
        store, _f, _s = merge_outcomes(outcomes)
        assert len(store) > 0


class TestLocalWorkers:
    def test_local_campaign_opens_no_listening_socket(self, monkeypatch):
        # Frames are pickles: a campaign on forked workers must never
        # accept connections, so the coordinator binds no listener.
        listened = []
        real_listen = socket.socket.listen

        def spy(sock, *args):
            listened.append(sock.getsockname())
            return real_listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", spy)
        plan = ShardPlan.build(TABLE1_LABS, 2)
        tasks = [ShardTask(config=CFG, shard=spec,
                           labs=tuple(TABLE1_LABS), collect_nbench=False)
                 for spec in plan.specs]
        coordinator = CampaignCoordinator(tasks, policy=FAST)
        assert coordinator.endpoint is None
        outcomes = coordinator.run()
        assert all(o is not None for o in outcomes)
        assert listened == []
        # The spy does see a TCP coordinator's listener.
        tcp = CampaignCoordinator(tasks, endpoint=TCP)
        tcp._listener.close()
        assert listened == [("127.0.0.1", int(tcp.endpoint.rsplit(":", 1)[1]))]

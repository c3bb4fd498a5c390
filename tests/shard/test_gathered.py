"""Gathered shard runs equal the sequential run, and replay nothing.

Every fan-out -- a campaign on forked workers or a ``net=`` campaign on
TCP workers, with or without recovery, on either probing pass -- splits
the behaviour: each worker simulates only its own labs and records
their pass inputs, and the parent runs the one probing pass and NBench
(``repro.shard.gather``).  These tests pin that the result is the
sequential run's, seed after seed and feature by feature, that no
worker replays a foreign machine or draws a stream the parent owns,
that gathered campaign workers heartbeat and obey steering, and that a
campaign which loses a shard keeps the sequential run's rows of the
survivors' machines.

CI's ``fleet-scale`` job runs :func:`mismatching_seeds` over 24 seeds
on forked workers.
"""

import dataclasses
import functools
import math
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.config import DdcParams, ExperimentConfig
from repro.ddc.nbenchprobe import NBenchProbe
from repro.errors import CampaignStopped, NetworkError, TraceFormatError
from repro.experiment import MonitoringResult, run_experiment
from repro.faults.network import NetworkFaultPlan, ShardHolderDrop
from repro.faults.scenarios import paper_like_plan
from repro.machines.hardware import TABLE1_LABS
from repro.obs import Observer, health
from repro.recovery.crashtest import result_fingerprint
from repro.recovery.runtime import RecoveryConfig
from repro.resilience import ResiliencePolicy
from repro.shard.coordinator import CampaignCoordinator, CampaignPolicy
from repro.shard.merge import DegradedMergeInfo, merge_degraded, merge_outcomes
from repro.shard.net.config import NetConfig
from repro.shard.net.framing import FramedChannel
from repro.shard.net.protocol import Command, Heartbeat
from repro.shard.net.worker import NetWorkerControl, NetWorkerPolicy
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, gather_shard
from repro.sim.calendar import DAY, HOUR, AcademicCalendar
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore

#: Seeds of the tier-1 sweep; 900101 is a seed where a behavioural event
#: ties a closing-time pass (a forgotten logout at 04:00 of day 1).
SWEEP_SEEDS = (2005, 200501, 900101)
#: A week from Monday 00:00: it crosses the Friday-night 04:00 closing
#: and the Saturday 21:00 closing.
SWEEP_DAYS = 7
#: Instants a gathered worker records over the sweep's week.
SWEEP_INSTANTS = SWEEP_DAYS * 96
#: Fast reconnects, so a TCP campaign's spawned workers attach at once.
FAST_WORKERS = NetWorkerPolicy(connect_attempts=40, backoff_base=0.02,
                               backoff_cap=0.2)


def sweep_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(days=SWEEP_DAYS, seed=seed)


@functools.lru_cache(maxsize=None)
def sequential_fingerprint(seed: int) -> str:
    return result_fingerprint(run_experiment(sweep_config(seed)))


def mismatching_seeds(seeds, shards: int = 2, **fanout):
    """Seeds whose ``shards``-shard fingerprint differs from the
    sequential run's, under the default kernel; ``fanout`` picks the
    worker source (``net=...``; forked workers when empty)."""
    return [seed for seed in seeds
            if result_fingerprint(run_experiment(sweep_config(seed),
                                                 shards=shards, **fanout))
            != sequential_fingerprint(seed)]


def fast_net(**kwargs) -> NetConfig:
    """A TCP campaign on two spawned loopback workers."""
    return NetConfig(spawn_workers=2, worker_policy=FAST_WORKERS, **kwargs)


def fingerprint(cfg, store) -> str:
    return result_fingerprint(MonitoringResult(
        config=cfg, fleet=None, coordinator=None, store=store))


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


@pytest.fixture
def gathered_calls(monkeypatch):
    """Counts the parent-side passes over gathered rows."""
    import repro.shard.merge as merge_mod

    calls = []
    original = merge_mod.collect_gathered

    def spy(outcomes, **kwargs):
        calls.append(len(outcomes))
        return original(outcomes, **kwargs)

    monkeypatch.setattr(merge_mod, "collect_gathered", spy)
    return calls


@pytest.fixture
def merged_outcomes(monkeypatch):
    """The shard outcomes each fan-out hands to the merge."""
    import repro.experiment as experiment_mod

    merged = []
    original = experiment_mod.merge_outcomes

    def spy(outcomes):
        merged.append(list(outcomes))
        return original(outcomes)

    monkeypatch.setattr(experiment_mod, "merge_outcomes", spy)
    return merged


class TestSeedSweep:
    def test_week_crosses_both_closings(self):
        horizon = sweep_config(SWEEP_SEEDS[0]).horizon
        friday_night_close = 5 * DAY + AcademicCalendar.CLOSE_HOUR * HOUR
        saturday_close = (5 * DAY
                          + AcademicCalendar.SATURDAY_CLOSE_HOUR * HOUR)
        assert friday_night_close < saturday_close < horizon

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_two_shards_equal_sequential(self, seed, gathered_calls):
        assert mismatching_seeds([seed]) == []
        assert gathered_calls == [2]

    def test_three_shards_equal_sequential(self, gathered_calls):
        assert mismatching_seeds(SWEEP_SEEDS[:1], shards=3) == []
        assert gathered_calls == [3]


class TestMechanismChoice:
    def test_object_kernel_pool_keeps_the_full_replay(self, gathered_calls,
                                                      tmp_path):
        """A plain ``shards=2`` run (forked campaign workers, the
        default policy) under the object pass gathers: no worker
        replays a foreign machine, and the parent's one pass replays
        the full roster's recorded inputs on a row-backed roster."""
        cfg = ExperimentConfig(days=1, seed=11, kernel="object")
        sharded = run_experiment(cfg, shards=2)
        assert gathered_calls == [2]
        assert (csv_bytes(sharded.store, tmp_path / "sh.csv")
                == csv_bytes(run_experiment(cfg).store, tmp_path / "seq.csv"))

    def test_columnar_kernel_pool_gathers(self, gathered_calls):
        cfg = ExperimentConfig(days=1, seed=11, kernel="columnar")
        run_experiment(cfg, shards=2)
        assert gathered_calls == [2]


class TestCampaignsGather:
    """Campaigns with an explicit policy, ``net=`` campaigns, the object
    pass and recovery campaigns all gather."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_forked_campaign_equals_sequential(self, seed, gathered_calls):
        result = run_experiment(sweep_config(seed), shards=2,
                                supervise=CampaignPolicy())
        assert gathered_calls == [2]
        assert result_fingerprint(result) == sequential_fingerprint(seed)
        # one heartbeat per recorded instant
        assert result.campaign.heartbeats == {0: SWEEP_INSTANTS,
                                              1: SWEEP_INSTANTS}
        assert result.campaign.last_iterations == {
            0: SWEEP_INSTANTS - 1, 1: SWEEP_INSTANTS - 1}

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_tcp_campaign_equals_sequential(self, seed, gathered_calls):
        result = run_experiment(sweep_config(seed), shards=2,
                                net=fast_net())
        assert gathered_calls == [2]
        assert result_fingerprint(result) == sequential_fingerprint(seed)
        assert result.degraded is None
        assert result.campaign.heartbeats == {0: SWEEP_INSTANTS,
                                              1: SWEEP_INSTANTS}

    def test_object_kernel_campaign_keeps_the_full_replay(
            self, gathered_calls, merged_outcomes):
        """The workers gather; the parent's object pass replays the full
        roster's recorded inputs."""
        cfg = ExperimentConfig(days=1, seed=11, kernel="object")
        result = run_experiment(cfg, shards=2, supervise=CampaignPolicy())
        assert gathered_calls == [2]
        [outcomes] = merged_outcomes
        assert all(o.gathered is not None and o.store is None
                   for o in outcomes)
        assert result_fingerprint(result) == result_fingerprint(
            run_experiment(cfg))

    def test_recovery_campaign_keeps_the_full_replay(
            self, gathered_calls, merged_outcomes, tmp_path):
        """A recovery campaign's workers gather and journal their pass
        inputs; the parent's one pass replays the full roster's."""
        cfg = ExperimentConfig(days=1, seed=11)
        result = run_experiment(
            cfg, shards=2,
            recovery=RecoveryConfig(run_dir=tmp_path / "camp", fsync=False))
        assert gathered_calls == [2]
        [outcomes] = merged_outcomes
        assert all(o.gathered is not None and o.store is None
                   for o in outcomes)
        assert result_fingerprint(result) == result_fingerprint(
            run_experiment(cfg))


def resilient_config():
    """Faults, the resilience control plane and retries all engaged."""
    cfg = ExperimentConfig(days=1, seed=17)
    return cfg.replace(ddc=dataclasses.replace(
        cfg.ddc, resilience=ResiliencePolicy(), retry_limit=2))


#: One fan-out per feature the workers or the parent's pass must
#: honour: ``(config, flags)``; :func:`fanout_kwargs` builds fresh
#: faults, observers and run directories per run.
FANOUTS = {
    "recovery": (ExperimentConfig(days=1, seed=11), {"recovery": True}),
    "recovery-net": (ExperimentConfig(days=1, seed=11),
                     {"recovery": True, "net": True}),
    "object": (ExperimentConfig(days=1, seed=11, kernel="object"), {}),
    "faults-resilience-retries": (resilient_config(), {"faults": True}),
    "observer": (ExperimentConfig(days=1, seed=11), {"observer": True}),
}


def fanout_kwargs(cfg, flags, run_dir):
    """The run_experiment keywords of a fan-out's ``flags``."""
    kwargs = {}
    if flags.get("recovery"):
        kwargs["recovery"] = RecoveryConfig(run_dir=run_dir, fsync=False)
    if flags.get("faults"):
        kwargs["faults"] = paper_like_plan(cfg.horizon, labs=("L03",),
                                           seed=99)
        kwargs["strict_postcollect"] = False
    if flags.get("observer"):
        kwargs["observer"] = Observer()
    return kwargs


class TestEveryFanOutGathers:
    """Every fan-out gathers: each worker builds only its shard's
    machines, the parent runs the pass and NBench once, and the result
    is the sequential run's."""

    @pytest.mark.parametrize("name", sorted(FANOUTS))
    def test_fanout_gathers(self, name, merged_outcomes, monkeypatch,
                            tmp_path):
        cfg, flags = FANOUTS[name]
        seq = run_experiment(cfg,
                             **fanout_kwargs(cfg, flags, tmp_path / "seq"))
        benchmarked = []
        original = NBenchProbe.benchmark

        def counting(probe, spec):
            benchmarked.append(spec.machine_id)
            return original(probe, spec)

        monkeypatch.setattr(NBenchProbe, "benchmark", counting)
        net = fast_net() if flags.get("net") else None
        sharded = run_experiment(cfg, shards=2, net=net,
                                 **fanout_kwargs(cfg, flags,
                                                 tmp_path / "sharded"))
        [outcomes] = merged_outcomes
        plan = ShardPlan.build(TABLE1_LABS, 2)
        for spec, outcome in zip(plan.specs, outcomes):
            assert outcome.store is None
            # the worker's mirror held exactly the shard's machines
            assert outcome.gathered.owned.tolist() == list(spec.machine_ids)
        assert benchmarked == [m.spec.machine_id for m in seq.fleet.machines]
        assert result_fingerprint(sharded) == result_fingerprint(seq)
        if flags.get("faults"):
            assert dict(sharded.faults.injected) == dict(seq.faults.injected)

    def test_observed_run_counts_like_the_sequential_one(self):
        cfg = ExperimentConfig(days=1, seed=11)
        seq = run_experiment(cfg, observer=Observer()).observer.snapshot()
        snap = run_experiment(cfg, shards=2,
                              observer=Observer()).obs_snapshot
        ddc = [name for name in seq.metric_names()
               if name.startswith("ddc.")]
        assert "ddc.samples" in ddc and "ddc.iterations_run" in ddc
        for name in ddc:
            if seq.histograms(name):
                assert ([r["count"] for r in snap.histograms(name)]
                        == [r["count"] for r in seq.histograms(name)]), name
            else:
                assert (snap.counter_by_label(name, "lab")
                        == seq.counter_by_label(name, "lab")), name
        assert len(snap.spans) == len(seq.spans)
        assert ([s["labels"] for s in snap.spans]
                == [s["labels"] for s in seq.spans])


def gathered_tasks(cfg):
    """A 2-shard plan's tasks as run_experiment builds them."""
    return [ShardTask(config=cfg, shard=spec, labs=tuple(TABLE1_LABS))
            for spec in ShardPlan.build(TABLE1_LABS, 2).specs]


def run_in_thread(coordinator):
    """Start ``coordinator.run()`` on a thread; its outcomes or error
    land in the returned box."""
    box = {}

    def drive():
        try:
            box["outcomes"] = coordinator.run()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box["error"] = exc

    thread = threading.Thread(target=drive)
    thread.start()
    return thread, box


def await_states(coordinator, state, deadline=30.0):
    """Wait until every shard is in ``state``."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if set(coordinator.states().values()) == {state}:
            return True
        time.sleep(0.005)
    return False


def run_gathered_worker(task, commands=()):
    """Run ``gather_shard`` as a campaign worker does, on a steering
    endpoint over a socketpair with ``commands`` already queued; returns
    the outcome and every frame the worker sent."""
    worker_end, coordinator_end = socket.socketpair()
    worker = FramedChannel(worker_end)
    coordinator = FramedChannel(coordinator_end)
    for verb in commands:
        coordinator.send(Command(verb))
    frames = []

    def read():
        while True:
            try:
                frames.append(coordinator.recv(timeout=30.0))
            except NetworkError:
                return  # the worker end closed

    reader = threading.Thread(target=read)
    reader.start()
    try:
        outcome = gather_shard(task, control=NetWorkerControl(0, 1, worker))
    finally:
        worker.close()
        reader.join(timeout=30)
        coordinator.close()
    return outcome, frames


class TestGatheredSteering:
    """Campaign workers heartbeat and obey steering at each recorded
    instant, where a sequential run's coordinator ends an iteration."""

    def test_heartbeat_per_recorded_instant(self):
        task = gathered_tasks(ExperimentConfig(days=1, seed=5))[0]
        outcome, frames = run_gathered_worker(task)
        assert all(isinstance(m, Heartbeat) for m in frames)
        assert [m.iteration for m in frames] == list(range(96))
        assert [m.sim_time for m in frames] == [k * 900.0 for k in range(96)]
        assert len(outcome.gathered.powered) == 96
        assert outcome.last_iteration == 95
        assert not outcome.stopped

    def test_stop_returns_a_stopped_outcome(self):
        task = gathered_tasks(ExperimentConfig(days=1, seed=5))[0]
        outcome, frames = run_gathered_worker(task, commands=["stop"])
        assert [type(m).__name__ for m in frames] == ["Heartbeat", "Ack"]
        assert outcome.stopped and outcome.gathered is None
        assert outcome.last_iteration == 0
        assert outcome.fleet.sim.now == 0.0

    def test_paused_and_resumed_campaign_equals_sequential(self):
        cfg = sweep_config(SWEEP_SEEDS[0])
        coordinator = CampaignCoordinator(gathered_tasks(cfg))
        thread, box = run_in_thread(coordinator)
        try:
            assert await_states(coordinator, health.RUNNING), \
                coordinator.states()
            coordinator.pause()
            assert await_states(coordinator, health.PAUSED), \
                coordinator.states()
            coordinator.resume()
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert "error" not in box, box
        assert coordinator.states() == {0: health.DONE, 1: health.DONE}
        store, _, _ = merge_outcomes(box["outcomes"])
        assert fingerprint(cfg, store) == sequential_fingerprint(
            SWEEP_SEEDS[0])

    def test_stop_raises_and_leaves_the_shards_stopped(self):
        coordinator = CampaignCoordinator(
            gathered_tasks(sweep_config(SWEEP_SEEDS[0])))
        thread, box = run_in_thread(coordinator)
        try:
            assert await_states(coordinator, health.RUNNING), \
                coordinator.states()
            # Paused workers cannot finish before STOP reaches them.
            coordinator.pause()
            assert await_states(coordinator, health.PAUSED), \
                coordinator.states()
            coordinator.stop()
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        error = box.get("error")
        assert isinstance(error, CampaignStopped), box
        assert coordinator.states() == {0: health.STOPPED,
                                        1: health.STOPPED}
        assert all(0 <= k < SWEEP_INSTANTS - 1
                   for k in error.last_iterations.values())


class TestGatheredDegradedMerge:
    """A campaign that loses a shard for good keeps exactly the
    sequential run's rows of the survivors' machines."""

    @staticmethod
    def survivor_reference(cfg, lost):
        """The sequential run restricted to the surviving shards'
        machines: their rows and statics, with the counters a fault-free
        pass gives them by the accounting identity."""
        plan = ShardPlan.build(TABLE1_LABS, 2)
        kept = {mid for spec in plan.specs if spec.index != lost
                for mid in spec.machine_ids}
        seq = run_experiment(cfg)
        meta = TraceMeta(
            n_machines=len(kept), sample_period=seq.meta.sample_period,
            horizon=seq.meta.horizon,
            iterations_scheduled=seq.meta.iterations_scheduled,
            iterations_run=seq.meta.iterations_run,
            statics={mid: info for mid, info in seq.meta.statics.items()
                     if mid in kept},
        )
        store = TraceStore(meta)
        store.extend(s for s in seq.store.samples() if s.machine_id in kept)
        meta.attempts = meta.iterations_run * meta.n_machines
        meta.samples_collected = len(store)
        meta.timeouts = meta.attempts - meta.samples_collected
        info = DegradedMergeInfo(
            lost_shards=(lost,),
            machines_lost=plan.specs[lost].n_machines,
            machines_total=sum(spec.n_machines for spec in plan.specs))
        return fingerprint(cfg, store), info

    def test_first_shard_lost(self, gathered_calls):
        self.lose_the_first_shard(ExperimentConfig(days=1, seed=2005),
                                  gathered_calls)

    def test_first_shard_lost_on_the_object_pass(self, gathered_calls):
        """The object pass probes the lost machines unaccounted, as the
        columnar pass masks them."""
        self.lose_the_first_shard(
            ExperimentConfig(days=1, seed=2005, kernel="object"),
            gathered_calls)

    def lose_the_first_shard(self, cfg, gathered_calls):
        plan = ShardPlan.build(TABLE1_LABS, 2)
        outcomes = [None, gather_shard(gathered_tasks(cfg)[1])]
        store, faults, snapshot, info = merge_degraded(outcomes, plan)
        assert gathered_calls == [2]
        assert faults is None and snapshot is None
        assert (fingerprint(cfg, store), info) == \
            self.survivor_reference(cfg, lost=0)
        assert store.meta.n_machines == plan.specs[1].n_machines

    def test_tcp_campaign_losing_a_shard(self, gathered_calls):
        cfg = ExperimentConfig(days=1, seed=2005)
        faults = NetworkFaultPlan(
            [ShardHolderDrop(shard=1, after=15, times=None)], seed=2005)
        policy = CampaignPolicy(degraded_after=0.4, lease_timeout=1.0,
                                backoff_base=0.05, join_timeout=20.0,
                                max_regrants=1, allow_partial=True)
        t0 = time.perf_counter()
        result = run_experiment(cfg, shards=2,
                                net=fast_net(policy=policy, faults=faults))
        # The dropped holder is still reconnecting when the campaign
        # settles; it is terminated at once, not awaited for seconds.
        assert time.perf_counter() - t0 < 3.0
        assert [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-net-worker")] == []
        # the survivor and the re-simulated lost shard
        assert gathered_calls == [2]
        assert result.campaign.states == {0: health.DONE, 1: health.LOST}
        reference, info = self.survivor_reference(cfg, lost=1)
        assert info == DegradedMergeInfo(lost_shards=(1,), machines_lost=80,
                                         machines_total=169)
        assert result.degraded == info
        assert result_fingerprint(result) == reference
        assert len(result.store) == 4003


class TestNoReplay:
    def test_workers_build_and_simulate_only_their_labs(self, monkeypatch,
                                                        tmp_path):
        cfg = ExperimentConfig(days=2, seed=11)
        seq = run_experiment(cfg)
        assert seq.fleet._backend is not None
        benchmarked = []
        original = NBenchProbe.benchmark

        def counting(probe, spec):
            benchmarked.append(spec.machine_id)
            return original(probe, spec)

        monkeypatch.setattr(NBenchProbe, "benchmark", counting)
        plan = ShardPlan.build(TABLE1_LABS, 2)
        outcomes = [gather_shard(ShardTask(config=cfg, shard=spec,
                                           labs=tuple(TABLE1_LABS)))
                    for spec in plan.specs]
        for spec, outcome in zip(plan.specs, outcomes):
            assert len(outcome.fleet.machines) == spec.n_machines
            assert len(outcome.fleet.agents) == spec.n_machines
            assert len(outcome.fleet.specs) == len(seq.fleet.machines)
            assert outcome.last_iteration == len(outcome.gathered.powered) - 1
            assert outcome.last_iteration == seq.meta.iterations_scheduled - 1
        assert benchmarked == []
        assert (sum(o.fleet._backend.env.events_fired for o in outcomes)
                == seq.fleet._backend.env.events_fired)
        store, faults, snapshot = merge_outcomes(outcomes)
        assert benchmarked == [m.spec.machine_id for m in seq.fleet.machines]
        assert faults is None and snapshot is None
        assert (csv_bytes(store, tmp_path / "sh.csv")
                == csv_bytes(seq.store, tmp_path / "seq.csv"))
        assert store.meta.statics == seq.meta.statics


class TestGatheredEdges:
    def test_lost_iterations_draw_only_in_the_parent(self, gathered_calls):
        cfg = ExperimentConfig(days=2, seed=5,
                               ddc=DdcParams(coordinator_availability=0.5))
        seq = run_experiment(cfg)
        sharded = run_experiment(cfg, shards=2)
        assert gathered_calls == [2]
        assert seq.meta.iterations_run < seq.meta.iterations_scheduled
        assert result_fingerprint(sharded) == result_fingerprint(seq)

    def test_without_nbench(self, gathered_calls):
        cfg = ExperimentConfig(days=1, seed=11)
        seq = run_experiment(cfg, collect_nbench=False)
        sharded = run_experiment(cfg, collect_nbench=False, shards=2)
        assert gathered_calls == [2]
        assert all(math.isnan(s.nbench_int)
                   for s in sharded.meta.statics.values())
        assert result_fingerprint(sharded) == result_fingerprint(seq)

    def test_pass_with_one_shard_dark(self, gathered_calls):
        """Two one-machine labs share a shard; at some instants both are
        off while the other shard has machines on."""
        labs = (dataclasses.replace(TABLE1_LABS[0], n_machines=1),
                dataclasses.replace(TABLE1_LABS[1], n_machines=1),
                TABLE1_LABS[2])
        cfg = ExperimentConfig(days=2, seed=11)
        plan = ShardPlan.build(labs, 2)
        counts = {spec.n_machines: gather_shard(ShardTask(
            config=cfg, shard=spec, labs=labs)).gathered.powered.sum(axis=1)
            for spec in plan.specs}
        small, large = counts[2], counts[labs[2].n_machines]
        assert np.any((small == 0) & (large > 0))
        assert np.any(small > 0)
        seq = run_experiment(cfg, labs=labs)
        sharded = run_experiment(cfg, labs=labs, shards=2)
        assert gathered_calls == [2]
        assert result_fingerprint(sharded) == result_fingerprint(seq)


class TestGatheredMergeGuards:
    @pytest.fixture
    def outcomes(self):
        cfg = ExperimentConfig(days=1, seed=3)
        labs = tuple(TABLE1_LABS[:3])
        return [gather_shard(ShardTask(config=cfg, shard=spec, labs=labs))
                for spec in ShardPlan.build(labs, 2).specs]

    def test_overlapping_shards_rejected(self, outcomes):
        twin = dataclasses.replace(outcomes[0], shard_index=1)
        with pytest.raises(TraceFormatError, match="overlap"):
            merge_outcomes([outcomes[0], twin])

    def test_missing_shard_rejected(self, outcomes):
        with pytest.raises(TraceFormatError, match="cover"):
            merge_outcomes(outcomes[:1])

    def test_mixed_mechanisms_rejected(self, outcomes):
        """A shard that ships a replayed trace instead of its pass
        inputs is refused: every shard of a plan gathers."""
        replayed = dataclasses.replace(outcomes[1], gathered=None,
                                       store=TraceStore(None))
        with pytest.raises(TraceFormatError, match="no pass inputs"):
            merge_outcomes([outcomes[0], replayed])

"""Gathered shard runs equal the sequential run, and replay nothing.

A process-pool run eligible for the columnar pass splits the behaviour:
each worker simulates only its own labs and records their pass inputs,
and the parent runs the one columnar pass and NBench
(``repro.shard.gather``).  These tests pin that the result is the
sequential run's, seed after seed, and that no worker replays a foreign
machine or draws a stream the parent owns.

CI's ``fleet-scale`` job runs :func:`mismatching_seeds` over 24 seeds.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import DdcParams, ExperimentConfig
from repro.ddc.nbenchprobe import NBenchProbe
from repro.errors import TraceFormatError
from repro.experiment import run_experiment
from repro.machines.hardware import TABLE1_LABS
from repro.recovery.crashtest import result_fingerprint
from repro.shard.merge import merge_outcomes
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, gather_shard
from repro.sim.calendar import DAY, HOUR, AcademicCalendar

#: Seeds of the tier-1 sweep; 900101 is a seed where a behavioural event
#: ties a closing instant (the tick backend's known tie, reproduced by
#: both sides).
SWEEP_SEEDS = (2005, 200501, 900101)
#: A week from Monday 00:00: it crosses the Friday-night 04:00 closing
#: and the Saturday 21:00 closing.
SWEEP_DAYS = 7


def sweep_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(days=SWEEP_DAYS, seed=seed)


def mismatching_seeds(seeds, shards: int = 2):
    """Seeds whose ``shards``-shard fingerprint differs from the
    sequential run's, under the default kernel."""
    return [seed for seed in seeds
            if result_fingerprint(run_experiment(sweep_config(seed),
                                                 shards=shards))
            != result_fingerprint(run_experiment(sweep_config(seed)))]


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


@pytest.fixture
def gathered_calls(monkeypatch):
    """Counts the parent-side passes over gathered rows."""
    import repro.shard.merge as merge_mod

    calls = []
    original = merge_mod.collect_gathered

    def spy(outcomes):
        calls.append(len(outcomes))
        return original(outcomes)

    monkeypatch.setattr(merge_mod, "collect_gathered", spy)
    return calls


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
        cfg = ExperimentConfig(days=1, seed=11, kernel="object")
        sharded = run_experiment(cfg, shards=2)
        assert gathered_calls == []
        assert (csv_bytes(sharded.store, tmp_path / "sh.csv")
                == csv_bytes(run_experiment(cfg).store, tmp_path / "seq.csv"))

    def test_columnar_kernel_pool_gathers(self, gathered_calls):
        cfg = ExperimentConfig(days=1, seed=11, kernel="columnar")
        run_experiment(cfg, shards=2)
        assert gathered_calls == [2]


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
                                           labs=tuple(TABLE1_LABS),
                                           gather=True))
                    for spec in plan.specs]
        for spec, outcome in zip(plan.specs, outcomes):
            assert len(outcome.fleet.machines) == spec.n_machines
            assert len(outcome.fleet.agents) == spec.n_machines
            assert len(outcome.fleet.specs) == len(seq.fleet.machines)
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
            config=cfg, shard=spec, labs=labs,
            gather=True)).gathered.powered.sum(axis=1)
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
        return [gather_shard(ShardTask(config=cfg, shard=spec, labs=labs,
                                       gather=True))
                for spec in ShardPlan.build(labs, 2).specs]

    def test_overlapping_shards_rejected(self, outcomes):
        twin = dataclasses.replace(outcomes[0], shard_index=1)
        with pytest.raises(TraceFormatError, match="overlap"):
            merge_outcomes([outcomes[0], twin])

    def test_missing_shard_rejected(self, outcomes):
        with pytest.raises(TraceFormatError, match="cover"):
            merge_outcomes(outcomes[:1])

    def test_mixed_mechanisms_rejected(self, outcomes):
        replayed = dataclasses.replace(outcomes[1], gathered=None)
        with pytest.raises(TraceFormatError, match="mechanism"):
            merge_outcomes([outcomes[0], replayed])

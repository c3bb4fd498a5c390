"""Shard-parallel runs merge byte-identically to the sequential run.

The tentpole guarantee: for any shard count, the merged trace's CSV
export equals the sequential run's byte for byte -- plain runs and runs
with fault injection AND the resilience control plane both engaged.
CI's ``shard-equivalence`` job re-checks this at days=2, shards {1,2,4};
here we keep the runs short enough for the tier-1 suite.
"""

import dataclasses

import pytest

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.experiment import run_experiment
from repro.faults.scenarios import paper_like_plan
from repro.obs.observer import Observer
from repro.resilience.policy import ResiliencePolicy
from repro.shard.merge import merge_outcomes


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    cfg = ExperimentConfig(days=1, seed=11)
    result = run_experiment(cfg)
    path = tmp_path_factory.mktemp("seq") / "trace.csv"
    return cfg, result, csv_bytes(result.store, path)


class TestPlainEquivalence:
    def test_two_shards_merge_byte_identically(self, sequential, tmp_path):
        cfg, seq, seq_csv = sequential
        result = run_experiment(cfg, shards=2)
        assert csv_bytes(result.store, tmp_path / "sh2.csv") == seq_csv
        assert result.fleet is None and result.coordinator is None
        for name in ("n_machines", "attempts", "timeouts", "access_denied",
                     "samples_collected", "iterations_scheduled",
                     "iterations_run"):
            assert getattr(result.meta, name) == getattr(seq.meta, name), name
        assert result.meta.statics == seq.meta.statics

    def test_single_machine_lab_shard_merges(self, tmp_path):
        """A shard owning exactly one machine is a valid plan edge."""
        from repro.machines.hardware import TABLE1_LABS

        labs = (dataclasses.replace(TABLE1_LABS[0], n_machines=1),
                TABLE1_LABS[1], TABLE1_LABS[2])
        cfg = ExperimentConfig(days=1, seed=11)
        seq = run_experiment(cfg, labs=labs)
        seq_csv = csv_bytes(seq.store, tmp_path / "seq.csv")
        # LPT puts the 1-machine lab alone in the third shard
        sharded = run_experiment(cfg, labs=labs, shards=3)
        assert csv_bytes(sharded.store, tmp_path / "sh3.csv") == seq_csv
        assert sharded.meta.n_machines == seq.meta.n_machines

    def test_shards_kwarg_overrides_config(self, sequential, tmp_path):
        cfg, _, seq_csv = sequential
        result = run_experiment(cfg.replace(shards=3), shards=1)
        assert csv_bytes(result.store, tmp_path / "sh1.csv") == seq_csv
        assert result.coordinator is not None  # ran in-process

    def test_fault_free_retries_merge_byte_identically(self, tmp_path):
        """A foreign machine's retried timeouts advance the pass clock in
        the same float steps as the owning shard's (backoff, then the
        timeout), so later sample times agree to the last bit."""
        from repro.config import DdcParams
        from repro.machines.hardware import TABLE1_LABS

        cfg = ExperimentConfig(days=1, seed=1, ddc=DdcParams(
            retry_limit=2, retry_unreachable=True, retry_backoff=0.2,
            off_timeout=0.3))
        labs = TABLE1_LABS[:3]
        seq = run_experiment(cfg, labs=labs, collect_nbench=False)
        sharded = run_experiment(cfg, labs=labs, collect_nbench=False,
                                 shards=2)
        assert seq.meta.retries > 0
        assert (csv_bytes(sharded.store, tmp_path / "sh2.csv")
                == csv_bytes(seq.store, tmp_path / "seq.csv"))


class TestFaultResilienceEquivalence:
    """The hard case: fault hooks and the control plane both engaged."""

    def make(self):
        cfg = ExperimentConfig(days=1, seed=17)
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, resilience=ResiliencePolicy(), retry_limit=2))
        return cfg, paper_like_plan(cfg.horizon, labs=("L03",), seed=99)

    def test_two_shards_with_faults_and_resilience(self, tmp_path):
        cfg, plan = self.make()
        seq = run_experiment(cfg, faults=plan, strict_postcollect=False,
                             observer=Observer())
        seq_csv = csv_bytes(seq.store, tmp_path / "seq.csv")
        assert seq.meta.shed + seq.meta.breaker_skipped > 0
        assert seq.meta.retries > 0

        cfg2, plan2 = self.make()
        sharded = run_experiment(cfg2, faults=plan2, strict_postcollect=False,
                                 observer=Observer(), shards=2)
        assert csv_bytes(sharded.store, tmp_path / "sh2.csv") == seq_csv
        # resilience accounting identity reconciles on the merged meta
        m = sharded.meta
        assert (m.iterations_run * m.n_machines
                == m.attempts + m.shed + m.breaker_skipped)
        for name in ("shed", "breaker_skipped", "hedges", "hedge_wins",
                     "retries", "retries_recovered", "retries_skipped"):
            assert getattr(m, name) == getattr(seq.meta, name), name
        # the fault plans replayed identically and the ledger survives
        assert dict(sharded.faults.injected) == dict(plan.injected)
        # merged snapshot sums the owned-gated metrics back to sequential
        snap_seq = seq.observer.snapshot()
        snap = sharded.obs_snapshot
        assert snap is not None
        for name in ("ddc.samples", "ddc.timeouts", "ddc.access_denied",
                     "ddc.retries", "resilience.shed", "faults.injected"):
            assert snap.counter_total(name) == snap_seq.counter_total(name)


class TestShardGuards:
    def test_sequential_dir_refused_as_campaign(self, tmp_path):
        """recovery + shards>1 now runs a campaign -- but never on top
        of a flat sequential run directory's journals."""
        from repro.recovery import RecoveryConfig

        cfg = ExperimentConfig(days=1, seed=1)
        run_experiment(cfg, recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                                    fsync=False))
        with pytest.raises(CheckpointError, match="sequential"):
            run_experiment(
                cfg,
                recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                        fsync=False),
                shards=2,
            )

    def test_sharded_resume_needs_a_campaign_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="campaign manifest"):
            run_experiment(ExperimentConfig(days=1, seed=1),
                           resume_from=tmp_path / "run", shards=2)

    def test_fleet_factory_is_rejected(self):
        with pytest.raises(ValueError, match="fleet_factory"):
            run_experiment(ExperimentConfig(days=1, seed=1),
                           fleet_factory=lambda cfg, labs: None, shards=2)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(days=1, seed=1), shards=0)
        with pytest.raises(ValueError):
            ExperimentConfig(days=1, seed=1, shards=0)

    def test_merge_outcomes_rejects_empty(self):
        with pytest.raises(Exception):
            merge_outcomes([])

"""Shard-parallel experiment runtime.

Splits one monitoring experiment into N lab-aligned shards whose
outcomes merge into a trace byte-identical to the sequential run:

- :mod:`repro.shard.plan` partitions the lab catalog into
  machine-balanced, lab-aligned shards;
- :mod:`repro.shard.worker` runs one shard: only the shard's own labs,
  recording (and, under ``recovery=``, journaling) their pass inputs
  for the parent's one probing pass (:mod:`repro.shard.gather`);
- :mod:`repro.shard.merge` runs that pass over the shards' outcomes and
  combines their observability snapshots deterministically;
- :mod:`repro.shard.coordinator` is the campaign control plane that
  runs every ``shards>1`` run: one coordinator leases shards to workers
  it forks itself or to TCP workers (``net=``, :mod:`repro.shard.net`),
  with heartbeats, liveness deadlines, bounded regrant-with-backoff
  (from per-shard checkpoints under ``recovery=``) and
  PAUSE/RESUME/STOP steering (``docs/shard_recovery.md``,
  ``docs/distributed.md``).

``repro.experiment.run_experiment`` routes every run -- including the
sequential ``shards=1`` case -- through this plan/worker/merge pipeline;
see ``docs/sharding.md`` for the determinism argument.
"""

from repro.shard.coordinator import (
    CampaignCoordinator,
    CampaignPolicy,
    CampaignReport,
)
from repro.shard.merge import merge_outcomes
from repro.shard.plan import ShardPlan, ShardSpec
from repro.shard.worker import (
    ShardOutcome,
    ShardTask,
    execute_shard_task,
    resume_shard,
    run_shard,
)

__all__ = [
    "CampaignCoordinator",
    "CampaignPolicy",
    "CampaignReport",
    "ShardPlan",
    "ShardSpec",
    "ShardTask",
    "ShardOutcome",
    "execute_shard_task",
    "merge_outcomes",
    "resume_shard",
    "run_shard",
]

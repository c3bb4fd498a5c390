"""Deterministic recombination of shard outcomes.

The merge has three jobs, each with a loud failure mode instead of a
silently different trace:

- **samples** -- :meth:`repro.traces.store.TraceStore.merge` re-sorts
  the disjoint per-shard stores by ``(iteration, machine_id)``, which is
  exactly the sequential roster order, and refuses overlapping machines
  or disagreeing metas.  Gathered shards (:mod:`repro.shard.gather`;
  every fan-out without recovery that takes the columnar pass) have no
  stores: their recorded pass inputs go through the one columnar pass
  (:func:`repro.shard.worker.collect_gathered`), which emits the rows in
  roster order.  When a gathered campaign lost shards for good, that
  pass still needs their machines' powered states, so
  :func:`merge_degraded` re-simulates the lost labs here and keeps only
  the survivors' rows;
- **fault ledger** -- every shard replays the *full* fault plan (hooks
  see the whole fleet), so the per-shard injection ledgers must be
  identical; any disagreement means the shards diverged and is raised;
- **observability** -- :meth:`repro.obs.snapshot.ObsSnapshot.merge`
  combines per-shard snapshots under the policy below: owned-gated DDC
  metrics sum, wall-clock phase gauges take the parallel critical path
  (max), and everything replicated (engine, fleet, resilience,
  iteration-level DDC counters) is taken from the first shard.

The merged meta must satisfy the resilience accounting identity
``iterations_run * n_machines == attempts + shed + breaker_skipped``;
a violation is raised as :class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.faults.plan import FaultPlan
from repro.obs.snapshot import ObsSnapshot
from repro.shard.plan import ShardSpec
from repro.shard.worker import (
    ShardOutcome,
    ShardTask,
    collect_gathered,
    gather_shard,
)
from repro.traces.store import TraceStore

__all__ = ["SUM_METRICS", "MAX_GAUGES", "merge_outcomes",
           "DegradedMergeInfo", "merge_degraded"]

#: Metrics each shard observed for a disjoint slice of the fleet (gated
#: on lab ownership in the coordinator and executor): summed on merge.
SUM_METRICS = frozenset({
    "ddc.timeouts",
    "ddc.access_denied",
    "ddc.samples",
    "ddc.parse_failures",
    "ddc.retries",
    "ddc.retries_recovered",
    "ddc.retries_skipped",
    "ddc.lab_pass_seconds",
    "ddc.exec_latency_seconds",
})

#: Per-shard wall-clock gauges; the merged value is the slowest shard,
#: i.e. the parallel critical path.
MAX_GAUGES = frozenset({"experiment.phase_seconds"})


def merge_outcomes(
    outcomes: Sequence[ShardOutcome],
    *,
    lost: Sequence[ShardSpec] = (),
) -> Tuple[TraceStore, Optional[FaultPlan], Optional[ObsSnapshot]]:
    """Merge shard outcomes into ``(store, faults, snapshot)``.

    ``lost`` names the shards of the plan that ``outcomes`` lacks
    because a campaign lost them for good (:func:`merge_degraded`);
    gathered outcomes re-simulate them for the pass.

    Raises
    ------
    TraceFormatError
        On zero outcomes, disagreeing metas or fault ledgers,
        overlapping machine ownership, mixed instrumentation or
        mechanisms, or a merged meta violating the accounting identity.
    """
    if not outcomes:
        raise TraceFormatError("cannot merge zero shard outcomes")
    ordered = sorted(outcomes, key=lambda o: o.shard_index)
    gathered = sum(o.gathered is not None for o in ordered)
    if gathered == len(ordered):
        store = _collect_gathered(ordered, lost)
    elif gathered:
        raise TraceFormatError(
            "some shards gathered pass inputs and some collected traces; "
            "a plan's shards must all take one mechanism"
        )
    else:
        store = TraceStore.merge([o.store for o in ordered])
    meta = store.meta
    if meta is not None:
        covered = meta.attempts + meta.shed + meta.breaker_skipped
        expected = meta.iterations_run * meta.n_machines
        if covered != expected:
            raise TraceFormatError(
                f"merged accounting identity broken: iterations_run * "
                f"n_machines = {expected} but attempts + shed + "
                f"breaker_skipped = {covered}; a shard lost or "
                f"double-counted machine slots"
            )
    faults = _merge_faults(ordered)
    snapshot = _merge_snapshots(ordered)
    return store, faults, snapshot


def _collect_gathered(ordered: Sequence[ShardOutcome],
                      lost: Sequence[ShardSpec]) -> TraceStore:
    """The one pass over gathered shards, with the survivors' rows only
    when the plan lost shards.

    The pass needs every machine's powered state, so each lost shard's
    labs are simulated again here, as a full-replay worker simulates
    every foreign lab; the pass and NBench then keep the labs the
    survivors own.
    """
    if not lost:
        return collect_gathered(ordered)
    first = ordered[0]
    labs = first.gathered.labs
    stand_ins = [
        gather_shard(ShardTask(config=first.config, shard=spec, labs=labs,
                               collect_nbench=first.gathered.collect_nbench,
                               gather=True))
        for spec in lost
    ]
    lost_labs = {name for spec in lost for name in spec.labs}
    return collect_gathered(
        sorted([*ordered, *stand_ins], key=lambda o: o.shard_index),
        owned_labs=frozenset(lab.name for lab in labs) - lost_labs,
    )


def _merge_faults(ordered: Sequence[ShardOutcome]) -> Optional[FaultPlan]:
    """First shard's plan, after checking every ledger agrees."""
    first = ordered[0].faults
    reference = None if first is None else dict(first.injected)
    for outcome in ordered[1:]:
        ledger = (None if outcome.faults is None
                  else dict(outcome.faults.injected))
        if ledger != reference:
            raise TraceFormatError(
                f"shard {outcome.shard_index} disagrees on the fault "
                f"injection ledger ({ledger!r} != shard "
                f"{ordered[0].shard_index}'s {reference!r}); the plans "
                "did not replay identically"
            )
    return first


def _merge_snapshots(
    ordered: Sequence[ShardOutcome],
) -> Optional[ObsSnapshot]:
    """Merged snapshot, requiring all-or-none instrumentation."""
    snapshots: List[ObsSnapshot] = [
        o.snapshot for o in ordered if o.snapshot is not None
    ]
    if not snapshots:
        return None
    if len(snapshots) != len(ordered):
        raise TraceFormatError(
            "some shards returned observability snapshots and some did "
            "not; instrumentation must be uniform across the plan"
        )
    return ObsSnapshot.merge(snapshots, sum_metrics=SUM_METRICS,
                             max_gauges=MAX_GAUGES)


# ----------------------------------------------------------------------
# Degraded merge: settle a campaign that permanently lost shards
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DegradedMergeInfo:
    """Explicit accounting of what a degraded merge does *not* cover.

    A partial trace silently passed off as complete would poison every
    downstream rate (the paper's usage percentages normalise over the
    roster), so the degraded merge returns this record alongside the
    artefacts and the campaign manifest pins the same facts
    (``partial`` / ``lost_shards``).
    """

    #: Shards excluded from the merge, ascending.
    lost_shards: Tuple[int, ...]
    #: Machines those shards owned -- absent from the merged trace.
    machines_lost: int
    #: Roster size of the full plan, for normalisation.
    machines_total: int

    @property
    def coverage(self) -> float:
        """Fraction of the roster the merged trace covers."""
        if self.machines_total == 0:
            return 0.0
        return 1.0 - self.machines_lost / self.machines_total


def merge_degraded(
    outcomes: Sequence[Optional[ShardOutcome]],
    plan,
) -> Tuple[TraceStore, Optional[FaultPlan], Optional[ObsSnapshot],
           DegradedMergeInfo]:
    """Merge the surviving shards of a campaign that lost some.

    ``outcomes`` is positional over ``plan.specs`` (ordered by shard
    index) with ``None`` holes where a shard was permanently lost; the
    surviving outcomes merge under exactly the strict rules of
    :func:`merge_outcomes` -- the accounting identity still holds over
    the survivors because the merged meta's ``n_machines`` sums only
    *their* rosters.  Gathered survivors cannot pass over their own
    rows alone: the lost shards' labs are re-simulated in this process
    and the one pass keeps the survivors' rows, byte-identical to what
    full-replay survivors would have merged.  The returned
    :class:`DegradedMergeInfo` makes the exclusion explicit; it is never
    inferred from a shorter trace.

    Raises
    ------
    TraceFormatError
        When no shard survived (an empty campaign is a failure, not a
        degraded result), when ``outcomes`` does not line up with the
        plan, or on any :func:`merge_outcomes` violation among the
        survivors.
    """
    specs = list(plan.specs)
    if len(outcomes) != len(specs):
        raise TraceFormatError(
            f"degraded merge got {len(outcomes)} outcome slots for a "
            f"{len(specs)}-shard plan; lost shards must be explicit "
            "None holes, not omissions"
        )
    survivors: List[ShardOutcome] = []
    lost: List[int] = []
    for spec, outcome in zip(specs, outcomes):
        if outcome is None:
            lost.append(spec.index)
        else:
            if outcome.shard_index != spec.index:
                raise TraceFormatError(
                    f"degraded merge slot for shard {spec.index} holds "
                    f"shard {outcome.shard_index}'s outcome"
                )
            survivors.append(outcome)
    if not survivors:
        raise TraceFormatError(
            "degraded merge with zero surviving shards: an empty "
            "campaign has no result"
        )
    store, faults, snapshot = merge_outcomes(
        survivors, lost=[s for s in specs if s.index in lost])
    info = DegradedMergeInfo(
        lost_shards=tuple(lost),
        machines_lost=sum(s.n_machines for s in specs
                          if s.index in set(lost)),
        machines_total=sum(s.n_machines for s in specs),
    )
    return store, faults, snapshot, info

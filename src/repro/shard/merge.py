"""Deterministic recombination of shard outcomes.

Every shard of a plan gathers (:mod:`repro.shard.gather`): its worker
ships the pass inputs it recorded, not a trace.  The merge has two jobs,
each with a loud failure mode instead of a silently different trace:

- **samples** -- the shards' recorded rows go through the one probing
  pass (:func:`repro.shard.worker.collect_gathered`), which emits the
  rows in roster order and runs the fault plan, the resilience control
  plane and retries once.  When a campaign lost shards for good, that
  pass still needs their machines' powered states, so
  :func:`merge_degraded` re-simulates the lost labs here and keeps only
  the survivors' rows;
- **observability** -- an instrumented plan's pass runs on an observer
  of this process, and :meth:`repro.obs.snapshot.ObsSnapshot.merge`
  combines the workers' snapshots, in shard order, with it: counters
  and histograms sum, gauges take the maximum.  The DDC metrics come
  from the parent alone; the engine and agent metrics from the workers.

The merged meta must satisfy the resilience accounting identity
``iterations_run * n_machines == attempts + shed + breaker_skipped``;
a violation is raised as :class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.faults.plan import FaultPlan
from repro.obs.observer import Observer
from repro.obs.snapshot import ObsSnapshot
from repro.shard.plan import ShardSpec
from repro.shard.worker import (
    ShardOutcome,
    ShardTask,
    collect_gathered,
    gather_shard,
)
from repro.traces.store import TraceStore

__all__ = ["merge_outcomes", "DegradedMergeInfo", "merge_degraded"]


def merge_outcomes(
    outcomes: Sequence[ShardOutcome],
    *,
    lost: Sequence[ShardSpec] = (),
) -> Tuple[TraceStore, Optional[FaultPlan], Optional[ObsSnapshot]]:
    """Run the one pass over shard outcomes: ``(store, faults, snapshot)``.

    ``faults`` is the plan the pass ran with, its injection ledger
    filled.  ``lost`` names the shards of the plan that ``outcomes``
    lacks because a campaign lost them for good (:func:`merge_degraded`);
    they are re-simulated for the pass.  The pass consumes the
    outcomes' recorded rows.

    Raises
    ------
    TraceFormatError
        On zero outcomes, an outcome without recorded rows, shards that
        shipped different settings or fault ledgers, overlapping or
        missing machines, mixed instrumentation, or a merged meta
        violating the accounting identity.
    """
    if not outcomes:
        raise TraceFormatError("cannot merge zero shard outcomes")
    ordered = sorted(outcomes, key=lambda o: o.shard_index)
    empty = [o.shard_index for o in ordered if o.gathered is None]
    if empty:
        raise TraceFormatError(
            f"shards {empty} returned no pass inputs: every shard of a "
            "plan gathers, the one fan-out mechanism"
        )
    shipped = [(o.gathered.labs, o.gathered.collect_nbench,
                o.gathered.strict_postcollect, o.gathered.faults and
                (o.gathered.faults.seed, dict(o.gathered.faults.injected)))
               for o in ordered]
    if any(settings != shipped[0] for settings in shipped):
        raise TraceFormatError(
            "shards shipped different pass settings (lab catalog, NBench, "
            "post-collect strictness, or fault plan and its ledger); the "
            "one pass runs one task's, with one ledger"
        )
    snapshots = [o.snapshot for o in ordered if o.snapshot is not None]
    if snapshots and len(snapshots) != len(ordered):
        raise TraceFormatError(
            "some shards returned observability snapshots and some did "
            "not; instrumentation must be uniform across the plan"
        )
    observer = Observer() if snapshots else None
    store = _collect_gathered(ordered, lost, observer)
    meta = store.meta
    covered = meta.attempts + meta.shed + meta.breaker_skipped
    expected = meta.iterations_run * meta.n_machines
    if covered != expected:
        raise TraceFormatError(
            f"merged accounting identity broken: iterations_run * "
            f"n_machines = {expected} but attempts + shed + "
            f"breaker_skipped = {covered}; a shard lost or "
            f"double-counted machine slots"
        )
    snapshot = (None if observer is None
                else ObsSnapshot.merge([*snapshots, observer.snapshot()]))
    return store, ordered[0].gathered.faults, snapshot


def _collect_gathered(ordered: Sequence[ShardOutcome],
                      lost: Sequence[ShardSpec],
                      observer: Optional[Observer]) -> TraceStore:
    """The one pass over gathered shards, with the survivors' rows only
    when the plan lost shards.

    The pass needs every machine's powered state, so each lost shard's
    labs are simulated again here; the pass and NBench then keep the
    labs the survivors own.
    """
    if not lost:
        return collect_gathered(ordered, observer=observer)
    first = ordered[0]
    rows = first.gathered
    stand_ins = [
        gather_shard(ShardTask(config=first.config, shard=spec,
                               labs=rows.labs,
                               collect_nbench=rows.collect_nbench,
                               strict_postcollect=rows.strict_postcollect,
                               faults=rows.faults))
        for spec in lost
    ]
    lost_labs = {name for spec in lost for name in spec.labs}
    return collect_gathered(
        sorted([*ordered, *stand_ins], key=lambda o: o.shard_index),
        owned_labs=frozenset(lab.name for lab in rows.labs) - lost_labs,
        observer=observer,
    )


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
    the survivors because the merged meta's ``n_machines`` counts only
    *their* machines.  Survivors cannot pass over their own rows alone:
    the lost shards' labs are re-simulated in this process and the one
    pass keeps the sequential run's rows and counters of the survivors'
    machines.  The returned
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

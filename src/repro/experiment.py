"""End-to-end monitoring experiment runner.

Ties the substrate together the way the authors ran theirs: a
:class:`~repro.sim.fleet.FleetSimulator` hosting the classrooms, a
:class:`~repro.ddc.coordinator.DdcCoordinator` probing them with
:class:`~repro.ddc.w32probe.W32Probe` every 15 minutes, and an NBench
pass to collect the per-machine performance indexes.

>>> from repro.experiment import run_experiment
>>> from repro.config import ExperimentConfig
>>> result = run_experiment(ExperimentConfig(days=2, seed=1))
>>> result.store is not None
True

A paper-scale run is ``run_experiment(paper_config())`` -- 77 days, 169
machines, ~600k samples, a few seconds of wall time on the default
columnar kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import compat
from repro.config import ExperimentConfig, paper_config
from repro.ddc.coordinator import DdcCoordinator
from repro.errors import CheckpointError
from repro.faults.plan import FaultPlan
from repro.obs.observer import Observer, maybe_phase
from repro.obs.snapshot import ObsSnapshot
from repro.machines.hardware import TABLE1_LABS, LabSpec
from repro.recovery.manifest import (
    CampaignManifest,
    is_campaign_dir,
    load_campaign_state,
    write_campaign_state,
)
from repro.recovery.runtime import (
    RecoveryConfig,
    RecoveryInfo,
    fresh_runtime,
    run_dir_in_use,
)
from repro.resilience.policy import ResiliencePolicy
from repro.shard.coordinator import (
    CampaignCoordinator,
    CampaignPolicy,
    CampaignReport,
)
from repro.shard.merge import DegradedMergeInfo, merge_degraded, merge_outcomes
from repro.shard.net.config import NetConfig
from repro.shard.net.worker import local_worker_id, spawn_local_workers
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardOutcome, ShardTask, resume_shard, run_shard
from repro.sim.fleet import FleetSimulator
from repro.traces.columnar import ColumnarTrace
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore

__all__ = ["MonitoringResult", "run_experiment", "run_paper_experiment"]


@dataclass
class MonitoringResult:
    """Everything a finished monitoring experiment produced.

    Attributes
    ----------
    config:
        The configuration the run used.
    fleet:
        The fleet simulator (holds ground-truth machine logs).  ``None``
        after a sharded run: the fleets lived in worker processes.
    coordinator:
        The DDC coordinator (attempt/timeout accounting); ``None`` after
        a sharded run -- the merged accounting is on :attr:`meta`.
    store:
        The collected trace.
    faults:
        The fault plan the run used (``None`` for a fault-free run).
    observer:
        The observer the run was instrumented with (``None`` when
        uninstrumented); export it with ``observer.snapshot()``.  A
        sharded run instruments each worker and its own probing pass
        separately and returns the merged :attr:`obs_snapshot` instead.
    recovery:
        Summary of what the crash-safe persistence layer did (``None``
        for a run without recovery plumbing): checkpoints written,
        journal segments sealed, replay verification counts and any
        quarantine ledger entries.
    obs_snapshot:
        The workers' observability snapshots merged with the probing
        pass's (sharded, instrumented runs only; single-shard runs
        snapshot their live ``observer``).
    campaign:
        :class:`~repro.shard.coordinator.CampaignReport` of a sharded
        run (every ``shards>1`` run is a campaign): per-shard health
        states, lease regrant counts, heartbeats, recovery summaries and
        lost shards (``None`` for a sequential run).
    degraded:
        :class:`~repro.shard.merge.DegradedMergeInfo` when a campaign
        run with ``allow_partial`` permanently lost shards and concluded
        through the degraded merge: which shards are excluded and how
        much of the roster the trace covers.  ``None`` for every
        complete run -- check this (or the manifest's ``partial`` flag)
        before treating the trace as roster-complete.
    """

    config: ExperimentConfig
    fleet: Optional[FleetSimulator]
    coordinator: Optional[DdcCoordinator]
    store: TraceStore
    faults: Optional[FaultPlan] = None
    observer: Optional[Observer] = None
    recovery: Optional[RecoveryInfo] = None
    obs_snapshot: Optional[ObsSnapshot] = None
    campaign: Optional[CampaignReport] = None
    degraded: Optional[DegradedMergeInfo] = None

    @cached_property
    def trace(self) -> ColumnarTrace:
        """Columnar view of the trace (built lazily, cached)."""
        with maybe_phase(self.observer, "columnarise"):
            return ColumnarTrace(self.store)

    @property
    def meta(self) -> TraceMeta:
        """The trace's experiment metadata."""
        assert self.store.meta is not None
        return self.store.meta


def run_experiment(
    config: Optional[ExperimentConfig] = None,
    *,
    labs: Sequence[LabSpec] = TABLE1_LABS,
    collect_nbench: bool = True,
    strict_postcollect: bool = True,
    fleet_factory=None,
    faults: Optional[FaultPlan] = None,
    observer: Optional[Observer] = None,
    recovery: Optional[RecoveryConfig] = None,
    resume_from: Optional[Union[str, Path, RecoveryConfig]] = None,
    resilience: Optional[ResiliencePolicy] = None,
    shards: Optional[int] = None,
    supervise: Optional[CampaignPolicy] = None,
    net: Optional[NetConfig] = None,
) -> MonitoringResult:
    """Run a full monitoring experiment and return its artefacts.

    Parameters
    ----------
    config:
        Experiment configuration; defaults to the calibrated paper setup.
    labs:
        Lab catalog (Table 1 by default).
    collect_nbench:
        Whether to run the NBench probe per machine and attach the
        indexes to the trace's static info (needed by Fig. 6).
    strict_postcollect:
        Propagate probe parse errors instead of dropping bad reports.
    fleet_factory:
        ``callable(config, labs) -> FleetSimulator`` override; the
        baseline fleets (corporate, servers, Unix lab) plug in here.
    faults:
        Fault-injection plan wired through the coordinator and executor
        (see :mod:`repro.faults`).  Pair non-trivial plans containing
        :class:`~repro.faults.scenarios.StdoutCorruption` with
        ``strict_postcollect=False`` so garbled reports are dropped, not
        raised.
    observer:
        :class:`repro.obs.Observer` threaded into every layer (engine,
        coordinator, executor, agents).  Wall-clock phase timings land in
        ``experiment.phase_seconds`` gauges; with a fault plan attached,
        the plan's injection ledger is copied into ``faults.injected``
        counters so an exported snapshot is self-contained.  ``None`` or
        a :class:`~repro.obs.NullObserver` reproduces pre-observability
        output byte for byte.
    recovery:
        :class:`repro.recovery.RecoveryConfig` enabling the crash-safe
        persistence layer: every pass's rows are journaled as one
        record before the checkpoint that covers them, and the full
        simulation state is checkpointed every N iterations into
        ``recovery.run_dir``.  Like ``faults`` and ``observer``, ``None``
        leaves the hot path hook-free and the output bitwise-identical.
    resume_from:
        Run directory (or :class:`~repro.recovery.RecoveryConfig`) of a
        crashed recovery-enabled run.  The latest valid checkpoint is
        loaded, the journal tail is CRC-verified (corrupt or torn
        segments are quarantined, not crashed on; a journal of another
        format version raises :class:`~repro.errors.JournalError` before
        anything moves) and the simulation
        continues to the horizon; the regenerated iterations are checked
        against the journaled digests.  Mutually exclusive with
        ``recovery``.  A sequential directory resumes as the single
        all-labs shard (:func:`repro.shard.worker.resume_shard`): the
        config, fault plan and observer come from the checkpoint, and a
        ``config`` passed here must digest-match the checkpointed one;
        when no checkpoint survived, the cold restart rebuilds the run
        from ``config`` (or :func:`~repro.config.paper_config`),
        ``labs``, ``faults``, ``fleet_factory`` and ``observer``.
        A directory holding a campaign manifest (a ``shards>1`` run
        collected with ``recovery=``) resumes the *whole campaign*:
        every shard continues from its own checkpoint on the campaign
        coordinator and the merged result is byte-identical to the
        uninterrupted run (``docs/shard_recovery.md``).
    resilience:
        Convenience for attaching a
        :class:`~repro.resilience.ResiliencePolicy` without rebuilding
        the config: replaces ``config.ddc.resilience`` before the run.
        ``None`` (default) engages nothing -- traces stay bit-identical
        to pre-resilience builds.  Not accepted together with
        ``resume_from``: a resumed run's policy (and live control-plane
        state) comes from the checkpoint.
    shards:
        Number of lab-aligned worker processes collecting the run
        (``None`` defers to ``config.shards``, default 1).  Every value
        routes through the same :mod:`repro.shard` plan/worker/merge
        pipeline: ``shards=1`` runs the single all-labs shard in-process
        (the classic sequential run, byte for byte), ``shards>1`` is a
        *campaign* on :class:`~repro.shard.coordinator.CampaignCoordinator`,
        which leases the shards to worker processes it forks (or to TCP
        workers with ``net``) under heartbeats, liveness deadlines and
        bounded regrant -- a dead worker's shard re-runs -- and merges a
        trace byte-identical to the sequential one.  Each worker
        simulates only its own labs, and this process runs the one
        probing pass -- with the fault plan, resilience policy, retries
        and the observer's DDC metrics -- and NBench
        (``docs/sharding.md``).  With ``recovery`` each shard
        journals and checkpoints into its own ``<run_dir>/shard-<k>/``
        namespace under a shared campaign manifest, a regranted shard
        resumes from its *own* checkpoint while healthy shards keep
        running, and ``resume_from=<run_dir>`` resumes the whole
        campaign.  Incompatible with ``fleet_factory`` (workers rebuild
        fleets from the config in their own processes).
    supervise:
        A :class:`~repro.shard.coordinator.CampaignPolicy` tuning the
        forked workers' campaign of a ``shards>1`` run or a campaign
        resume (deadlines, regrant budget, backoff); ``None`` takes the
        default policy.  Anything else raises :class:`TypeError`.
    net:
        Run the campaign coordinator with **TCP** workers
        (:mod:`repro.shard.net`) instead of forked ones: the campaign
        process listens on ``net.endpoint`` and workers connect to it
        (spawned locally with ``net.spawn_workers``, or externally via
        ``repro worker``).  Liveness, bounded regrant, steering,
        manifest mirroring and resume-from-checkpoint over reconnect
        work exactly as for forked workers, and they gather as forked
        workers do; ``net.policy`` defaults to completing degraded when
        a shard is lost (the campaign re-simulates the lost labs here
        for its one pass and keeps the survivors' rows).  With ``recovery``
        the run is a full campaign directory.  Mutually exclusive with
        ``supervise`` (tune it with ``net.policy``), ``fleet_factory``
        and ``resume_from``; requires ``shards >= 2``.  See
        ``docs/distributed.md``.

    Combinations that cannot work together are rejected by the
    :mod:`repro.compat` table before anything touches the filesystem.
    """
    if supervise is not None and not isinstance(supervise, CampaignPolicy):
        raise TypeError(
            f"supervise= takes a CampaignPolicy or None, not "
            f"{supervise!r}: every sharded run now runs on the campaign "
            "coordinator, so there is nothing left to switch on"
        )
    cfg = config or paper_config()
    if resilience is not None:
        cfg = cfg.replace(
            ddc=dataclasses.replace(cfg.ddc, resilience=resilience)
        )
    n_shards = cfg.shards if shards is None else shards
    on = compat.switches(
        columnar=cfg.kernel == "columnar",
        one_shard=n_shards < 2,
        sharded=n_shards > 1,
        resume=resume_from is not None,
        recovery=recovery is not None,
        resilience=resilience is not None,
        policy=cfg.ddc.resilience is not None,
        net=net is not None,
        supervise=supervise is not None,
        fleet_factory=fleet_factory is not None,
        faults=faults is not None and not faults.empty,
        observer=observer is not None and observer.enabled,
        retries=cfg.ddc.retry_limit != 0,
    )
    compat.check(on)
    # A sequential run, fresh or resumed, is the single all-labs shard.
    single = ShardTask(
        config=cfg, shard=ShardPlan.build(labs, 1).specs[0],
        labs=tuple(labs), collect_nbench=collect_nbench,
        strict_postcollect=strict_postcollect, faults=faults,
    )
    if resume_from is not None:
        rcfg = (resume_from if isinstance(resume_from, RecoveryConfig)
                else RecoveryConfig(run_dir=resume_from))
        if is_campaign_dir(rcfg.run_dir):
            return _resume_campaign(
                rcfg, config,
                requested_shards=shards,
                observer=observer,
                policy=supervise,
            )
        if n_shards > 1:
            raise CheckpointError(
                f"{rcfg.run_dir} holds no campaign manifest: the journal "
                "and checkpoints describe one sequential process; resume "
                "it with shards=1 (only a run collected with shards>1 "
                "and recovery= resumes as a sharded campaign)"
            )
        # config=None adopts the checkpointed configuration.
        task = dataclasses.replace(single, config=config, recovery=rcfg,
                                   resume=True)
        return _in_process_result(resume_shard(
            task, observer=observer, fleet_factory=fleet_factory))
    if n_shards < 1:
        raise ValueError("shards must be at least 1")
    if n_shards == 1:
        runtime = fresh_runtime(recovery) if recovery is not None else None
        return _in_process_result(run_shard(
            single, observer=observer, fleet_factory=fleet_factory,
            runtime=runtime))
    plan = ShardPlan.build(labs, n_shards)
    instrument = observer is not None and observer.enabled
    tasks = [dataclasses.replace(single, shard=spec, instrument=instrument)
             for spec in plan.specs]
    manifest = None
    if recovery is not None:
        manifest, tasks = _lay_out_campaign(
            cfg, plan, tasks,
            recovery=recovery, labs=labs, faults=faults,
            collect_nbench=collect_nbench,
            strict_postcollect=strict_postcollect,
            instrument=instrument,
        )
    return _run_campaign(
        cfg, plan, tasks, policy=supervise, net=net,
        run_dir=recovery.run_dir if recovery is not None else None,
        manifest=manifest, observer=observer)


def _in_process_result(outcome: ShardOutcome) -> MonitoringResult:
    """The result of the single all-labs shard, run in this process."""
    return MonitoringResult(config=outcome.config, fleet=outcome.fleet,
                            coordinator=outcome.coordinator,
                            store=outcome.store, faults=outcome.faults,
                            observer=outcome.observer,
                            recovery=outcome.recovery)


def _lay_out_campaign(
    cfg: ExperimentConfig,
    plan: ShardPlan,
    tasks: Sequence[ShardTask],
    *,
    recovery: RecoveryConfig,
    labs: Sequence[LabSpec],
    faults: Optional[FaultPlan],
    collect_nbench: bool,
    strict_postcollect: bool,
    instrument: bool,
):
    """Lay out a fresh campaign directory; returns ``(manifest, tasks)``.

    Shared by both worker sources: validates the run directory is
    genuinely fresh, writes ``manifest.json`` +
    ``campaign.pkl``, and namespaces every task's recovery config into
    its own ``shard-<k>/`` directory.
    """
    from repro.recovery.checkpoint import config_digest

    if recovery.crash_shard is not None \
            and recovery.crash_shard >= len(plan.specs):
        raise ValueError(
            f"crash_shard={recovery.crash_shard} is out of range for "
            f"{len(plan.specs)} shards"
        )
    if is_campaign_dir(recovery.run_dir):
        raise CheckpointError(
            f"{recovery.run_dir} already holds a campaign manifest; pass "
            "resume_from= to continue that campaign, or choose a fresh "
            "directory"
        )
    if run_dir_in_use(recovery):
        raise CheckpointError(
            f"{recovery.run_dir} already holds a sequential run's journal "
            "or checkpoints; a campaign cannot share its directory -- "
            "resume it with shards=1, or choose a fresh directory"
        )
    manifest = CampaignManifest.fresh(
        recovery.run_dir, config_digest=config_digest(cfg), plan=plan
    )
    manifest.write(recovery.run_dir)
    # The fault plan is pickled pristine: workers mutate their own
    # unpickled copies, never this one.
    write_campaign_state(
        recovery.run_dir, config=cfg, labs=labs, faults=faults,
        collect_nbench=collect_nbench,
        strict_postcollect=strict_postcollect, instrument=instrument,
    )
    tasks = [
        dataclasses.replace(t, recovery=recovery.for_shard(t.shard.index))
        for t in tasks
    ]
    return manifest, tasks


def _run_campaign(
    cfg: ExperimentConfig,
    plan: ShardPlan,
    tasks: Sequence[ShardTask],
    *,
    policy: Optional[CampaignPolicy],
    net: Optional[NetConfig],
    run_dir: Optional[Path],
    manifest: Optional[CampaignManifest],
    observer: Optional[Observer],
) -> MonitoringResult:
    """Drive shard tasks on the campaign coordinator and merge them.

    Without ``net`` the coordinator forks its own workers; with it, the
    coordinator listens on ``net.endpoint`` for TCP workers -- spawned
    locally when ``net.spawn_workers`` is set, or attached externally
    with ``repro worker``.  Lost shards (regrant budget exhausted under
    ``allow_partial``) conclude through the degraded merge with an
    explicit :class:`~repro.shard.merge.DegradedMergeInfo`.
    """
    if net is not None:
        policy = net.policy or CampaignPolicy(allow_partial=True)
    coordinator = CampaignCoordinator(
        tasks,
        endpoint=net.endpoint if net is not None else None,
        policy=policy,
        observer=observer,
        manifest=manifest,
        run_dir=run_dir,
        faults=net.faults if net is not None else None,
    )
    procs = []
    try:
        if net is not None and net.spawn_workers:
            procs = spawn_local_workers(
                coordinator.endpoint, net.spawn_workers,
                policy=net.worker_policy,
            )
        outcomes = coordinator.run()
    finally:
        # A worker that held no connection at shutdown never got Bye: it
        # is reconnecting to the closed listener and would only give up
        # when its connect budget ran out.  Terminate it at once.
        for index, proc in enumerate(procs):
            if local_worker_id(index) not in coordinator.dismissed:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
    degraded = None
    if coordinator.lost_shards:
        store, merged_faults, snapshot, degraded = merge_degraded(
            outcomes, plan
        )
        # The manifest already concluded as "degraded" with the partial
        # flag and lost-shard list pinned by the coordinator.
    else:
        store, merged_faults, snapshot = merge_outcomes(outcomes)
        if manifest is not None and run_dir is not None:
            manifest.state = "merged"
            manifest.refresh_watermark()
            manifest.write(run_dir)
    return MonitoringResult(config=cfg, fleet=None, coordinator=None,
                            store=store, faults=merged_faults,
                            observer=None, obs_snapshot=snapshot,
                            campaign=coordinator.report(),
                            degraded=degraded)


def _resume_campaign(
    rcfg: RecoveryConfig,
    config: Optional[ExperimentConfig],
    *,
    requested_shards: Optional[int],
    observer: Optional[Observer],
    policy: Optional[CampaignPolicy],
) -> MonitoringResult:
    """Resume a whole campaign: every shard from its own checkpoint.

    Shards that already sealed their journal replay the checkpointed
    tail under digest verification and regenerate their trace; shards
    that crashed mid-run continue from their last checkpoint.  The
    merged result is byte-identical to the uninterrupted run.
    """
    from repro.recovery.checkpoint import config_digest

    manifest = CampaignManifest.load(rcfg.run_dir)
    state = load_campaign_state(rcfg.run_dir)
    if config is not None and config_digest(config) != manifest.config_digest:
        raise CheckpointError(
            f"configuration mismatch: resume was given a config whose "
            f"digest {config_digest(config)[:12]}... differs from the "
            f"campaign manifest's {manifest.config_digest[:12]}...; "
            "resuming it would silently diverge"
        )
    if requested_shards is not None and requested_shards > 1 \
            and requested_shards != manifest.n_shards:
        raise CheckpointError(
            f"the campaign was collected with {manifest.n_shards} shards "
            f"and cannot be resumed with {requested_shards}: the shard "
            "plan (and every journal) is partitioned per shard"
        )
    cfg: ExperimentConfig = state["config"]
    plan = ShardPlan.build(state["labs"], manifest.n_shards)
    manifest.verify_plan(plan)
    # Reset the advisory status columns for the new generation; durable
    # progress (last_iteration) is kept.
    manifest.state = "running"
    for status in manifest.shards.values():
        status.state = "pending"
        status.completed = False
        status.restarts = 0
    tasks = [
        ShardTask(
            config=cfg, shard=spec, labs=state["labs"],
            collect_nbench=state["collect_nbench"],
            strict_postcollect=state["strict_postcollect"],
            faults=state["faults"], instrument=state["instrument"],
            recovery=rcfg.for_shard(spec.index), resume=True,
        )
        for spec in plan.specs
    ]
    return _run_campaign(cfg, plan, tasks, policy=policy, net=None,
                         run_dir=rcfg.run_dir, manifest=manifest,
                         observer=observer)


def run_paper_experiment(seed: int = 2005) -> MonitoringResult:
    """The paper's 77-day, 169-machine experiment with default calibration."""
    return run_experiment(paper_config(seed=seed))

"""One shard's run, by either of two mechanisms.

**Full replay** (:func:`run_shard`).  The worker rebuilds the *entire*
experiment from the shared root seed -- full fleet, full calendar, full
DDC pass structure -- so that every random stream advances exactly as
in the sequential run, and *materialises* results only for the labs it
owns: probes really execute, samples are stored and counters tick for
owned machines, while foreign machines run through the same pass
unaccounted (with a stand-in probe where skipping the real one is
draw-exact).  The merged per-shard artefacts are therefore
byte-identical to the sequential run's.  Campaigns (which journal and
checkpoint per shard) and every run on the object pass take this path.

**Gathered** (:func:`gather_shard`, then :func:`collect_gathered` in
the parent).  A process-pool run eligible for the columnar pass splits
the behaviour instead: each worker simulates only its owned machines
and records their pass inputs at every iteration instant
(:mod:`repro.shard.gather`); the parent runs the one columnar pass over
the gathered rows and benchmarks the roster once.

``docs/sharding.md`` lays out both arguments.  :func:`run_shard` is
also the *sequential* runtime: ``shards=1`` is a single shard owning
every lab, run in-process by :func:`repro.experiment.run_experiment`
-- and :func:`resume_shard` on that shard is the sequential
``resume_from=`` path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.compat import columnar_reason, switches
from repro.config import ExperimentConfig, paper_config
from repro.ddc.coordinator import DdcCoordinator
from repro.errors import CheckpointError, TraceFormatError
from repro.ddc.nbenchprobe import NBenchProbe, parse_nbench_output
from repro.ddc.postcollect import SamplePostCollector
from repro.ddc.w32probe import W32Probe
from repro.faults.plan import FAULT_CATEGORIES, FaultPlan
from repro.machines.hardware import LabSpec, MachineSpec, build_fleet
from repro.obs.observer import Observer, maybe_phase
from repro.obs.snapshot import ObsSnapshot
from repro.recovery.runtime import (
    RecoveryConfig,
    RecoveryInfo,
    RecoveryRuntime,
    fresh_runtime,
)
from repro.shard.gather import GatheredPasses, GatheredRows, PassRecorder
from repro.shard.plan import ShardSpec
from repro.sim.engine import Simulator
from repro.sim.fleet import FleetSimulator
from repro.sim.random import RandomStreams
from repro.traces.records import StaticInfo, TraceMeta
from repro.traces.store import TraceStore

__all__ = [
    "ShardTask",
    "ShardOutcome",
    "run_shard",
    "resume_shard",
    "gather_shard",
    "collect_gathered",
    "execute_shard_task",
    "attach_nbench_indexes",
]


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs to run one shard.

    Picklable by construction: the config, the shard spec, the lab
    catalog and the (pre-run, seeded) fault plan all ship to the worker;
    live objects (observers, recovery runtimes, fleet factories) do not
    cross the process boundary and are only available in-process.
    """

    #: ``None`` only on a sequential resume, which adopts the
    #: checkpointed configuration (a cold restart runs
    #: :func:`~repro.config.paper_config`).
    config: Optional[ExperimentConfig]
    shard: ShardSpec
    labs: Tuple[LabSpec, ...]
    collect_nbench: bool = True
    strict_postcollect: bool = True
    faults: Optional[FaultPlan] = None
    #: Whether a pool worker should build its own :class:`Observer` and
    #: return its snapshot (the in-process path passes a live observer
    #: to :func:`run_shard` instead).
    instrument: bool = False
    #: Per-shard crash-safe persistence (a campaign hands each worker
    #: ``campaign_config.for_shard(k)``); the worker constructs the
    #: runtime itself -- live runtimes never cross process boundaries.
    recovery: Optional[RecoveryConfig] = None
    #: Continue from :attr:`recovery`'s run directory instead of
    #: starting fresh (the lease regrant / campaign-resume path).
    resume: bool = False
    #: Simulate only the owned labs and record their pass inputs
    #: (:func:`gather_shard`) instead of replaying the full fleet;
    #: set for process-pool runs eligible for the columnar pass.
    gather: bool = False


@dataclass
class ShardOutcome:
    """What one shard produced.

    The first four fields survive pickling back from a worker process;
    ``fleet`` / ``coordinator`` / ``observer`` are live objects populated
    only when the shard ran in-process (``shards=1``).  A gathered
    shard has no store of its own: it returns :attr:`gathered`, which
    the parent's pass turns into the trace.
    """

    shard_index: int
    store: Optional[TraceStore]
    faults: Optional[FaultPlan] = None
    snapshot: Optional[ObsSnapshot] = None
    recovery: Optional[RecoveryInfo] = None
    fleet: Optional[FleetSimulator] = None
    coordinator: Optional[DdcCoordinator] = None
    observer: Optional[Observer] = None
    #: The worker honoured a STOP steering command before the horizon;
    #: the store is partial and must not be merged.
    stopped: bool = False
    #: Last iteration the shard completed (-1 when it never finished
    #: one); meaningful mainly for stopped outcomes.
    last_iteration: int = -1
    #: The configuration the shard ran: the task's, or on a warm resume
    #: the checkpointed one.
    config: Optional[ExperimentConfig] = None
    #: A gathered shard's recorded pass inputs (:func:`gather_shard`).
    gathered: Optional[GatheredRows] = None


def run_shard(
    task: ShardTask,
    *,
    observer: Optional[Observer] = None,
    fleet_factory=None,
    runtime: Optional[RecoveryRuntime] = None,
    control=None,
) -> ShardOutcome:
    """Run one shard to its horizon and return its artefacts.

    This is the experiment runtime itself: build the (full) fleet, probe
    it to the horizon, finalise the meta and benchmark the roster --
    with every materialising step gated on the shard's lab ownership.
    ``observer``, ``fleet_factory`` and ``runtime`` are the in-process
    extras ``run_experiment`` threads through for ``shards=1``;
    ``control`` is a campaign worker's steering endpoint (heartbeats
    out, PAUSE/RESUME/STOP in), installed as the coordinator's
    iteration-boundary hook.
    """
    cfg = task.config
    shard = task.shard
    owned = None if shard.all_labs else frozenset(shard.labs)
    obs = observer if observer is not None and observer.enabled else None
    with maybe_phase(obs, "build"):
        if fleet_factory is None:
            fleet = FleetSimulator(cfg, labs=task.labs, observer=observer)
        else:
            fleet = fleet_factory(cfg, task.labs)
            if obs is not None:
                # Custom fleets don't instrument their engine, but spans
                # (and the coordinator) still run on its clock.
                obs.bind_clock(fleet.sim)
        meta = TraceMeta(
            # A shard's trace covers only the machines it owns; merged
            # metas then sum back to the full roster.
            n_machines=(len(fleet.machines) if owned is None
                        else shard.n_machines),
            sample_period=cfg.ddc.sample_period,
            horizon=cfg.horizon,
        )
        store = TraceStore(meta)
        post = SamplePostCollector(store, strict=task.strict_postcollect)
        coordinator = DdcCoordinator(
            fleet.machines,
            fleet.sim,
            cfg.ddc,
            W32Probe(),
            post,
            fleet.streams.stream("ddc"),
            horizon=cfg.horizon,
            faults=task.faults,
            observer=observer,
            owned_labs=owned,
        )
        graph = dict(config=cfg, fleet=fleet, coordinator=coordinator,
                     store=store, faults=task.faults, observer=observer)
        if runtime is not None:
            runtime.bind(**graph)
        _resolve_kernel(cfg, coordinator, fleet,
                        custom_fleet=fleet_factory is not None,
                        observer=observer)
    return _run_to_horizon(task, runtime=runtime, control=control, **graph)


def _run_to_horizon(
    task: ShardTask,
    *,
    config: ExperimentConfig,
    fleet: FleetSimulator,
    coordinator: DdcCoordinator,
    store: TraceStore,
    faults: Optional[FaultPlan],
    observer: Optional[Observer],
    runtime: Optional[RecoveryRuntime],
    control,
) -> ShardOutcome:
    """Simulate a fresh or revived graph to the horizon and finish it.

    Shared by fresh and resumed shard runs: ``start`` is idempotent, so
    a graph revived from a checkpoint simply continues.  The graph
    arguments are the ones :meth:`~repro.recovery.runtime.RecoveryRuntime
    .bind` takes and a checkpoint's state holds.  A worker that
    honoured STOP returns early with a partial store -- meta
    unfinalised, no NBench pass -- but still seals its journal, so the
    campaign stays resumable from exactly where it paused.
    """
    obs = observer if observer is not None and observer.enabled else None
    if control is not None:
        control.bind(fleet.sim)
        coordinator.heartbeat = control.on_iteration
    with maybe_phase(obs, "simulate"):
        fleet.start()
        coordinator.start()
        try:
            fleet.sim.run_until(config.horizon)
        except BaseException:
            if runtime is not None:
                # Emulates the process dying: handles drop, no seal.
                runtime.hard_stop()
            raise
    shard = task.shard
    owned = None if shard.all_labs else frozenset(shard.labs)
    last = control.last_iteration if control is not None else -1
    if control is not None and control.stopped:
        info = runtime.finish() if runtime is not None else None
        return ShardOutcome(shard_index=shard.index, store=store,
                            faults=faults, recovery=info, fleet=fleet,
                            coordinator=coordinator, observer=observer,
                            stopped=True, last_iteration=last,
                            config=config)
    meta = store.meta
    assert meta is not None
    coordinator.finalize_meta(meta)
    # A resumed shard whose checkpoint already sat at the horizon ran
    # zero new iterations, so the control hook never fired; the meta
    # still knows how far the shard durably got.
    last = max(last, meta.iterations_run - 1)
    if task.collect_nbench:
        with maybe_phase(obs, "collect"):
            attach_nbench_indexes([m.spec for m in fleet.machines],
                                  fleet.streams.stream("nbench"), meta,
                                  owned_labs=owned)
    if obs is not None and faults is not None and not faults.empty:
        for category in FAULT_CATEGORIES:
            obs.metrics.counter("faults.injected", category=category).inc(
                faults.injected.get(category, 0)
            )
    info = runtime.finish() if runtime is not None else None
    return ShardOutcome(shard_index=shard.index, store=store, faults=faults,
                        recovery=info, fleet=fleet, coordinator=coordinator,
                        observer=observer, last_iteration=last,
                        config=config)


def resume_shard(
    task: ShardTask,
    *,
    observer: Optional[Observer] = None,
    fleet_factory=None,
    control=None,
) -> ShardOutcome:
    """Continue a shard from its own recovery directory.

    Load the shard's latest valid checkpoint, CRC-scan and retro-seal
    its journal, revive the pickled graph (or cold-restart when no
    checkpoint survived) and run to the horizon with every regenerated
    iteration verified against the journaled digests.  This is the one
    resume path: restarted workers, campaign resume and a sequential
    ``resume_from=`` (the single all-labs shard) all land here.

    A warm resume adopts the checkpointed config, fault plan and
    observer; a cold restart builds a fresh graph from the task, with
    ``observer`` and ``fleet_factory`` as :func:`run_shard` takes them.
    """
    from repro.recovery.checkpoint import config_digest, load_latest_checkpoint
    from repro.recovery.journal import Quarantine, retro_seal, scan_journal

    rcfg = task.recovery
    if rcfg is None:
        raise CheckpointError(
            "resume_shard needs task.recovery: a shard can only resume "
            "from its own recovery directory"
        )
    quarantine = Quarantine(rcfg.run_dir)
    ckpt = load_latest_checkpoint(rcfg.checkpoint_dir, quarantine)
    scan = scan_journal(rcfg.journal_dir, quarantine)
    retro_seal(scan)
    if ckpt is None:
        # Crash before the shard's first checkpoint survived: regenerate
        # from iteration 0, verifying against the journal tail.
        runtime = RecoveryRuntime(
            rcfg,
            quarantine=quarantine,
            expected_digests=scan.iteration_digests,
            cold_restart=True,
            start_segment=scan.next_segment,
        )
        if task.config is None:
            task = dataclasses.replace(task, config=paper_config())
        return run_shard(task, observer=observer, fleet_factory=fleet_factory,
                         runtime=runtime, control=control)
    if task.config is not None and config_digest(task.config) != ckpt.config:
        raise CheckpointError(
            f"shard {task.shard.index}: resume was given a config whose "
            f"digest {config_digest(task.config)[:12]}... differs from "
            f"the checkpointed run's {ckpt.config[:12]}...; resuming it "
            "would silently diverge"
        )
    expected = {k: v for k, v in scan.iteration_digests.items()
                if k > ckpt.iteration}
    runtime = RecoveryRuntime(
        rcfg,
        quarantine=quarantine,
        expected_digests=expected,
        resumed_from=ckpt.iteration,
        start_segment=scan.next_segment,
    )
    # The checkpointed state is the graph: config, fleet, coordinator,
    # store, fault plan and observer.
    runtime.bind(**ckpt.state)
    return _run_to_horizon(task, runtime=runtime, control=control,
                           **ckpt.state)


#: Fallback reasons already logged by this process (one line per reason,
#: not one per shard run -- a 16-worker pool would otherwise print the
#: same diagnosis 16 times).
_fallback_logged: set = set()


def _announce_fallback(reason: str, observer: Optional[Observer]) -> None:
    """Satellite of docs/columnar.md: a forced object-path fallback is
    loud -- logged once per reason and exported as an observability
    gauge -- instead of silently costing the columnar speedup."""
    import logging

    if reason not in _fallback_logged:
        _fallback_logged.add(reason)
        logging.getLogger("repro.kernel").info(
            "kernel=auto: columnar pass ineligible (%s); "
            "using the per-object path", reason,
        )
    if observer is not None and observer.enabled:
        observer.metrics.gauge("kernel.columnar_fallback", reason=reason).set(1.0)


def _resolve_kernel(
    cfg: ExperimentConfig,
    coordinator: DdcCoordinator,
    fleet: FleetSimulator,
    *,
    custom_fleet: bool,
    observer: Optional[Observer] = None,
) -> None:
    """Pick the probing-pass kernel per ``cfg.kernel`` (docs/columnar.md).

    ``"auto"`` enables the columnar pass exactly when the coordinator
    reports itself eligible and the fleet is the stock one; ``"object"``
    never enables it; ``"columnar"`` raises when the run is ineligible
    instead of silently falling back.  A bound recovery runtime does not
    block the columnar pass, which journals through it; the checkpoints
    it takes then carry the columnar mirror and the tick backend, so a
    resumed run continues on the same kernel.

    Enabling the columnar pass also moves the *behavioural* loop onto
    the exact tick backend; the coordinator reads the fleet's
    write-through mirror via ``fleet.ensure_columns()``.
    A full-replay shard's coordinator is eligible: the pass draws the
    full roster and materialises only the owned slice.  A process-pool
    plan that is eligible never gets here: its workers gather
    (:func:`gather_shard`) and the parent runs the pass.
    """
    if cfg.kernel == "object":
        return
    # A user-built fleet may carry machine stand-ins that don't support
    # the write-through mirror; it keeps the object path.
    reason = (columnar_reason(switches(fleet_factory=custom_fleet))
              or coordinator.columnar_ineligibility())
    if reason is None:
        coordinator.enable_columnar(fleet.ensure_columns())
        fleet.enable_tick_backend()
    elif cfg.kernel == "columnar":
        raise ValueError(
            f"kernel='columnar' requested but the run is ineligible: "
            f"{reason}"
        )
    else:
        _announce_fallback(reason, observer)


def gather_shard(task: ShardTask) -> ShardOutcome:
    """Simulate one shard's own machines and record their pass inputs.

    The worker half of a gathered plan (:mod:`repro.shard.gather`): the
    fleet builds only the owned labs' machines and agents, on the exact
    tick backend, and a :class:`~repro.shard.gather.PassRecorder`
    records the owned powered rows at every iteration instant.  No
    ``"ddc"`` or ``"nbench"`` draw happens here; the parent makes them
    all in :func:`collect_gathered`.
    """
    cfg = task.config
    fleet = FleetSimulator(cfg, labs=task.labs,
                           owned_labs=frozenset(task.shard.labs))
    recorder = PassRecorder(fleet.ensure_columns(), fleet.sim,
                            cfg.ddc.sample_period, cfg.horizon)
    fleet.enable_tick_backend()
    fleet.start()
    recorder.start()
    fleet.sim.run_until(cfg.horizon)
    return ShardOutcome(
        shard_index=task.shard.index, store=None, fleet=fleet, config=cfg,
        gathered=recorder.rows(task.labs, task.collect_nbench),
    )


def collect_gathered(outcomes: Sequence[ShardOutcome]) -> TraceStore:
    """The parent half of a gathered plan: one pass, then NBench.

    Builds the roster's specs (no machine), merges the shards' rows into
    roster order and runs the single columnar pass over them on a
    coordinator of its own -- the same iteration chain, availability
    draws and ``"ddc"`` stream as the sequential run -- then benchmarks
    every machine once from the one ``"nbench"`` stream.  ``outcomes``
    are ordered by shard index.
    """
    cfg = outcomes[0].config
    first = outcomes[0].gathered
    specs = build_fleet(first.labs)
    passes = GatheredPasses(specs, [o.gathered for o in outcomes])
    meta = TraceMeta(n_machines=len(specs),
                     sample_period=cfg.ddc.sample_period,
                     horizon=cfg.horizon)
    store = TraceStore(meta)
    streams = RandomStreams(cfg.seed)
    sim = Simulator()
    coordinator = DdcCoordinator(
        (), sim, cfg.ddc, W32Probe(), SamplePostCollector(store),
        streams.stream("ddc"), horizon=cfg.horizon,
    )
    coordinator.enable_columnar(passes)
    coordinator.start()
    sim.run_until(cfg.horizon)
    if coordinator.iterations_scheduled != passes.n_passes:
        raise TraceFormatError(
            f"the workers recorded {passes.n_passes} passes but the "
            f"parent scheduled {coordinator.iterations_scheduled}"
        )
    coordinator.finalize_meta(meta)
    if first.collect_nbench:
        attach_nbench_indexes(specs, streams.stream("nbench"), meta)
    return store


def execute_shard_task(task: ShardTask, *, control=None) -> ShardOutcome:
    """Run (or resume) one shard task and slim the outcome for pickling.

    The single worker-process entry point behind both the plain pool
    and the campaign worker loop: routes ``task.gather`` through
    :func:`gather_shard`, builds the worker-side observer when the task
    asks for instrumentation, routes ``task.resume`` through
    :func:`resume_shard` (where the observer comes from the checkpoint),
    snapshots the metrics and drops the live objects so the outcome
    crosses the process boundary.
    """
    observer = Observer() if task.instrument else None
    if task.gather:
        outcome = gather_shard(task)
    elif task.resume:
        outcome = resume_shard(task, observer=observer, control=control)
    else:
        runtime = (fresh_runtime(task.recovery)
                   if task.recovery is not None else None)
        outcome = run_shard(task, observer=observer, runtime=runtime,
                            control=control)
    # A warm resume revives the *checkpointed* observer; a fresh or
    # cold-restarted run instruments the one built above.
    obs = outcome.observer if outcome.observer is not None else observer
    if task.instrument and obs is not None and obs.enabled \
            and not outcome.stopped:
        outcome.snapshot = obs.snapshot()
    outcome.fleet = None
    outcome.coordinator = None
    outcome.observer = None
    return outcome


def _run_shard_task(task: ShardTask) -> ShardOutcome:
    """Pool entry point (no steering channel)."""
    return execute_shard_task(task)


def attach_nbench_indexes(
    specs: Sequence[MachineSpec],
    rng: np.random.Generator,
    meta: TraceMeta,
    owned_labs: Optional[frozenset] = None,
) -> None:
    """Benchmark every machine once and record the indexes in the statics.

    The authors collected the indexes in a dedicated NBench-probe pass
    (section 4.1); availability over 77 days guarantees each machine was
    eventually benchmarked, so we benchmark the full roster ``specs``,
    in roster order, from the ``"nbench"`` stream ``rng``.  A
    full-replay shard still *runs* the probe on every machine -- the
    stream must advance identically everywhere -- but records indexes
    only for machines in ``owned_labs``.
    """
    probe = NBenchProbe(rng)
    for spec in specs:
        result = probe.benchmark(spec)
        if owned_labs is not None and spec.lab not in owned_labs:
            continue  # draws consumed; the owning shard records the index
        report = parse_nbench_output(result.stdout)
        static = meta.statics.get(spec.machine_id)
        if static is None:
            # Machine never produced a W32Probe sample (off all along);
            # synthesise its static record from the spec so Fig. 6 can
            # still normalise over the full roster.
            static = StaticInfo(
                machine_id=spec.machine_id,
                hostname=spec.hostname,
                lab=spec.lab,
                cpu_name=spec.cpu.model,
                cpu_mhz=spec.cpu.mhz,
                os_name=spec.os_name,
                ram_mb=spec.ram_mb,
                swap_mb=spec.swap_mb,
                disk_serial=spec.disk_serial,
                disk_total_b=spec.disk_bytes,
                mac=spec.mac,
            )
        meta.statics[spec.machine_id] = dataclasses.replace(
            static, nbench_int=report["int"], nbench_fp=report["fp"]
        )

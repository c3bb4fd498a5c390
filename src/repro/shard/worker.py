"""One shard's run: the worker gathers, the parent probes.

**Sequential** (:func:`run_shard`).  ``shards=1`` is a single shard
owning every lab, run in-process by :func:`repro.experiment
.run_experiment`: build the fleet, probe it to the horizon, finalise
the meta and benchmark the roster.  :func:`resume_shard` on that shard
is the sequential ``resume_from=`` path.

**Gathered** (:func:`gather_shard`, then :func:`collect_gathered` in the
parent).  Every ``shards>1`` run -- on forked or on TCP campaign
workers, with or without ``recovery=``, on either probing pass -- splits
the behaviour: each worker simulates only its owned machines and
records their pass inputs at every iteration instant
(:mod:`repro.shard.gather`), heartbeating and honouring steering at
each record.  A crash-safe worker journals each instant's inputs and
checkpoints its owned fleet, so a regranted shard resumes from its own
checkpoint (:func:`resume_gathered`).  The parent runs the one probing
pass over the gathered rows -- columnar, or the object pass over a
row-backed roster when the fault plan, the resilience control plane, an
observer, retries or ``kernel="object"`` call for it -- and benchmarks
the roster once.

``docs/sharding.md`` lays out the argument.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import compat
from repro.config import ExperimentConfig, paper_config
from repro.ddc.coordinator import DdcCoordinator
from repro.errors import CheckpointError, TraceFormatError
from repro.ddc.nbenchprobe import NBenchProbe, parse_nbench_output
from repro.ddc.postcollect import SamplePostCollector
from repro.ddc.w32probe import W32Probe
from repro.faults.plan import FAULT_CATEGORIES, FaultPlan
from repro.machines.hardware import LabSpec, MachineSpec, build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
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
    "build_graph",
    "run_shard",
    "resume_shard",
    "gather_shard",
    "resume_gathered",
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
    #: Whether a campaign worker should build its own :class:`Observer`
    #: and return its snapshot (the in-process path passes a live
    #: observer to :func:`run_shard` instead).
    instrument: bool = False
    #: Per-shard crash-safe persistence (a campaign hands each worker
    #: ``campaign_config.for_shard(k)``); the worker constructs the
    #: runtime itself -- live runtimes never cross process boundaries.
    recovery: Optional[RecoveryConfig] = None
    #: Continue from :attr:`recovery`'s run directory instead of
    #: starting fresh (the lease regrant / campaign-resume path).
    resume: bool = False


@dataclass
class ShardOutcome:
    """What one shard produced.

    The first five fields survive pickling back from a worker process;
    ``fleet`` / ``coordinator`` / ``observer`` are live objects populated
    only when the shard ran in-process.  A gathered shard has no store
    of its own: it returns :attr:`gathered`, which the parent's pass
    turns into the trace.
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
    #: nothing was gathered and the outcome must not be merged.
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
) -> ShardOutcome:
    """Run the sequential all-labs shard to its horizon.

    This is the experiment runtime itself: build the fleet, probe it to
    the horizon, finalise the meta and benchmark the roster.
    ``observer``, ``fleet_factory`` and ``runtime`` are the in-process
    extras ``run_experiment`` threads through.  A shard of a plan never
    runs here: its worker gathers (:func:`gather_shard`).
    """
    if not task.shard.all_labs:
        raise ValueError(
            f"run_shard runs the all-labs shard only; shard "
            f"{task.shard.index} of {task.shard.n_shards} gathers "
            "(gather_shard)"
        )
    graph = build_graph(task, observer=observer,
                        fleet_factory=fleet_factory, runtime=runtime)
    return _run_to_horizon(task, runtime=runtime, **graph)


def build_graph(
    task: ShardTask,
    *,
    observer: Optional[Observer] = None,
    fleet_factory=None,
    runtime: Optional[RecoveryRuntime] = None,
) -> dict:
    """Build the sequential experiment graph, ready to start.

    Builds the fleet (``fleet_factory(config, labs)`` when given), the
    store, the post-collector and the coordinator, binds ``runtime``
    to them and picks the probing pass per ``task.config.kernel``.
    Returns the graph as the keyword arguments
    :meth:`~repro.recovery.runtime.RecoveryRuntime.bind` takes and a
    checkpoint's state holds: ``config``, ``fleet``, ``coordinator``,
    ``store``, ``faults`` and ``observer``.  :func:`run_shard` runs it
    to the horizon; :class:`~repro.live.driver.LiveDriver` drives it in
    chunks.
    """
    cfg = task.config
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
            n_machines=len(fleet.machines),
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
        )
        graph = dict(config=cfg, fleet=fleet, coordinator=coordinator,
                     store=store, faults=task.faults, observer=observer)
        if runtime is not None:
            runtime.bind(**graph)
        _resolve_kernel(cfg, coordinator, fleet, observer=observer)
    return graph


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
) -> ShardOutcome:
    """Simulate a fresh or revived graph to the horizon and finish it.

    Shared by fresh and resumed sequential runs: ``start`` is
    idempotent, so a graph revived from a checkpoint simply continues.
    The graph arguments are the ones :meth:`~repro.recovery.runtime
    .RecoveryRuntime.bind` takes and a checkpoint's state holds.
    """
    obs = observer if observer is not None and observer.enabled else None
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
    meta = store.meta
    assert meta is not None
    coordinator.finalize_meta(meta)
    if task.collect_nbench:
        with maybe_phase(obs, "collect"):
            attach_nbench_indexes([m.spec for m in fleet.machines],
                                  fleet.streams.stream("nbench"), meta)
    _count_faults(obs, faults)
    info = runtime.finish() if runtime is not None else None
    return ShardOutcome(shard_index=task.shard.index, store=store,
                        faults=faults, recovery=info, fleet=fleet,
                        coordinator=coordinator, observer=observer,
                        last_iteration=meta.iterations_run - 1,
                        config=config)


def _count_faults(obs: Optional[Observer],
                  faults: Optional[FaultPlan]) -> None:
    """Copy a plan's injection ledger into ``faults.injected`` counters,
    so an exported snapshot is self-contained."""
    if obs is None or faults is None or faults.empty:
        return
    for category in FAULT_CATEGORIES:
        obs.metrics.counter("faults.injected", category=category).inc(
            faults.injected.get(category, 0)
        )


def resume_shard(
    task: ShardTask,
    *,
    observer: Optional[Observer] = None,
    fleet_factory=None,
) -> ShardOutcome:
    """Continue the sequential run from its recovery directory.

    Revive the latest valid checkpoint's graph (or cold-restart when no
    checkpoint survived, :func:`_resume_prologue`) and run to the
    horizon with every regenerated iteration verified against the
    journaled digests.  A warm resume adopts the checkpointed config,
    fault plan and observer; a cold restart builds a fresh graph from
    the task, with ``observer`` and ``fleet_factory`` as
    :func:`run_shard` takes them.
    """
    ckpt, runtime, _ = _resume_prologue(task)
    if ckpt is None:
        if task.config is None:
            task = dataclasses.replace(task, config=paper_config())
        return run_shard(task, observer=observer, fleet_factory=fleet_factory,
                         runtime=runtime)
    # The checkpointed state is the graph: config, fleet, coordinator,
    # store, fault plan and observer.
    runtime.bind(**ckpt.state)
    return _run_to_horizon(task, runtime=runtime, **ckpt.state)


def _resume_prologue(task: ShardTask, *, gathered: bool = False):
    """What every resume does first; returns ``(checkpoint, runtime,
    recorded)``.

    Refuses a journal of another format version before anything moves,
    loads the latest valid checkpoint, CRC-scans and retro-seals the
    journal (quarantining damage) and refuses a checkpoint taken under
    another config than ``task.config``.  A ``gathered`` shard also
    reads back the pass inputs its journal recorded up to the
    checkpoint (``recorded``).  The runtime verifies every journaled
    iteration past the checkpoint; without one -- none survived, or a
    gathered shard's journal misses a record below it -- the checkpoint
    is ``None`` and the runtime a cold restart's, verifying them all.
    """
    from repro.recovery.checkpoint import config_digest, load_latest_checkpoint
    from repro.recovery.journal import (
        Quarantine,
        require_version,
        retro_seal,
        scan_journal,
    )

    rcfg = task.recovery
    if rcfg is None:
        raise CheckpointError(
            "resuming a shard needs task.recovery: a shard can only resume "
            "from its own recovery directory"
        )
    require_version(rcfg.journal_dir)
    quarantine = Quarantine(rcfg.run_dir)
    ckpt = load_latest_checkpoint(rcfg.checkpoint_dir, quarantine)
    scan = scan_journal(rcfg.journal_dir, quarantine)
    retro_seal(scan)
    if (ckpt is not None and task.config is not None
            and config_digest(task.config) != ckpt.config):
        raise CheckpointError(
            f"shard {task.shard.index}: resume was given a config whose "
            f"digest {config_digest(task.config)[:12]}... differs from "
            f"the checkpointed run's {ckpt.config[:12]}...; resuming it "
            "would silently diverge"
        )
    recorded = None
    if gathered and ckpt is not None:
        recorded = _recorded_inputs(scan, ckpt.iteration)
        if recorded is None:
            ckpt = None
    expected = scan.iteration_digests
    if ckpt is not None:
        expected = {k: v for k, v in expected.items() if k > ckpt.iteration}
    runtime = RecoveryRuntime(
        rcfg, quarantine=quarantine, expected_digests=expected,
        resumed=ckpt.tip if ckpt is not None else None,
        cold_restart=ckpt is None, start_segment=scan.next_segment,
    )
    return ckpt, runtime, recorded


def _recorded_inputs(scan, upto: int):
    """The pass inputs instants ``0..upto`` recorded, from the journal's
    ``gather`` records (``None`` for an instant without a powered
    machine); ``None`` when a record is missing."""
    from repro.recovery.journal import decode_pass

    bodies = {rec.body["k"]: rec.body for rec in scan.records()
              if rec.body.get("kind") == "gather" and rec.body["k"] <= upto}
    if len(bodies) != upto + 1:
        return None
    return [decode_pass(bodies[k]) for k in range(upto + 1)]


#: Fallback reasons already logged by this process (one line per reason,
#: not one per shard run).
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
    observer: Optional[Observer] = None,
) -> None:
    """Pick the probing-pass kernel per ``cfg.kernel`` (docs/columnar.md).

    ``"auto"`` enables the columnar pass exactly when the coordinator
    reports itself eligible; ``"object"`` never enables it;
    ``"columnar"`` raises when the run is ineligible instead of
    silently falling back.  The kernel chooses only the probing pass:
    every fleet's agents run on its tick backend, and the columnar pass
    reads the fleet's write-through mirror via
    ``fleet.ensure_columns()``.  A bound recovery runtime does not block
    the columnar pass: it journals the rows either pass admits at the
    end of each iteration, and the checkpoints it takes carry the
    mirror, so a resumed run continues on the same kernel.  The parent
    of a gathered plan makes the same choice in :func:`collect_gathered`.
    """
    if cfg.kernel == "object":
        return
    reason = coordinator.columnar_ineligibility()
    if reason is None:
        coordinator.enable_columnar(fleet.ensure_columns())
    elif cfg.kernel == "columnar":
        raise ValueError(
            f"kernel='columnar' requested but the run is ineligible: "
            f"{reason}"
        )
    else:
        _announce_fallback(reason, observer)


def gather_shard(task: ShardTask, *, control=None,
                 runtime: Optional[RecoveryRuntime] = None) -> ShardOutcome:
    """Simulate one shard's own machines and record their pass inputs.

    The worker half of a plan (:mod:`repro.shard.gather`): the fleet
    builds only the owned labs' machines and agents, and a
    :class:`~repro.shard.gather.PassRecorder` records the owned powered
    rows at every iteration instant.  No ``"ddc"`` or ``"nbench"`` draw,
    fault hook or control-plane call happens here: the parent's
    :func:`collect_gathered` makes them all.  ``control`` is a campaign
    worker's steering endpoint; with a ``runtime`` the recorder journals
    each instant's inputs and the runtime checkpoints the owned fleet.
    """
    cfg = task.config
    observer = Observer() if task.instrument else None
    with maybe_phase(observer, "build"):
        fleet = FleetSimulator(cfg, labs=task.labs,
                               owned_labs=frozenset(task.shard.labs),
                               observer=observer)
        recorder = PassRecorder(fleet.ensure_columns(), fleet.sim,
                                cfg.ddc.sample_period, cfg.horizon)
    if runtime is not None:
        runtime.bind(config=cfg, fleet=fleet, recorder=recorder,
                     observer=observer)
    return _gather_to_horizon(task, config=cfg, fleet=fleet,
                              recorder=recorder, observer=observer,
                              runtime=runtime, control=control)


def resume_gathered(task: ShardTask, *, control=None) -> ShardOutcome:
    """Continue a gathered shard from its own recovery directory.

    The regranted-lease and campaign-resume path.  The recorder revived
    from the latest checkpoint gets its recorded rows back from the
    journal (:func:`_resume_prologue`), and the shard continues to the
    horizon with every regenerated instant verified against the
    journaled digests; without a usable checkpoint it cold-restarts
    under the same verification.
    """
    ckpt, runtime, recorded = _resume_prologue(task, gathered=True)
    if ckpt is None:
        return gather_shard(task, control=control, runtime=runtime)
    # The checkpointed state: config, owned fleet, recorder, observer.
    state = ckpt.state
    state["recorder"].restore(recorded)
    runtime.bind(**state)
    return _gather_to_horizon(task, runtime=runtime, control=control,
                              **state)


def _gather_to_horizon(
    task: ShardTask,
    *,
    config: ExperimentConfig,
    fleet: FleetSimulator,
    recorder: PassRecorder,
    observer: Optional[Observer],
    runtime: Optional[RecoveryRuntime],
    control,
) -> ShardOutcome:
    """Simulate a fresh or revived gathered shard to the horizon; a
    worker that honoured STOP returns a ``stopped`` outcome with nothing
    gathered, its journal sealed so the campaign stays resumable."""
    recorder.control = control
    if control is not None:
        control.bind(fleet.sim)
    with maybe_phase(observer, "simulate"):
        fleet.start()
        recorder.start()
        try:
            fleet.sim.run_until(config.horizon)
        except BaseException:
            if runtime is not None:
                # Emulates the process dying: handles drop, no seal.
                runtime.hard_stop()
            raise
    info = runtime.finish() if runtime is not None else None
    outcome = ShardOutcome(shard_index=task.shard.index, store=None,
                           recovery=info, fleet=fleet, observer=observer,
                           config=config)
    if control is not None and control.stopped:
        outcome.stopped = True
        outcome.last_iteration = control.last_iteration
        return outcome
    outcome.gathered = recorder.rows(task.labs, task.collect_nbench,
                                     task.faults, task.strict_postcollect)
    outcome.last_iteration = len(outcome.gathered.powered) - 1
    return outcome


def collect_gathered(outcomes: Sequence[ShardOutcome],
                     owned_labs: Optional[frozenset] = None,
                     observer: Optional[Observer] = None) -> TraceStore:
    """The parent half of a plan: one pass, then NBench.

    Merges the shards' rows (``outcomes`` ordered by shard index) into
    roster order and runs the one probing pass the sequential run would
    take (:mod:`repro.compat` and ``kernel`` choose it) on a coordinator
    of its own, with the shards' fault plan and post-collect strictness
    and ``observer``: the columnar pass reads the rows directly, the
    object pass probes a row-backed roster reloaded before each pass.
    Then it benchmarks every machine once from the one ``"nbench"``
    stream.  ``owned_labs`` keeps only those labs' rows and counters (a
    degraded campaign's survivors); the pass still probes every machine.
    """
    cfg = outcomes[0].config
    first = outcomes[0].gathered
    specs = build_fleet(first.labs)
    passes = GatheredPasses(specs, [o.gathered for o in outcomes])
    meta = TraceMeta(n_machines=(len(specs) if owned_labs is None else
                                 sum(s.lab in owned_labs for s in specs)),
                     sample_period=cfg.ddc.sample_period,
                     horizon=cfg.horizon)
    store = TraceStore(meta)
    streams = RandomStreams(cfg.seed)
    sim = Simulator()
    obs = observer if observer is not None and observer.enabled else None
    if obs is not None:
        obs.bind_clock(sim)
    faults = first.faults
    reason = compat.columnar_reason(compat.switches(
        faults=faults is not None and not faults.empty,
        policy=cfg.ddc.resilience is not None,
        observer=obs is not None,
        retries=cfg.ddc.retry_limit != 0,
    ))
    columnar = cfg.kernel != "object" and reason is None
    machines = () if columnar else [
        SimMachine(spec, SmartDisk(spec.disk_serial, spec.disk_bytes))
        for spec in specs
    ]
    coordinator = DdcCoordinator(
        machines, sim, cfg.ddc, W32Probe(),
        SamplePostCollector(store, strict=first.strict_postcollect),
        streams.stream("ddc"), horizon=cfg.horizon, faults=faults,
        observer=observer, owned_labs=owned_labs,
    )
    if columnar:
        coordinator.enable_columnar(passes)
    else:
        if cfg.kernel != "object":
            _announce_fallback(reason, observer)
        passes.reload_before_passes(machines, sim, cfg.ddc.sample_period)
    with maybe_phase(obs, "collect"):
        coordinator.start()
        sim.run_until(cfg.horizon)
        if coordinator.iterations_scheduled != passes.n_passes:
            raise TraceFormatError(
                f"the workers recorded {passes.n_passes} passes but the "
                f"parent scheduled {coordinator.iterations_scheduled}"
            )
        coordinator.finalize_meta(meta)
        if first.collect_nbench:
            attach_nbench_indexes(specs, streams.stream("nbench"), meta,
                                  owned_labs=owned_labs)
    _count_faults(obs, faults)
    return store


def execute_shard_task(task: ShardTask, *, control=None) -> ShardOutcome:
    """Run (or resume) one shard task and slim the outcome for pickling.

    The single worker-process entry point, called by the campaign
    worker loop of :mod:`repro.shard.net.worker` on forked and TCP
    workers alike: gathers the shard under the campaign's steering
    ``control`` (:func:`resume_gathered` when ``task.resume``),
    snapshots the worker's observer when the task asks for
    instrumentation and drops the live objects.
    """
    if task.resume:
        outcome = resume_gathered(task, control=control)
    else:
        runtime = (fresh_runtime(task.recovery)
                   if task.recovery is not None else None)
        outcome = gather_shard(task, control=control, runtime=runtime)
    # A warm resume revives the *checkpointed* observer.
    obs = outcome.observer
    if task.instrument and obs is not None and obs.enabled \
            and not outcome.stopped:
        outcome.snapshot = obs.snapshot()
    outcome.fleet = None
    outcome.coordinator = None
    outcome.observer = None
    return outcome


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
    in roster order, from the ``"nbench"`` stream ``rng``.  A degraded
    campaign's parent still *runs* the probe on every machine -- the
    stream must advance as in the complete run -- but records indexes
    only for machines in ``owned_labs``.
    """
    probe = NBenchProbe(rng)
    for spec in specs:
        result = probe.benchmark(spec)
        if owned_labs is not None and spec.lab not in owned_labs:
            continue  # draws consumed; the lost shard's index is not kept
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

"""Crash-injection harness: prove resume(crash(run)) == run.

The harness kills a recovery-enabled experiment at a chosen point,
resumes it from disk, and checks -- via an exact fingerprint over every
sample and accounting counter, plus the fleet's ground truth -- that the
stitched-together run is bit-for-bit the run that never crashed.  It
composes two kill mechanisms:

- :class:`KillAtIteration`, a :class:`~repro.faults.scenarios
  .FaultScenario` that raises :class:`~repro.errors.InjectedCrash` from
  the coordinator's ``coordinator_down`` hook at the *start* of an
  iteration (the fault-plan machinery's natural insertion point), and
- the finer-grained :class:`~repro.recovery.runtime.CrashSpec` points
  the recovery runtime implements itself (mid-iteration torn write,
  mid-checkpoint staged temp file, mid-seal torn footer, ...).

A killed scenario does not survive checkpointing: ``__getstate__``
disarms it, mirroring how a real crash kills the process but not the
operator's resume command.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from repro.config import ExperimentConfig
from repro.errors import InjectedCrash, RecoveryError
from repro.faults.plan import FaultPlan, FaultScenario
from repro.recovery.runtime import CRASH_POINTS, CrashSpec, RecoveryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiment import MonitoringResult

__all__ = [
    "ALL_KILL_POINTS",
    "KillAtIteration",
    "ground_truth",
    "result_fingerprint",
    "crash_and_resume",
    "verify_crash_resume",
]

#: Every kill point the harness can exercise: the fault-plan hook plus
#: the recovery runtime's own crash points.
ALL_KILL_POINTS = ("iteration_start",) + CRASH_POINTS

#: TraceMeta counters folded into the result fingerprint.
_META_COUNTERS = (
    "iterations_scheduled",
    "iterations_run",
    "attempts",
    "timeouts",
    "access_denied",
    "samples_collected",
    "parse_failures",
    "retries",
    "retries_recovered",
    "retries_skipped",
    "shed",
    "breaker_skipped",
    "hedges",
    "hedge_wins",
)


class KillAtIteration(FaultScenario):
    """Kill the coordinator process at the start of iteration ``k``.

    Raised from the fault plan's ``coordinator_down`` hook, i.e. before
    the iteration draws availability or probes anything -- the moment a
    real coordinator host would reboot under the run.  The scenario
    draws no randomness, so a plan containing only kill scenarios leaves
    the trace identical to a fault-free run.

    Pickling (and therefore checkpointing) disarms the scenario: the
    revived plan behaves like the restarted process, which no longer has
    a kill scheduled.
    """

    def __init__(self, iteration: int):
        if iteration < 0:
            raise ValueError("kill iteration must be non-negative")
        self.iteration = int(iteration)
        self.armed = True

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["armed"] = False
        return state

    def coordinator_down(self, t: float, iteration: int,
                         rng: np.random.Generator) -> bool:
        if self.armed and iteration == self.iteration:
            self.armed = False
            raise InjectedCrash(
                f"injected crash at iteration {iteration} (iteration_start)"
            )
        return False


def result_fingerprint(result: "MonitoringResult") -> str:
    """SHA-256 identity of a finished run's observable output.

    Covers every sample (``repr`` round-trips doubles exactly), the
    coordinator's accounting counters and the per-machine static info
    including NBench indexes -- equality of fingerprints is bitwise
    equality of everything the analyses consume.
    """
    h = hashlib.sha256()
    for sample in result.store.samples():
        h.update(repr(sample).encode())
    meta = result.store.meta
    if meta is not None:
        for name in _META_COUNTERS:
            h.update(f"{name}={getattr(meta, name)}".encode())
        for machine_id in sorted(meta.statics):
            h.update(repr(meta.statics[machine_id]).encode())
    return h.hexdigest()


def ground_truth(result: "MonitoringResult") -> Optional[tuple]:
    """What the fingerprint leaves out: every machine's boot and session
    logs, and the order of ``meta.statics``; ``None`` without a fleet.

    Checkpoints keep the logs and the statics in their deltas, so a
    resumed run rebuilds them from the delta chain: a record applied
    twice or lost shows here.
    """
    if result.fleet is None:
        return None
    logs = tuple((tuple(m.boot_log), tuple(m.session_log))
                 for m in result.fleet.machines)
    return logs, tuple(result.meta.statics)


def _make_recovery(run_dir: Union[str, Path], crash: Optional[CrashSpec],
                   **kwargs: object) -> RecoveryConfig:
    kwargs.setdefault("checkpoint_every", 8)
    kwargs.setdefault("fsync", False)  # test speed; the format is identical
    return RecoveryConfig(run_dir=run_dir, crash_at=crash, **kwargs)


#: Builds a fresh fault plan per run.  A :class:`FaultPlan` is stateful
#: (private RNG, injection tallies), so the crashed run and the baseline
#: must each get their own instance or they would diverge spuriously.
FaultsFactory = Callable[[], Optional[FaultPlan]]


def crash_and_resume(
    config: ExperimentConfig,
    kill_point: str,
    kill_iteration: int,
    run_dir: Union[str, Path],
    *,
    faults_factory: Optional[FaultsFactory] = None,
    collect_nbench: bool = True,
    **recovery_kwargs: object,
) -> "MonitoringResult":
    """Run, die at the kill point, resume from disk; return the result.

    Raises
    ------
    RecoveryError
        If the run completed without the injected crash firing (the kill
        point was unreachable -- usually an iteration beyond the run).
    """
    from repro.experiment import run_experiment

    if kill_point not in ALL_KILL_POINTS:
        raise ValueError(
            f"unknown kill point {kill_point!r}; expected {ALL_KILL_POINTS}"
        )
    faults = faults_factory() if faults_factory is not None else None
    if kill_point == "iteration_start":
        scenarios = (list(faults.scenarios) if faults is not None else [])
        scenarios.append(KillAtIteration(kill_iteration))
        faults = FaultPlan(scenarios,
                           seed=faults.seed if faults is not None else 0)
        crash = None
    else:
        crash = CrashSpec(iteration=kill_iteration, point=kill_point)
    recovery = _make_recovery(run_dir, crash, **recovery_kwargs)
    try:
        run_experiment(config, faults=faults, recovery=recovery,
                       collect_nbench=collect_nbench)
    except InjectedCrash:
        pass
    else:
        raise RecoveryError(
            f"kill point {kill_point!r} at iteration {kill_iteration} "
            "never fired; the run completed uninterrupted"
        )
    resume = _make_recovery(run_dir, None, **recovery_kwargs)
    return run_experiment(config, resume_from=resume,
                          collect_nbench=collect_nbench)


def verify_crash_resume(
    config: ExperimentConfig,
    kill_point: str,
    kill_iteration: int,
    run_dir: Union[str, Path],
    *,
    faults_factory: Optional[FaultsFactory] = None,
    baseline: Optional["MonitoringResult"] = None,
    **recovery_kwargs: object,
) -> Tuple[bool, str, str]:
    """Property check: the resumed run equals the uninterrupted one.

    Returns ``(identical, resumed_fingerprint, baseline_fingerprint)``;
    ``identical`` also requires equal :func:`ground_truth` whenever
    both results carry a fleet.  The baseline runs without any recovery
    plumbing at all, so the check also covers the layer's differential
    guarantee (journaling and checkpointing leave the trace untouched).
    """
    from repro.experiment import run_experiment

    resumed = crash_and_resume(
        config, kill_point, kill_iteration, run_dir,
        faults_factory=faults_factory, **recovery_kwargs,
    )
    if baseline is None:
        plan = faults_factory() if faults_factory is not None else None
        baseline = run_experiment(config, faults=plan)
    fp_resumed = result_fingerprint(resumed)
    fp_baseline = result_fingerprint(baseline)
    identical = fp_resumed == fp_baseline
    if resumed.fleet is not None and baseline.fleet is not None:
        identical = (identical
                     and ground_truth(resumed) == ground_truth(baseline))
    return identical, fp_resumed, fp_baseline

"""psexec-style remote execution.

The paper runs probes remotely with Sysinternals' ``psexec``: the probe
binary is pushed to and executed *on* the remote machine under supplied
credentials, and its output channels stream back to the coordinator.  The
decisive property (section 3) is the **fast failure** on unavailable
machines -- perfmon and WMI were rejected because their timeouts run into
seconds and their overhead is high.

:class:`RemoteExecutor` reproduces those semantics against simulated
machines:

- powered-off machine -> :class:`~repro.errors.MachineUnreachable` after
  ``off_timeout`` simulated seconds (the cost the coordinator pays per
  dead host in every iteration),
- wrong credentials -> :class:`~repro.errors.AccessDenied`,
- success -> the probe's :class:`~repro.ddc.probe.ProbeResult` plus the
  elapsed wall time (connection latency + service start + probe runtime).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.ddc.probe import Probe, ProbeResult
from repro.errors import AccessDenied, MachineUnreachable
from repro.machines.machine import SimMachine
from repro.machines.winapi import Win32Api

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.obs.metrics import Histogram
    from repro.obs.observer import Observer
    from repro.resilience.control import ResilienceControl

__all__ = ["Credentials", "RemoteOutcome", "ResilientOutcome",
           "RemoteExecutor"]


@dataclass(frozen=True)
class Credentials:
    """Administrative credentials used for remote execution.

    Only a salted digest is stored, mirroring the obvious operational rule
    that the coordinator's config must not hold cleartext passwords.
    """

    username: str
    password_digest: str

    @classmethod
    def create(cls, username: str, password: str) -> "Credentials":
        """Build credentials from a cleartext password (digesting it)."""
        return cls(username=username, password_digest=cls.digest(username, password))

    @staticmethod
    def digest(username: str, password: str) -> str:
        """Salted SHA-256 digest binding the password to the username."""
        return hashlib.sha256(f"{username}:{password}".encode()).hexdigest()

    def matches(self, other: "Credentials") -> bool:
        """Constant-content comparison of two credential objects."""
        return (
            self.username == other.username
            and self.password_digest == other.password_digest
        )


@dataclass(frozen=True)
class RemoteOutcome:
    """Result of one remote execution attempt.

    Attributes
    ----------
    result:
        The probe's captured output (``None`` when the attempt failed).
    elapsed:
        Simulated wall-clock seconds the attempt cost the coordinator,
        *including* failed attempts (timeouts are the dominant cost on a
        half-powered-off fleet).
    error:
        ``None`` on success, otherwise the raised error (kept instead of
        re-raised so the coordinator can account and continue, as DDC
        does: a dead machine must not abort the iteration).
    """

    result: Optional[ProbeResult]
    elapsed: float
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        """Whether a probe result was obtained."""
        return self.result is not None and self.result.ok

    # Resilience annotation defaults.  Deliberately *unannotated* class
    # attributes (so they are not dataclass fields): the executor
    # returns a plain, cheap RemoteOutcome unless the control plane cut
    # or hedged the attempt, and callers still read the annotations
    # uniformly.
    latency = None
    hedged = False
    hedge_won = False
    fastfail_cut = False


@dataclass(frozen=True)
class ResilientOutcome(RemoteOutcome):
    """A :class:`RemoteOutcome` the resilience control plane changed.

    Returned for a hedged attempt or a deadline-cut fast-fail; every
    other attempt is a plain :class:`RemoteOutcome`.

    Attributes
    ----------
    latency:
        The *primary* connect latency of a hedged attempt (pre-hedge),
        the observation fed to the per-lab quantile trackers; ``None``
        for unreachable fast-fails.
    hedged / hedge_won:
        Whether a duplicate probe was dispatched for this attempt, and
        whether the duplicate finished first.
    fastfail_cut:
        Whether the unreachable timeout was cut short by the lab's
        adaptive deadline (``elapsed < off_timeout``).
    """

    latency: Optional[float] = None
    hedged: bool = False
    hedge_won: bool = False
    fastfail_cut: bool = False


class RemoteExecutor:
    """Executes probes on remote (simulated) machines.

    Parameters
    ----------
    admin:
        Credentials the fleet's machines accept.
    latency_range:
        ``(lo, hi)`` seconds of per-execution overhead on live machines
        (connect + service install + process spawn).
    off_timeout:
        Seconds spent discovering that a machine is unreachable.
    rng:
        Latency noise stream.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` consulted around
        each execution.  An empty (or absent) plan costs nothing: the
        reference is dropped at construction and no hook ever runs.
    observer:
        Optional :class:`repro.obs.Observer`; when attached, each live
        execution's latency (post fault inflation) is recorded into the
        per-lab ``ddc.exec_latency_seconds`` histogram.  ``None`` or a
        disabled observer is dropped here, like an empty fault plan.
    owned_labs:
        Labs whose executions this executor *accounts for* (``None`` --
        the default -- means all).  A shard coordinator replicates
        foreign machines' executions draw-for-draw to keep the shared
        latency stream aligned, but only the owning shard may record
        them, or merged snapshots would double-count.
    """

    def __init__(
        self,
        admin: Credentials,
        latency_range: Tuple[float, float],
        off_timeout: float,
        rng: np.random.Generator,
        faults: Optional["FaultPlan"] = None,
        observer: Optional["Observer"] = None,
        owned_labs: Optional[frozenset] = None,
    ):
        lo, hi = latency_range
        if not 0 < lo <= hi:
            raise ValueError("latency range must be positive and ordered")
        if off_timeout <= 0:
            raise ValueError("off_timeout must be positive")
        self._admin = admin
        self._latency = (float(lo), float(hi))
        self._off_timeout = float(off_timeout)
        self._rng = rng
        self._faults = faults if faults is not None and not faults.empty else None
        self._obs = observer if observer is not None and observer.enabled else None
        self._owned_labs = owned_labs
        self._lat_hists: dict = {}

    def _observes(self, lab: str) -> bool:
        """Whether this executor accounts executions of ``lab``."""
        return (self._obs is not None
                and (self._owned_labs is None or lab in self._owned_labs))

    def _latency_hist(self, lab: str) -> "Histogram":
        """Bound per-lab latency histogram (resolved once per lab)."""
        hist = self._lat_hists.get(lab)
        if hist is None:
            from repro.obs.metrics import LATENCY_BUCKETS

            hist = self._obs.metrics.histogram(
                "ddc.exec_latency_seconds", edges=LATENCY_BUCKETS, lab=lab
            )
            self._lat_hists[lab] = hist
        return hist

    def execute(
        self,
        machine: SimMachine,
        probe: Probe,
        now: float,
        credentials: Credentials,
        control: Optional["ResilienceControl"] = None,
    ) -> RemoteOutcome:
        """Attempt to run ``probe`` on ``machine`` at time ``now``.

        A resilience ``control`` plane adds two latency-only deltas (the
        probe itself and the failure taxonomy are untouched):

        - an unreachable machine fast-fails after
          ``min(off_timeout, lab deadline)`` instead of the fixed
          ``off_timeout`` -- live probes are never cut, so no sample is
          ever lost to the adaptive deadline;
        - when the primary connect latency exceeds the lab's hedge
          threshold, a seeded duplicate probe is dispatched at the
          threshold instant and the first arrival wins, so the
          effective latency is ``min(primary, threshold + duplicate)``.

        Every attempt also feeds its evidence straight into
        :meth:`~repro.resilience.control.ResilienceControl.observe`: a
        denial or garbled output still proves the machine answers the
        network, so only an unreachable timeout counts against its
        health and breaker.  The deadline and hedge threshold come from
        the control plane's pass-frozen ``pass_deadline`` /
        ``pass_hedge`` dicts (recomputed each ``begin_pass``).  Without
        a control plane none of this runs and nothing extra is drawn.
        """
        faults = self._faults
        spec = machine.spec
        if faults is not None and faults.unreachable(now, machine):
            # A dead switch looks exactly like a dead PC from here: the
            # coordinator pays the same fast-fail timeout.
            down = "no route to host (partition)"
        elif not machine.powered:
            down = "no route to host"
        else:
            down = None
        if down is not None:
            error = MachineUnreachable(f"{spec.hostname}: {down}")
            elapsed = self._off_timeout
            if control is not None:
                deadline = control.pass_deadline[spec.lab]
                if deadline is not None and deadline < elapsed:
                    control.note_fastfail_cut()
                    control.observe(spec.machine_id, now + deadline, False,
                                    None)
                    return ResilientOutcome(result=None, elapsed=deadline,
                                            error=error, fastfail_cut=True)
                control.observe(spec.machine_id, now + elapsed, False, None)
            return RemoteOutcome(result=None, elapsed=elapsed, error=error)
        primary = float(self._rng.uniform(*self._latency))
        if faults is not None:
            primary *= faults.latency_factor(now, machine)
        latency = primary
        hedged = hedge_won = False
        if control is not None:
            threshold = control.pass_hedge[spec.lab]
            if (threshold is not None and primary > threshold
                    and control.take_hedge()):
                # The duplicate is dispatched the moment the primary is
                # known slow (the threshold instant) and races it.  It
                # rides a fresh connection, so it does not inherit the
                # transient stall inflating the primary -- that is what
                # makes hedging win.
                duplicate = control.draw_hedge_latency(*self._latency)
                hedged = True
                hedge_won = threshold + duplicate < primary
                latency = min(primary, threshold + duplicate)
                control.note_hedge(hedge_won)
        if self._obs is not None and self._observes(spec.lab):
            self._latency_hist(spec.lab).observe(latency)
        if control is not None:
            control.observe(spec.machine_id, now + latency, True, primary)
        result = None
        error = None
        elapsed = latency
        if not credentials.matches(self._admin):
            error = AccessDenied(
                f"{spec.hostname}: logon failure for {credentials.username!r}"
            )
        elif faults is not None and faults.denies_access(now, machine):
            error = AccessDenied(
                f"{spec.hostname}: transient logon failure for "
                f"{credentials.username!r}",
                transient=True,
            )
        else:
            # The probe observes the machine at the instant it actually
            # runs, i.e. after the remote-execution latency has elapsed.
            exec_time = now + latency
            result = probe.run(Win32Api(machine), exec_time)
            if faults is not None:
                corrupted = faults.corrupt_stdout(exec_time, machine,
                                                  result.stdout)
                if corrupted is not None:
                    result = dataclasses.replace(result, stdout=corrupted)
            elapsed = latency + result.cpu_seconds
        if hedged:
            return ResilientOutcome(result=result, elapsed=elapsed,
                                    error=error, latency=primary,
                                    hedged=True, hedge_won=hedge_won)
        return RemoteOutcome(result=result, elapsed=elapsed, error=error)

"""Trace record types.

A :class:`Sample` is the parsed content of one successful W32Probe
execution -- the atom of the whole study (583,653 of them in the paper).
:class:`StaticInfo` holds the per-machine static metrics, stored once.
:class:`TraceMeta` carries the experiment-level context every analysis
needs (attempt accounting, sampling period, fleet identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Sample", "StaticInfo", "TraceMeta"]


@dataclass(frozen=True, slots=True)
class Sample:
    """One probe report collected from one machine at one instant.

    Field semantics follow W32Probe's wire format (section 3.1 of the
    paper): boot-relative counters reset on reboot; SMART counters span
    the disk's whole life; ``session_start`` is NaN when nobody is logged
    in.
    """

    machine_id: int
    hostname: str
    lab: str
    iteration: int
    t: float                 #: absolute collection time, seconds
    boot_time: float         #: absolute boot time, seconds
    uptime_s: float          #: seconds since boot
    cpu_idle_s: float        #: idle-thread seconds since boot
    mem_load_pct: float      #: main-memory load, 0..100
    swap_load_pct: float     #: pagefile load, 0..100
    disk_total_b: int        #: disk capacity, bytes
    disk_free_b: int         #: free disk space, bytes
    smart_cycles: int        #: SMART power-cycle count (whole life)
    smart_poh_h: float       #: SMART power-on hours (whole life)
    net_sent_b: int          #: NIC bytes sent since boot
    net_recv_b: int          #: NIC bytes received since boot
    has_session: bool        #: an interactive session is open
    username: str = ""       #: session account, "" when free
    session_start: float = float("nan")  #: logon time, NaN when free

    def __post_init__(self) -> None:
        if self.uptime_s < 0:
            raise ValueError("uptime cannot be negative")
        if self.cpu_idle_s < -1e-6 or self.cpu_idle_s > self.uptime_s + 1e-6:
            raise ValueError("idle time must lie within [0, uptime]")
        if self.has_session != bool(self.username):
            raise ValueError("session flag and username are inconsistent")
        if self.has_session and math.isnan(self.session_start):
            raise ValueError("an open session needs a start time")

    @property
    def disk_used_b(self) -> int:
        """Bytes in use on the local disk."""
        return self.disk_total_b - self.disk_free_b

    def session_age(self) -> float:
        """Seconds since logon (NaN when no session is open)."""
        if not self.has_session:
            return float("nan")
        return self.t - self.session_start


@dataclass(frozen=True, slots=True)
class StaticInfo:
    """Static metrics of one machine (section 3.1.1)."""

    machine_id: int
    hostname: str
    lab: str
    cpu_name: str
    cpu_mhz: float
    os_name: str
    ram_mb: int
    swap_mb: int
    disk_serial: str
    disk_total_b: int
    mac: str
    nbench_int: float = float("nan")
    nbench_fp: float = float("nan")

    @property
    def perf_index(self) -> float:
        """50/50 INT+FP combined NBench index (NaN if not benchmarked)."""
        return 0.5 * self.nbench_int + 0.5 * self.nbench_fp


@dataclass
class TraceMeta:
    """Experiment-level context attached to a trace.

    Attributes
    ----------
    n_machines:
        Fleet size the coordinator iterated over.
    sample_period:
        Seconds between iterations (900 in the paper).
    horizon:
        Experiment length in seconds.
    iterations_scheduled / iterations_run:
        Iteration accounting; the paper ran 6,883 of 7,392 possible.
    attempts / timeouts:
        Per-experiment probe attempt accounting (off machines time out).
    access_denied / samples_collected / parse_failures:
        Per-category outcome accounting: credential rejections, attempts
        that yielded a stored sample, and reports the post-collecting
        code dropped as unparseable.
    retries / retries_recovered:
        Transient-failure retry accounting (0 unless the retry layer is
        enabled via ``DdcParams.retry_limit``).
    retries_skipped:
        Failed attempts for which retry budget remained but was withheld
        because the failure is deterministic (credential mismatch, or an
        unreachable machine with ``retry_unreachable`` off).
    shed / breaker_skipped:
        Machine-slots the resilience control plane skipped: load-shed
        under iteration-budget pressure, or blocked by an open circuit
        breaker.  Both 0 unless a ``ResiliencePolicy`` is attached; they
        complete the accounting identity ``iterations_run * n_machines
        == attempts + shed + breaker_skipped``.
    hedges / hedge_wins:
        Hedged duplicate probes dispatched for latency stragglers, and
        how many of the duplicates beat the primary.
    statics:
        Per-machine static info keyed by ``machine_id``.
    """

    n_machines: int
    sample_period: float
    horizon: float
    iterations_scheduled: int = 0
    iterations_run: int = 0
    attempts: int = 0
    timeouts: int = 0
    access_denied: int = 0
    samples_collected: int = 0
    parse_failures: int = 0
    retries: int = 0
    retries_recovered: int = 0
    retries_skipped: int = 0
    shed: int = 0
    breaker_skipped: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    statics: Dict[int, StaticInfo] = field(default_factory=dict)

    @property
    def response_rate(self) -> float:
        """Fraction of probe attempts that produced a sample."""
        if self.attempts == 0:
            return float("nan")
        return 1.0 - self.timeouts / self.attempts

    @property
    def sample_rate(self) -> float:
        """Fraction of attempts that yielded a *stored* sample.

        Equal to :attr:`response_rate` in a fault-free run; lower when
        access-denied storms or telemetry corruption eat attempts that
        were not timeouts.
        """
        if self.attempts == 0:
            return float("nan")
        return self.samples_collected / self.attempts

    def machine_ids(self) -> List[int]:
        """Sorted machine identifiers present in :attr:`statics`."""
        return sorted(self.statics)

    def static_for(self, machine_id: int) -> Optional[StaticInfo]:
        """Static info for one machine, or ``None`` if never collected."""
        return self.statics.get(machine_id)

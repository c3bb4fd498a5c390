"""Experiment configuration.

Every stochastic knob of the reproduction lives here, grouped by the
subsystem that consumes it.  Defaults are **calibrated** so that a default
77-day run lands near the paper's headline numbers (Table 2, Figs 2-6);
``repro.calibration`` documents the targets and measures the fit.

The configuration is deliberately plain-dataclass: hashable-by-content,
copyable with :func:`dataclasses.replace`, and serialisable for
provenance.  Nothing here reaches into the simulation; the fleet builder
reads it once at construction time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.resilience.policy import ResiliencePolicy
from repro.sim.calendar import DAY, HOUR, MINUTE

__all__ = [
    "BehaviorParams",
    "PowerParams",
    "WorkloadParams",
    "DdcParams",
    "SmartParams",
    "ExperimentConfig",
    "paper_config",
]


@dataclass(frozen=True)
class BehaviorParams:
    """User behaviour: class attendance, walk-ins, session lengths.

    Calibration anchors (paper):

    - 16.3% of probe attempts hit an occupied machine (Table 2),
    - 22% of collected login samples belong to forgotten sessions
      (87,830 / 393,970 reclassified in section 4.2),
    - Fig 2: mean CPU idleness first exceeds 99% in relative hour [10, 11).
    """

    #: Probability a two-hour timetable slot actually hosts a class.
    class_density: float = 0.42
    #: Probability a machine is taken by a student during a class block.
    class_occupancy: float = 0.43
    #: Saturday timetable density (fewer classes are taught on Saturdays).
    saturday_density: float = 0.12
    #: Mean gap (seconds) between walk-in arrivals at a *free* machine
    #: during open, non-class hours.
    walkin_mean_gap: float = 8.0 * HOUR
    #: Walk-in demand multiplier per weekday (Mon..Sun); evenings and
    #: weekends see less traffic.
    weekday_demand: Tuple[float, ...] = (1.0, 1.05, 1.0, 1.0, 0.9, 0.45, 0.0)
    #: Log-normal session duration: median (seconds) and sigma of log.
    session_median: float = 1.10 * HOUR
    session_sigma: float = 1.0
    #: Minimum / maximum credible session durations (seconds).
    session_min: float = 5 * MINUTE
    session_max: float = 12.0 * HOUR
    #: Probability a user walks away without logging out.
    p_forget: float = 0.22
    #: Number of labs hosting the CPU-heavy Tuesday-afternoon class.
    cpu_heavy_labs: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_forget <= 1.0:
            raise ValueError("p_forget must be a probability")
        if self.session_min <= 0 or self.session_max <= self.session_min:
            raise ValueError("session duration bounds must be ordered and positive")
        if len(self.weekday_demand) != 7:
            raise ValueError("weekday_demand needs exactly 7 entries")


@dataclass(frozen=True)
class PowerParams:
    """Machine power on/off policy.

    Calibration anchors (paper):

    - 50.2% average powered-on ratio; only ~30/169 machines above 0.5
      cumulated uptime, fewer than 10 above 0.8 and none above 0.9 (Fig 4),
    - 10,688 DDC-visible machine sessions averaging 15 h 55 m,
    - SMART power cycles 30% above DDC-visible sessions (1.07/day/machine),
      i.e. many sub-15-minute power cycles.
    """

    #: Seconds a machine takes to boot to the logon screen.
    boot_duration: float = 90.0
    #: Probability the user powers the machine off after logging out,
    #: during daytime (before :attr:`evening_hour`).
    p_off_after_use_day: float = 0.26
    #: Same, during the evening.
    p_off_after_use_evening: float = 0.71
    #: Hour of day after which the evening power-off propensity applies.
    evening_hour: float = 19.0
    #: Probability the closing staff sweep powers off a running machine.
    p_off_at_close: float = 0.82
    #: Beta(a, b) distribution of each machine's "left powered on" bias;
    #: the bias attenuates the power-off probabilities.
    leave_on_bias_beta: Tuple[float, float] = (0.9, 4.2)
    #: Fraction of machines habitually left powered on (Fig. 4's right
    #: tail of high-uptime machines).
    night_owl_fraction: float = 0.20
    #: Mean number of short (< 15 min) power cycles per machine per day
    #: during open hours -- crashes, quick look-ups, aborted boots.  These
    #: are visible to SMART but mostly invisible to 15-min sampling.
    short_cycles_per_day: float = 1.0
    #: Bounds of a short power cycle's uptime (seconds).
    short_cycle_uptime: Tuple[float, float] = (1.5 * MINUTE, 9 * MINUTE)
    #: Probability a machine is already powered on when the experiment
    #: starts (Monday 00:00) -- the real fleet had machines left running
    #: over the weekend.  Split by night-owl trait.
    initial_on_owl: float = 0.75
    initial_on_other: float = 0.10

    def __post_init__(self) -> None:
        for name in ("p_off_after_use_day", "p_off_after_use_evening", "p_off_at_close"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.boot_duration <= 0:
            raise ValueError("boot_duration must be positive")


@dataclass(frozen=True)
class WorkloadParams:
    """Resource-usage levels per activity state.

    Calibration anchors (Table 2): CPU idleness 99.7% free / 94.2%
    occupied; RAM load 54.8% / 67.6%; swap 25.7% / 32.8%; disk used
    13.6 GB regardless of login; traffic 255/359 bps free vs 2602/8662 bps
    occupied (sent/received).
    """

    #: Mean CPU busy fraction of an unattended, logged-out machine
    #: (services, AV signature updates, SMB chatter).
    background_busy_mean: float = 0.002
    background_busy_sigma: float = 0.002
    #: Log-normal interactive CPU busy fraction: median and sigma-of-log.
    interactive_busy_median: float = 0.055
    interactive_busy_sigma: float = 0.75
    #: Mean CPU busy fraction during the anomalous CPU-heavy class.
    heavy_class_busy_mean: float = 0.50
    heavy_class_busy_sigma: float = 0.08
    #: Seconds between intra-session activity re-draws (burstiness).
    activity_redraw_period: float = 20 * MINUTE
    #: OS-resident memory fraction of RAM by installed-RAM megabytes.
    os_mem_frac: Dict[int, float] = field(
        default_factory=lambda: {512: 0.44, 256: 0.53, 128: 0.67}
    )
    os_mem_frac_sigma: float = 0.03
    #: Interactive application working set as a fraction of RAM.
    apps_mem_frac_mean: float = 0.15
    apps_mem_frac_sigma: float = 0.045
    #: Memory load ceiling (Windows keeps some pages free).
    mem_load_cap: float = 0.95
    #: Baseline pagefile load fraction and its per-machine spread.
    swap_base_mean: float = 0.25
    swap_base_sigma: float = 0.05
    #: Additional pagefile load while a session is active.
    swap_session_delta: float = 0.070
    #: Base disk usage model: ``used_gb = disk_base_gb + disk_frac * capacity``.
    disk_base_gb: float = 9.2
    disk_frac: float = 0.105
    disk_sigma_gb: float = 1.3
    #: Temporary-space quota (bytes) by disk capacity: small disks grant
    #: 100 MB, large disks 300 MB (section 5's usage policy).
    temp_quota_small: int = 100 * 10**6
    temp_quota_large: int = 300 * 10**6
    temp_quota_disk_threshold_gb: float = 20.0
    #: Idle network rates, bytes per second (sent, received).
    idle_net_bps: Tuple[float, float] = (185.0, 200.0)
    #: Interactive network rates, bytes per second (sent, received).
    active_net_bps: Tuple[float, float] = (4100.0, 14300.0)
    #: Sigma of the log-normal noise applied to network rates.
    net_sigma: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_load_cap <= 1.0:
            raise ValueError("mem_load_cap must be in (0, 1]")
        if self.disk_base_gb < 0 or self.disk_frac < 0:
            raise ValueError("disk usage model must be non-negative")


@dataclass(frozen=True)
class DdcParams:
    """Distributed Data Collector settings (section 3 / 4.2).

    The paper attempted an iteration every 15 minutes and completed 6,883
    iterations in 77 days (93.1% of the 7,392 possible), the remainder
    lost to coordinator downtime; we model that with an availability
    probability per iteration.
    """

    #: Seconds between successive probing iterations.
    sample_period: float = 15 * MINUTE
    #: Probability that a scheduled iteration actually runs.
    coordinator_availability: float = 0.931
    #: Seconds of remote-execution latency per powered-on machine.
    exec_latency: Tuple[float, float] = (0.25, 0.9)
    #: Seconds wasted before concluding a powered-off machine timed out
    #: (psexec fast-fails; perfmon/WMI were rejected for multi-second
    #: timeouts).
    off_timeout: float = 1.5
    #: Bounded retries per machine per iteration for *transient* failures
    #: (access-denied storms, and unreachability when
    #: :attr:`retry_unreachable` is set).  0 -- the paper's behaviour --
    #: disables the retry layer entirely.
    retry_limit: int = 0
    #: Seconds waited before the first retry; doubles per further retry.
    retry_backoff: float = 5.0
    #: Whether :class:`~repro.errors.MachineUnreachable` is retried too.
    #: Off by default: on a half-powered-off fleet most unreachables are
    #: permanent for the iteration and retries only burn timeout budget.
    retry_unreachable: bool = False
    #: Optional :class:`~repro.resilience.ResiliencePolicy` engaging the
    #: adaptive control plane (circuit breakers, health scores, hedged
    #: probes, load shedding).  ``None`` -- the default -- keeps the
    #: paper's behaviour with bit-identical traces.
    resilience: Optional[ResiliencePolicy] = None

    def __post_init__(self) -> None:
        # NaN slips through plain comparisons (nan <= 0 is False), so
        # every bound is checked for finiteness first.
        if not math.isfinite(self.sample_period) or self.sample_period <= 0:
            raise ValueError("sample_period must be positive and finite")
        if not 0.0 < self.coordinator_availability <= 1.0:
            raise ValueError("coordinator_availability must be in (0, 1]")
        lo, hi = self.exec_latency
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
            raise ValueError(
                f"exec_latency bounds must be finite, non-negative and "
                f"ordered, got {self.exec_latency!r}"
            )
        if not math.isfinite(self.off_timeout) or self.off_timeout <= 0:
            raise ValueError("off_timeout must be positive and finite")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")
        if not math.isfinite(self.retry_backoff) or self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive and finite")


@dataclass(frozen=True)
class SmartParams:
    """Pre-experiment SMART history (section 5.2.2)."""

    age_years_range: Tuple[float, float] = (0.5, 3.0)
    uptime_per_cycle_mean_h: float = 4.6
    uptime_per_cycle_std_h: float = 5.2
    daily_cycles_mean: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level configuration of a monitoring experiment run."""

    #: Root seed for all random streams.
    seed: int = 2005
    #: Experiment length in days (the paper ran 77 = 11 weeks).
    days: int = 77
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    power: PowerParams = field(default_factory=PowerParams)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    ddc: DdcParams = field(default_factory=DdcParams)
    smart: SmartParams = field(default_factory=SmartParams)
    #: Worker processes collecting the run as lab-aligned shards whose
    #: merged trace is byte-identical to the sequential one (1 -- the
    #: default -- is the classic in-process run).  See docs/sharding.md.
    shards: int = 1
    #: Probing-pass implementation: ``"auto"`` (columnar when the run is
    #: eligible, per-object otherwise), ``"object"`` (always per-object),
    #: or ``"columnar"`` (require the columnar kernel; an ineligible run
    #: raises instead of silently falling back).  Both kernels produce
    #: byte-identical traces; see docs/columnar.md.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("experiment length must be at least one day")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.kernel not in ("auto", "object", "columnar"):
            raise ValueError(
                f"kernel must be 'auto', 'object' or 'columnar', "
                f"got {self.kernel!r}"
            )

    @property
    def horizon(self) -> float:
        """Experiment length in seconds."""
        return self.days * DAY

    def replace(self, **kwargs: Any) -> "ExperimentConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form, for provenance records."""
        return dataclasses.asdict(self)


def paper_config(seed: int = 2005, days: int = 77) -> ExperimentConfig:
    """The calibrated configuration reproducing the paper's experiment."""
    return ExperimentConfig(seed=seed, days=days)

"""Resource-usage workload model.

Maps activity states (unattended, interactive, CPU-heavy class) to the
resource levels a machine exhibits: CPU busy fraction, memory and swap
load, temporary disk usage and NIC traffic rates.  The numeric anchors are
Table 2 of the paper; see :class:`repro.config.WorkloadParams` for the
calibrated constants.

Each machine gets a fixed "personality" (:class:`MachinePersonality`)
drawn once from its own random stream -- the OS-resident set, baseline
pagefile usage and installed-software footprint differ machine to machine
but are stable in time, which is exactly what the paper observes (e.g.
disk usage independent of login state, RAM load never below ~50%).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.config import WorkloadParams
from repro.machines.hardware import MachineSpec

__all__ = ["MachinePersonality", "SessionWorkload", "WorkloadModel"]


@dataclass(frozen=True)
class MachinePersonality:
    """Per-machine stable workload characteristics.

    Attributes
    ----------
    os_mem_frac:
        Fraction of RAM held by the OS and resident services when nobody
        is logged in.
    swap_base_frac:
        Pagefile load fraction with no interactive session.
    base_disk_used_bytes:
        OS image + class software footprint on the local disk.
    background_busy:
        CPU busy fraction of the unattended machine.
    """

    os_mem_frac: float
    swap_base_frac: float
    base_disk_used_bytes: int
    background_busy: float


@dataclass(frozen=True)
class SessionWorkload:
    """Resource demands of one interactive session.

    Attributes
    ----------
    busy_mean:
        The session's characteristic CPU busy fraction (re-drawn around
        this mean during the session to model burstiness).
    apps_mem_frac:
        Application working set as a fraction of RAM.
    temp_disk_bytes:
        Local temporary files created by the user (within quota).
    heavy:
        Whether this is the CPU-heavy class workload.
    """

    busy_mean: float
    apps_mem_frac: float
    temp_disk_bytes: int
    heavy: bool

    @cached_property
    def busy_mu(self) -> float:
        """Log-scale location of the intra-session busy re-draws.

        Cached on the session, so it lives and dies with it.  ``np.log``
        rather than ``math.log``: NumPy's float64 log need not match libm
        in the last ulp, and the trace bytes depend on this value.
        """
        return float(np.log(max(self.busy_mean, 1e-3)))


class WorkloadModel:
    """Draws workload levels from calibrated distributions.

    Parameters
    ----------
    params:
        The calibrated :class:`~repro.config.WorkloadParams`.
    """

    def __init__(self, params: WorkloadParams):
        self.params = params
        # Hot-path draw constants, precomputed with the same numpy ops the
        # inline expressions used so every value stays bit-identical.
        self._log_interactive_busy = float(np.log(params.interactive_busy_median))
        shift = 0.5 * params.net_sigma ** 2
        self._net_mu = {
            True: (
                float(np.log(params.active_net_bps[0]) - shift),
                float(np.log(params.active_net_bps[1]) - shift),
            ),
            False: (
                float(np.log(params.idle_net_bps[0]) - shift),
                float(np.log(params.idle_net_bps[1]) - shift),
            ),
        }

    # ------------------------------------------------------------------
    # per-machine personality
    # ------------------------------------------------------------------
    def personality(
        self, spec: MachineSpec, rng: np.random.Generator
    ) -> MachinePersonality:
        """Draw the machine's stable workload characteristics."""
        p = self.params
        base_frac = p.os_mem_frac.get(spec.ram_mb)
        if base_frac is None:
            # Interpolate for RAM sizes outside the Table-1 catalogue:
            # smaller machines hold proportionally more OS.
            keys = sorted(p.os_mem_frac)
            fracs = [p.os_mem_frac[k] for k in keys]
            base_frac = float(np.interp(spec.ram_mb, keys, fracs))
        os_frac = float(min(max(rng.normal(base_frac, p.os_mem_frac_sigma), 0.25), 0.92))
        swap_base = float(min(max(rng.normal(p.swap_base_mean, p.swap_base_sigma), 0.05), 0.6))
        used_gb = p.disk_base_gb + p.disk_frac * spec.disk_gb + rng.normal(0.0, p.disk_sigma_gb)
        used_gb = float(min(max(used_gb, 2.0), 0.9 * spec.disk_gb))
        busy = float(min(max(
            rng.normal(p.background_busy_mean, p.background_busy_sigma), 0.0003), 0.03
        ))
        return MachinePersonality(
            os_mem_frac=os_frac,
            swap_base_frac=swap_base,
            base_disk_used_bytes=int(used_gb * 1e9),
            background_busy=busy,
        )

    # ------------------------------------------------------------------
    # per-session demands
    # ------------------------------------------------------------------
    def session_workload(
        self, spec: MachineSpec, rng: np.random.Generator, *, heavy: bool = False
    ) -> SessionWorkload:
        """Draw the demands of a new interactive session."""
        p = self.params
        if heavy:
            busy = float(min(max(
                rng.normal(p.heavy_class_busy_mean, p.heavy_class_busy_sigma), 0.2), 0.95
            ))
        else:
            busy = float(min(max(
                rng.lognormal(self._log_interactive_busy, p.interactive_busy_sigma),
                0.005),
                0.60,
            ))
        apps = float(min(max(
            rng.normal(p.apps_mem_frac_mean, p.apps_mem_frac_sigma), 0.03), 0.45
        ))
        quota = self.temp_quota(spec)
        temp = int(rng.uniform(0.05, 1.0) * quota)
        return SessionWorkload(
            busy_mean=busy, apps_mem_frac=apps, temp_disk_bytes=temp, heavy=heavy
        )

    def temp_quota(self, spec: MachineSpec) -> int:
        """Temporary-space quota granted on this machine (usage policy:
        100 MB on small disks, 300 MB on large ones)."""
        p = self.params
        if spec.disk_gb < p.temp_quota_disk_threshold_gb:
            return p.temp_quota_small
        return p.temp_quota_large

    # ------------------------------------------------------------------
    # instantaneous levels
    # ------------------------------------------------------------------
    def redraw_busy(
        self, session: SessionWorkload, rng: np.random.Generator
    ) -> float:
        """Intra-session CPU burstiness: re-draw around the session mean."""
        if session.heavy:
            lo, hi = 0.15, 0.95
            sigma = 0.35
        else:
            lo, hi = 0.003, 0.70
            sigma = 0.55
        return float(min(max(rng.lognormal(session.busy_mu, sigma), lo), hi))

    def memory_loads(
        self,
        spec: MachineSpec,
        personality: MachinePersonality,
        session: SessionWorkload | None,
    ) -> Tuple[float, float]:
        """``(mem_load_pct, swap_load_pct)`` for the current state.

        Requested memory beyond the :attr:`WorkloadParams.mem_load_cap`
        ceiling spills into the pagefile, which is why small-RAM machines
        show both saturated RAM and elevated swap when occupied.
        """
        p = self.params
        requested_frac = personality.os_mem_frac
        swap_frac = personality.swap_base_frac
        if session is not None:
            requested_frac += session.apps_mem_frac
            swap_frac += p.swap_session_delta
        mem_frac = min(requested_frac, p.mem_load_cap)
        overflow = max(0.0, requested_frac - p.mem_load_cap)
        # Spilled pages land in the pagefile, scaled by RAM/pagefile ratio.
        if spec.swap_bytes > 0:
            swap_frac += overflow * (spec.ram_bytes / spec.swap_bytes)
        return 100.0 * mem_frac, 100.0 * float(min(max(swap_frac, 0.0), 1.0))

    def net_rates(
        self, rng: np.random.Generator, *, occupied: bool
    ) -> Tuple[float, float]:
        """Draw ``(sent_bps, recv_bps)`` for the current activity state.

        Log-normal noise with the calibrated sigma reproduces the bursty
        traffic whose *averages* Table 2 reports; the mean of
        ``lognormal(mu, s)`` is ``exp(mu + s^2/2)``, so we shift ``mu`` to
        hit the target mean.

        Two scalar draws: on a per-event path an array-parameter
        ``Generator`` call costs several times the scalar calls it
        replaces, and consumes the stream identically.
        """
        mu_sent, mu_recv = self._net_mu[occupied]
        sigma = self.params.net_sigma
        return rng.lognormal(mu_sent, sigma), rng.lognormal(mu_recv, sigma)

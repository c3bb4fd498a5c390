"""The simulated Windows 2000 machine.

:class:`SimMachine` is the state container every other subsystem touches:

- the **behaviour/power layer** (:mod:`repro.sim`) boots it, logs users in
  and out, and adjusts its resource-usage levels at event times;
- the **probe layer** (:mod:`repro.ddc`) reads it through the
  :mod:`repro.machines.winapi` facade exactly as W32Probe reads a real
  machine through win32 calls.

State is piecewise-constant between events.  Cumulative boot-relative
counters -- the idle-thread CPU time and the NIC total-bytes counters --
are materialised lazily: the machine stores the accumulation up to the
last state change plus the current rate, and integrates on read.  This is
both exact and O(1) per event, which keeps a 77-day fleet run cheap (see
DESIGN.md section 6).

Windows semantics honoured here:

- uptime, idle-thread time and NIC byte counters reset at boot;
- ``dwMemoryLoad`` is an instantaneous 0..100 percentage;
- the SMART disk counters (power cycles, power-on hours) span the whole
  machine life and survive reboots;
- at most one interactive (console) session exists at a time, as on a
  Windows 2000 Professional workstation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import MachineStateError
from repro.machines.hardware import MachineSpec
from repro.machines.smart import SmartDisk

__all__ = ["InteractiveSession", "BootRecord", "SessionRecord", "SimMachine"]


@dataclass
class InteractiveSession:
    """A live interactive login session.

    Attributes
    ----------
    username:
        Account name of the logged-in student.
    start:
        Absolute simulation time of the login.
    forgotten:
        Ground-truth flag: the user walked away without logging out.  The
        probe never sees this; it exists so analyses can be validated
        against truth (section 4.2's >= 10 h heuristic).
    """

    username: str
    start: float
    forgotten: bool = False


@dataclass(frozen=True)
class BootRecord:
    """Ground-truth machine session (boot -> shutdown), for validation."""

    boot_time: float
    shutdown_time: float

    @property
    def duration(self) -> float:
        """Uptime of the session in seconds."""
        return self.shutdown_time - self.boot_time


@dataclass(frozen=True)
class SessionRecord:
    """Ground-truth interactive session (login -> logout), for validation."""

    username: str
    start: float
    end: float
    forgotten: bool

    @property
    def duration(self) -> float:
        """Length of the login session in seconds."""
        return self.end - self.start


@dataclass
class _Counters:
    """Boot-relative cumulative counters plus their current rates."""

    last_update: float = 0.0
    idle_acc: float = 0.0          # idle-thread seconds accumulated
    busy_frac: float = 0.0         # current CPU busy fraction in [0, 1]
    sent_acc: float = 0.0          # bytes sent accumulated
    recv_acc: float = 0.0          # bytes received accumulated
    sent_bps: float = 0.0          # current send rate, bytes/s
    recv_bps: float = 0.0          # current receive rate, bytes/s


class SimMachine:
    """Full dynamic state of one simulated classroom machine.

    Parameters
    ----------
    spec:
        Static hardware description (a Table-1 machine).
    disk:
        The machine's :class:`~repro.machines.smart.SmartDisk`.  Created
        powered-off; :meth:`boot` powers it with the machine.
    base_disk_used_bytes:
        Bytes occupied by the OS image and class software (the paper's
        stable ~13.6 GB average component).
    """

    def __init__(
        self,
        spec: MachineSpec,
        disk: SmartDisk,
        *,
        base_disk_used_bytes: int = 0,
    ):
        if base_disk_used_bytes < 0:
            raise ValueError("base_disk_used_bytes must be non-negative")
        if base_disk_used_bytes > spec.disk_bytes:
            raise ValueError("base disk usage exceeds disk capacity")
        self.spec = spec
        self.disk = disk
        self._powered = False
        self._boot_time: Optional[float] = None
        self._c = _Counters()
        self._mem_load = 0.0
        self._swap_load = 0.0
        self._base_disk_used = int(base_disk_used_bytes)
        self._temp_disk_used = 0
        self._session: Optional[InteractiveSession] = None
        # optional columnar mirror (see repro.sim.kernel.FleetColumns)
        self._cols = None
        self._ci = -1
        # ground truth, for validating analyses against reality
        self.boot_log: List[BootRecord] = []
        self.session_log: List[SessionRecord] = []

    # ------------------------------------------------------------------
    # columnar mirror
    # ------------------------------------------------------------------
    def attach_columns(self, cols, index: int) -> None:
        """Attach a :class:`~repro.sim.kernel.FleetColumns` mirror.

        Snapshots the machine's full dynamic state into the arrays at
        roster position ``index``; from then on every mutator writes
        through, so the mirror is exact between events.
        """
        self._cols = cols
        self._ci = i = int(index)
        c = self._c
        bt = self._boot_time
        cols.powered[i] = self._powered
        cols.boot_time[i] = bt if bt is not None else 0.0
        cols.boot_time_r3[i] = float(f"{bt:.3f}") if bt is not None else 0.0
        cols.last_update[i] = c.last_update
        cols.idle_acc[i] = c.idle_acc
        cols.busy_frac[i] = c.busy_frac
        cols.sent_acc[i] = c.sent_acc
        cols.recv_acc[i] = c.recv_acc
        cols.sent_bps[i] = c.sent_bps
        cols.recv_bps[i] = c.recv_bps
        cols.mem_load[i] = self._mem_load
        cols.swap_load[i] = self._swap_load
        cols.disk_used[i] = self._base_disk_used + self._temp_disk_used
        disk = self.disk
        cols.cycles[i] = disk._power_cycles
        cols.poh_base_s[i] = disk._power_on_seconds
        since = disk._powered_since
        cols.on_since[i] = since if since is not None else 0.0
        s = self._session
        cols.has_session[i] = s is not None
        cols.session_start_r3[i] = float(f"{s.start:.3f}") if s is not None else 0.0
        cols.usernames[i] = s.username if s is not None else ""

    # ------------------------------------------------------------------
    # power lifecycle
    # ------------------------------------------------------------------
    @property
    def powered(self) -> bool:
        """Whether the machine is currently powered on."""
        return self._powered

    @property
    def boot_time(self) -> float:
        """Absolute time of the current boot (machine must be on)."""
        self._require_on()
        assert self._boot_time is not None
        return self._boot_time

    def boot(self, now: float) -> None:
        """Power the machine on, resetting all boot-relative counters."""
        if self._powered:
            raise MachineStateError(f"{self.spec.hostname} is already powered on")
        self._powered = True
        self._boot_time = float(now)
        self._c = _Counters(last_update=float(now))
        self._mem_load = 0.0
        self._swap_load = 0.0
        self._temp_disk_used = 0
        self.disk.power_on(now)
        cols = self._cols
        if cols is not None:
            i = self._ci
            t = self._boot_time
            cols.powered[i] = True
            cols.boot_time[i] = t
            cols.boot_time_r3[i] = float(f"{t:.3f}")
            cols.last_update[i] = t
            cols.idle_acc[i] = 0.0
            cols.busy_frac[i] = 0.0
            cols.sent_acc[i] = 0.0
            cols.recv_acc[i] = 0.0
            cols.sent_bps[i] = 0.0
            cols.recv_bps[i] = 0.0
            cols.mem_load[i] = 0.0
            cols.swap_load[i] = 0.0
            cols.disk_used[i] = self._base_disk_used
            cols.cycles[i] = self.disk._power_cycles
            cols.on_since[i] = t

    def shutdown(self, now: float) -> None:
        """Power the machine off, closing any open interactive session.

        Local temporary files of the session survive only until cleanup at
        next logon; we model the documented policy (users get 100-300 MB of
        temporary space "that can be cleaned after a session terminates")
        by reclaiming temp space at shutdown/logout.
        """
        self._require_on()
        if now < self._c.last_update:
            raise MachineStateError("shutdown time precedes last state change")
        if self._session is not None:
            self._close_session(now)
        assert self._boot_time is not None
        self.boot_log.append(BootRecord(self._boot_time, float(now)))
        self.disk.power_off(now)
        self._powered = False
        self._boot_time = None
        self._temp_disk_used = 0
        cols = self._cols
        if cols is not None:
            i = self._ci
            cols.powered[i] = False
            cols.poh_base_s[i] = self.disk._power_on_seconds
            cols.disk_used[i] = self._base_disk_used

    def uptime(self, now: float) -> float:
        """Seconds since boot (machine must be on)."""
        self._require_on()
        assert self._boot_time is not None
        if now < self._boot_time:
            raise MachineStateError("uptime query predates boot")
        return now - self._boot_time

    # ------------------------------------------------------------------
    # CPU and network accounting
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Fold the elapsed constant-rate segment into the accumulators."""
        c = self._c
        dt = now - c.last_update
        if dt < -1e-9:
            raise MachineStateError(
                f"state update moving backwards in time ({now} < {c.last_update})"
            )
        if dt > 0:
            c.idle_acc += dt * (1.0 - c.busy_frac)
            c.sent_acc += dt * c.sent_bps
            c.recv_acc += dt * c.recv_bps
            c.last_update = now
            cols = self._cols
            if cols is not None:
                i = self._ci
                cols.idle_acc[i] = c.idle_acc
                cols.sent_acc[i] = c.sent_acc
                cols.recv_acc[i] = c.recv_acc
                cols.last_update[i] = now

    def set_cpu_busy(self, now: float, busy_frac: float) -> None:
        """Change the CPU busy fraction effective from ``now`` onwards."""
        self._require_on()
        if not 0.0 <= busy_frac <= 1.0:
            raise ValueError(f"busy fraction must be in [0, 1], got {busy_frac}")
        self._advance(now)
        self._c.busy_frac = float(busy_frac)
        if self._cols is not None:
            self._cols.busy_frac[self._ci] = self._c.busy_frac

    @property
    def cpu_busy(self) -> float:
        """Current CPU busy fraction."""
        return self._c.busy_frac

    def cpu_idle_seconds(self, now: float) -> float:
        """Cumulated idle-thread CPU seconds since boot, as Windows'
        idle-process time counter reports (the probe's key CPU metric)."""
        self._require_on()
        c = self._c
        return c.idle_acc + max(0.0, now - c.last_update) * (1.0 - c.busy_frac)

    def set_net_rates(self, now: float, sent_bps: float, recv_bps: float) -> None:
        """Change NIC send/receive rates (bytes per second) from ``now``."""
        self._require_on()
        if sent_bps < 0 or recv_bps < 0:
            raise ValueError("network rates must be non-negative")
        self._advance(now)
        self._c.sent_bps = float(sent_bps)
        self._c.recv_bps = float(recv_bps)
        if self._cols is not None:
            i = self._ci
            self._cols.sent_bps[i] = self._c.sent_bps
            self._cols.recv_bps[i] = self._c.recv_bps

    def total_sent_bytes(self, now: float) -> float:
        """Total bytes sent since boot (NIC counter, resets on reboot)."""
        self._require_on()
        c = self._c
        return c.sent_acc + max(0.0, now - c.last_update) * c.sent_bps

    def total_recv_bytes(self, now: float) -> float:
        """Total bytes received since boot (NIC counter, resets on reboot)."""
        self._require_on()
        c = self._c
        return c.recv_acc + max(0.0, now - c.last_update) * c.recv_bps

    # ------------------------------------------------------------------
    # memory, swap, disk
    # ------------------------------------------------------------------
    def set_memory_load(self, now: float, mem_pct: float, swap_pct: float) -> None:
        """Set the instantaneous memory and swap load percentages."""
        self._require_on()
        if not (0.0 <= mem_pct <= 100.0 and 0.0 <= swap_pct <= 100.0):
            raise ValueError("memory/swap load must be percentages in [0, 100]")
        self._mem_load = float(mem_pct)
        self._swap_load = float(swap_pct)
        if self._cols is not None:
            i = self._ci
            self._cols.mem_load[i] = self._mem_load
            self._cols.swap_load[i] = self._swap_load

    @property
    def memory_load(self) -> float:
        """Main-memory load percentage (``dwMemoryLoad`` semantics)."""
        self._require_on()
        return self._mem_load

    @property
    def swap_load(self) -> float:
        """Pagefile (swap) load percentage."""
        self._require_on()
        return self._swap_load

    def set_temp_disk_used(self, bytes_used: int) -> None:
        """Set the session's temporary-files footprint on the local disk."""
        if bytes_used < 0:
            raise ValueError("temporary disk usage must be non-negative")
        if self._base_disk_used + bytes_used > self.spec.disk_bytes:
            raise MachineStateError("disk usage would exceed capacity")
        self._temp_disk_used = int(bytes_used)
        if self._cols is not None:
            self._cols.disk_used[self._ci] = (
                self._base_disk_used + self._temp_disk_used
            )

    @property
    def disk_used_bytes(self) -> int:
        """Bytes in use on the local disk (OS + class software + temp)."""
        return self._base_disk_used + self._temp_disk_used

    @property
    def disk_free_bytes(self) -> int:
        """Free bytes on the local disk."""
        return self.spec.disk_bytes - self.disk_used_bytes

    # ------------------------------------------------------------------
    # interactive sessions
    # ------------------------------------------------------------------
    @property
    def session(self) -> Optional[InteractiveSession]:
        """The live interactive session, or ``None``."""
        return self._session

    def login(self, now: float, username: str, *, forgotten: bool = False) -> None:
        """Open an interactive session for ``username``."""
        self._require_on()
        if self._session is not None:
            raise MachineStateError(
                f"{self.spec.hostname} already has a session for "
                f"{self._session.username!r}"
            )
        if not username:
            raise ValueError("username must be non-empty")
        self._session = InteractiveSession(username, float(now), forgotten)
        cols = self._cols
        if cols is not None:
            i = self._ci
            cols.has_session[i] = True
            cols.session_start_r3[i] = float(f"{self._session.start:.3f}")
            cols.usernames[i] = username

    def mark_forgotten(self) -> None:
        """Flag the live session as abandoned (ground truth only)."""
        if self._session is None:
            raise MachineStateError("no session to mark forgotten")
        self._session.forgotten = True

    def logout(self, now: float) -> None:
        """Close the interactive session and reclaim temporary disk space."""
        self._require_on()
        if self._session is None:
            raise MachineStateError(f"{self.spec.hostname} has no session")
        self._close_session(now)
        self._temp_disk_used = 0
        if self._cols is not None:
            self._cols.disk_used[self._ci] = self._base_disk_used

    def _close_session(self, now: float) -> None:
        assert self._session is not None
        s = self._session
        if now < s.start:
            raise MachineStateError("session end precedes its start")
        self.session_log.append(SessionRecord(s.username, s.start, float(now), s.forgotten))
        self._session = None
        if self._cols is not None:
            self._cols.has_session[self._ci] = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _require_on(self) -> None:
        if not self._powered:
            raise MachineStateError(f"{self.spec.hostname} is powered off")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self._powered else "off"
        user = self._session.username if self._session else "-"
        return f"SimMachine({self.spec.hostname}, {state}, user={user})"

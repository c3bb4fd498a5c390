"""Columnar fleet kernel: a NumPy mirror of per-machine dynamic state.

The discrete-event layer keeps one Python object per machine
(:class:`~repro.machines.machine.SimMachine`), which is the right shape
for sparse, irregular behavioural events -- but the DDC's probing pass
touches *every* machine every 15 simulated minutes, and at 10k-100k
machines that per-object walk dominates the run.  :class:`FleetColumns`
is the columnar counterpart: one fleet-wide array per dynamic field,
indexed by roster position.

Design
------
- **Write-through mirror.**  Machines stay the source of truth and the
  per-object API is unchanged; every mutator
  (:meth:`~repro.machines.machine.SimMachine.boot`, ``set_cpu_busy``,
  ``login``, ...) also writes its new value into the attached arrays.
  Observers, checkpoint pickling and every existing consumer keep
  working on the objects; the arrays are never stale because state only
  changes inside those mutators.
- **Frozen during a probe pass.**  A whole DDC iteration runs inside one
  engine event, so no machine event can interleave: the mirror is a
  consistent snapshot for the duration of the pass, and the vectorised
  pass (:meth:`repro.ddc.coordinator.DdcCoordinator._run_pass_columnar`)
  reads it wholesale instead of walking objects.
- **Draw-for-draw RNG discipline.**  The only stochastic input of a
  fault-free pass is one latency draw per powered-on machine from the
  coordinator's ``"ddc"`` stream, in roster order.  A batched
  ``Generator`` draw of length N consumes the bit stream exactly like N
  sequential scalar draws (pinned by ``tests/test_random.py``), so the
  columnar pass is bit-identical to the per-object one -- samples,
  cursor drift, and the RNG cursor itself.

``docs/columnar.md`` documents the array layout and the equivalence
argument in full.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from repro.traces.records import StaticInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machines.hardware import MachineSpec
    from repro.machines.machine import SimMachine

__all__ = ["PASS_INPUTS", "RosterColumns", "FleetColumns", "round3"]


def round3(values: np.ndarray) -> np.ndarray:
    """Vectorised, exact equivalent of ``float(f"{x:.3f}")`` per element.

    The probe wire format prints time-like fields with ``%.3f`` and the
    post-collector parses them back, so the stored double is the input
    rounded to the nearest 3-decimal value.  ``rint(x * 1000) / 1000``
    reproduces that in two correctly-rounded operations; it can only
    disagree with decimal formatting when ``x * 1000`` lands within one
    ulp of a rounding boundary ``k + 0.5`` (a double can never *equal*
    such a boundary -- ``0.0005`` needs a factor ``5**4`` in the
    denominator -- so nearest-rounding is unambiguous).  Those boundary
    elements, essentially never present, are redone with scalar
    formatting.
    """
    x = np.asarray(values, dtype=np.float64)
    y = x * 1000.0
    out = np.rint(y) / 1000.0
    risky = np.abs(y - np.floor(y) - 0.5) <= np.spacing(y)
    if risky.any():  # pragma: no cover - ~1e-13 probability per element
        flat = out.reshape(-1)
        xf = x.reshape(-1)
        for i in np.flatnonzero(risky.reshape(-1)):
            flat[i] = float(f"{xf[i]:.3f}")
    return out


#: The dynamic :class:`FleetColumns` fields the probing pass reads for
#: each powered machine, besides its username: what :meth:`FleetColumns
#: .gather` returns, and what a gathered shard worker ships per pass.
PASS_INPUTS = (
    "last_update", "boot_time", "boot_time_r3", "idle_acc", "busy_frac",
    "mem_load", "swap_load", "disk_used", "cycles", "poh_base_s",
    "on_since", "sent_acc", "recv_acc", "sent_bps", "recv_bps",
    "has_session", "session_start_r3",
)


class RosterColumns:
    """Static per-slot identity of a roster, built from its specs alone.

    The part of the pass's inputs that never changes: what the parent of
    a gathered shard plan (:class:`~repro.shard.gather.GatheredPasses`)
    knows without building a single machine.  Arrays are indexed by
    roster position.
    """

    def __init__(self, specs: Sequence["MachineSpec"]):
        self.n = len(specs)
        self.specs = list(specs)
        self.machine_id = np.array(
            [s.machine_id for s in specs], dtype=np.int32
        )
        self.hostnames: List[str] = [s.hostname for s in specs]
        self.labs: List[str] = [s.lab for s in specs]
        self.disk_total = np.array(
            [s.disk_bytes for s in specs], dtype=np.int64
        )
        self.total_page = np.array(
            [s.swap_bytes for s in specs], dtype=np.int64
        ).astype(np.float64)

    def static_info(self, i: int) -> StaticInfo:
        """The per-machine static record, exactly as the post-collector
        would register it from a parsed W32Probe report (including the
        ``%.0f`` round-trip of the CPU clock)."""
        spec = self.specs[i]
        return StaticInfo(
            machine_id=spec.machine_id,
            hostname=spec.hostname,
            lab=spec.lab,
            cpu_name=spec.cpu.model,
            cpu_mhz=float(f"{spec.cpu.mhz:.0f}"),
            os_name=spec.os_name,
            ram_mb=spec.ram_mb,
            swap_mb=spec.swap_mb,
            disk_serial=spec.disk_serial,
            disk_total_b=spec.disk_bytes,
            mac=spec.mac,
        )


class FleetColumns(RosterColumns):
    """Fleet-wide arrays mirroring every machine's dynamic state.

    Constructing the mirror attaches it to each machine (via
    :meth:`~repro.machines.machine.SimMachine.attach_columns`), which
    snapshots current state and turns on write-through for all later
    mutations.  Arrays are indexed by roster position -- the order of
    ``machines``, which is the coordinator's probing order.

    Field notes
    -----------
    - ``boot_time_r3`` / ``session_start_r3`` cache the ``%.3f``
      round-trip of their raw counterparts, maintained at boot/login
      time so the probing pass never string-formats per machine.
    - ``poh_base_s`` / ``on_since`` mirror the SMART disk's cumulative
      powered-seconds and current power-on instant, giving the
      power-on-hours counter in one closed-form expression.
    - ``disk_used`` folds base + temporary usage (the only two
      components of :attr:`SimMachine.disk_used_bytes`).
    """

    def __init__(self, machines: Sequence["SimMachine"]):
        super().__init__([m.spec for m in machines])
        n = self.n
        # dynamic mirror (write-through from SimMachine mutators)
        self.powered = np.zeros(n, dtype=bool)
        self.boot_time = np.zeros(n)
        self.boot_time_r3 = np.zeros(n)
        self.last_update = np.zeros(n)
        self.idle_acc = np.zeros(n)
        self.busy_frac = np.zeros(n)
        self.sent_acc = np.zeros(n)
        self.recv_acc = np.zeros(n)
        self.sent_bps = np.zeros(n)
        self.recv_bps = np.zeros(n)
        self.mem_load = np.zeros(n)
        self.swap_load = np.zeros(n)
        self.disk_used = np.zeros(n, dtype=np.int64)
        self.cycles = np.zeros(n, dtype=np.int64)
        self.poh_base_s = np.zeros(n)
        self.on_since = np.zeros(n)
        self.has_session = np.zeros(n, dtype=bool)
        self.session_start_r3 = np.zeros(n)
        self.usernames: List[str] = [""] * n
        for i, machine in enumerate(machines):
            machine.attach_columns(self, i)

    def gather(self, idx: np.ndarray) -> Dict[str, object]:
        """The gather step of the probing pass: the :data:`PASS_INPUTS`
        of the machines at roster positions ``idx``, plus ``username``
        (empty without a session), as of this instant."""
        rows: Dict[str, object] = {
            name: getattr(self, name)[idx] for name in PASS_INPUTS
        }
        unames = self.usernames
        rows["username"] = [
            unames[j] if h else ""
            for j, h in zip(idx.tolist(), rows["has_session"].tolist())
        ]
        return rows

    def pass_inputs(self, k: int, owned: np.ndarray):
        """``(on, rows)`` for the pass at this instant: the roster
        positions of every powered machine, and the gathered inputs of
        those in the ``owned`` mask.  ``k`` is unused: the live mirror
        always holds the current instant."""
        on = np.flatnonzero(self.powered)
        return on, self.gather(on[owned[on]])

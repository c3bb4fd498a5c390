"""Gathered shard runs: workers split the behaviour, the parent probes.

No worker of a ``shards>1`` run replays the whole roster.  Its worker
builds and simulates only the machines of the labs it owns -- every
spec, the calendar and every lab's demand are still built, so machine
ids and random streams are the full fleet's -- and a
:class:`PassRecorder` notes, at every iteration instant, which owned
machines are powered and the pass inputs of those
(:meth:`~repro.sim.kernel.FleetColumns.gather`), shipping a machine's
inputs again only when they changed.  The parent merges the shards'
recordings into roster order (:class:`GatheredPasses`) and runs the
one sequential pass over them -- the availability draw, the ``"ddc"``
latency draws and the cursor chain of the sequential run -- emitting
its rows in its order, with no sort: the columnar pass reads the merged
rows, the object pass a row-backed roster reloaded at each instant.

Why this is exact: an agent draws only from its own
``agent/<hostname>`` stream and touches only its own machine, so owned
behaviour does not depend on foreign agents.  A probe reads only its
own machine's inputs, and fault hooks and the resilience control plane
read only the spec, the power state and the time.  The recorder's
chain is scheduled where :meth:`~repro.ddc.coordinator.DdcCoordinator
.start` schedules iteration 0 and advances on the same ``origin +
(k+1) * period < horizon`` grid, so each record fires after that
instant's behaviour batch and sweep, exactly where the pass reads the
machines.  It records every instant, including those the parent's
availability draw then loses.  For the same reason a campaign that
loses a shard for good cannot pass over its survivors alone: the parent
re-simulates the lost labs and keeps only the survivors' rows
(:func:`repro.shard.merge.merge_degraded`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceFormatError
from repro.faults.plan import FaultPlan
from repro.machines.hardware import LabSpec, MachineSpec
from repro.machines.machine import SimMachine
from repro.recovery.rows import INPUTS
from repro.sim.engine import Simulator
from repro.sim.kernel import PASS_INPUTS, FleetColumns, RosterColumns

__all__ = ["GatheredRows", "PassRecorder", "GatheredPasses"]


@dataclass
class GatheredRows:
    """What one gathered shard worker ships back: its pass inputs.

    A *recorded row* is one owned machine powered at one instant, in
    ``(pass, roster position)`` order -- the order of
    ``np.nonzero(powered)``.  Most machines sit unchanged from one
    instant to the next (no behavioural event touched them), so only
    the rows whose inputs differ from the machine's previous record are
    shipped, and :attr:`source` points each recorded row at its shipped
    copy.
    """

    #: Roster positions of the shard's machines, ascending.
    owned: np.ndarray
    #: One row per recorded pass: which owned machines were powered.
    powered: np.ndarray
    #: For each recorded row, the index of its shipped row.
    source: np.ndarray
    #: The shipped rows: one array per :data:`~repro.sim.kernel
    #: .PASS_INPUTS` field, and their usernames.
    fields: Dict[str, np.ndarray]
    usernames: List[str]
    #: The task's lab catalog, NBench switch, pristine fault plan and
    #: post-collect strictness, which the parent's pass runs with.
    labs: Tuple[LabSpec, ...]
    collect_nbench: bool
    faults: Optional[FaultPlan]
    strict_postcollect: bool


class PassRecorder:
    """Records a shard's pass inputs at every iteration instant.

    Parameters
    ----------
    cols:
        The shard fleet's mirror, covering its owned machines only.
    sim:
        The fleet's engine; :meth:`start` must run after the fleet's
        own ``start`` so each record follows the instant's btick and
        sweep, as the coordinator's iteration does.
    period / horizon:
        The DDC sampling period and the run's end.

    After each record, as at the end of a coordinator's iteration, a
    bound recovery runtime's ``on_iteration_end(k, t, ran=True)``
    journals the instant (:meth:`encode`) and checkpoints when due, then
    a campaign worker's steering endpoint (:attr:`control`) heartbeats
    and applies PAUSE/RESUME/STOP and revocation.  A checkpoint pickles
    the recorder without its rows or hooks; :meth:`restore` refills the
    rows from the journal.
    """

    def __init__(self, cols: FleetColumns, sim: Simulator, period: float,
                 horizon: float):
        self.cols = cols
        self.sim = sim
        self.period = float(period)
        self.horizon = float(horizon)
        self.recovery = None
        self.control = None
        self._origin = 0.0
        self._started = False
        self._powered: List[np.ndarray] = []
        # seeded with an empty slice, so dtypes survive a shard that
        # never saw a powered machine
        self._fields: Dict[str, List[np.ndarray]] = {
            name: [getattr(cols, name)[:0]] for name in PASS_INPUTS
        }
        #: One list of usernames per recorded instant.
        self._usernames: List[List[str]] = []

    def __getstate__(self) -> dict:
        # The rows live in the journal and the hooks own file handles
        # and sockets; a resumed worker restores and rebinds them.
        state = self.__dict__.copy()
        state["recovery"] = state["control"] = None
        state["_powered"] = []
        state["_fields"] = {name: parts[:1]
                            for name, parts in self._fields.items()}
        state["_usernames"] = []
        return state

    def start(self) -> None:
        """Schedule the first record where the coordinator would
        schedule iteration 0 (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(0.0, self._record, 0, name="gather")

    def _record(self, k: int) -> None:
        start = self.sim.now
        if k == 0:
            self._origin = start
        powered = self.cols.powered.copy()
        rows = self.cols.gather(np.flatnonzero(powered))
        self._powered.append(powered)
        self._usernames.append(rows.pop("username"))
        for name, col in rows.items():
            self._fields[name].append(col)
        nxt = self._origin + (k + 1) * self.period
        if nxt < self.horizon:
            self.sim.schedule(nxt, self._record, k + 1, name="gather")
        if self.recovery is not None:
            self.recovery.on_iteration_end(k, start, ran=True)
        if self.control is not None:
            self.control.on_iteration(k, start, True)

    def encode(self, k: int) -> Tuple[int, bytes]:
        """Instant ``k``'s row count (its powered machines) and rows, as
        one :data:`~repro.recovery.rows.INPUTS` block: roster position,
        pass inputs and username (no bytes without a row)."""
        n = len(self._usernames[k])
        if not n:
            return 0, b""
        part: Dict[str, object] = {
            name: parts[k + 1] for name, parts in self._fields.items()
        }
        part["position"] = self.cols.machine_id[
            np.flatnonzero(self._powered[k])].astype(np.int64)
        part["username"] = self._usernames[k]
        return n, INPUTS.encode(part.__getitem__, 0, n)

    def restore(self, instants: Sequence[Optional[Dict[str, object]]]) -> None:
        """Refill the rows of instants ``0..len(instants)-1`` from their
        decoded :data:`~repro.recovery.rows.INPUTS` blocks (``None`` for
        an instant without a powered machine)."""
        for rows in instants:
            powered = np.zeros(self.cols.n, dtype=bool)
            if rows is not None:
                powered[np.searchsorted(self.cols.machine_id,
                                        rows["position"])] = True
            self._powered.append(powered)
            self._usernames.append(rows["username"] if rows else [])
            for name, parts in self._fields.items():
                parts.append(rows[name] if rows else parts[0])

    def rows(self, labs: Sequence[LabSpec], collect_nbench: bool,
             faults: Optional[FaultPlan],
             strict_postcollect: bool) -> GatheredRows:
        """Everything recorded so far, each repeated row shipped once."""
        powered = (np.stack(self._powered) if self._powered
                   else np.zeros((0, self.cols.n), dtype=bool))
        machine = np.nonzero(powered)[1]
        fields = {name: np.concatenate(parts)
                  for name, parts in self._fields.items()}
        usernames = np.array(
            list(itertools.chain.from_iterable(self._usernames)),
            dtype=object)
        # A row repeats when its machine's previous recorded row holds
        # the same inputs, bit for bit.
        by_machine = np.argsort(machine, kind="stable")
        m = machine[by_machine]
        repeat = np.zeros(m.size, dtype=bool)
        repeat[1:] = m[1:] == m[:-1]
        for col in (*fields.values(), usernames):
            c = col[by_machine]
            if c.dtype.kind == "f":
                c = c.view(np.int64)
            repeat[1:] &= c[1:] == c[:-1]
        # each row's source: the last non-repeating row of its machine
        last = np.maximum.accumulate(np.where(repeat, 0, np.arange(m.size)))
        shipped = np.empty(m.size, dtype=bool)
        shipped[by_machine] = ~repeat
        index = np.cumsum(shipped) - 1
        source = np.empty(m.size, dtype=np.int64)
        source[by_machine] = index[by_machine[last]]
        return GatheredRows(
            # build_fleet numbers machines by roster position
            owned=self.cols.machine_id.astype(np.int64),
            powered=powered,
            source=source,
            fields={name: col[shipped] for name, col in fields.items()},
            usernames=usernames[shipped].tolist(),
            labs=tuple(labs),
            collect_nbench=collect_nbench,
            faults=faults,
            strict_postcollect=strict_postcollect,
        )


class GatheredPasses(RosterColumns):
    """The parent's pass source: every shard's rows, in roster order.

    Recorded rows are sorted by ``(pass, roster position)`` within each
    shard, so a row's place in the merged order is its place in its own
    shard plus the number of other shards' rows that sort before it (a
    ``searchsorted`` each).  The merged order keeps, per row, only its
    roster position and the index of its shipped row; each pass gathers
    its inputs from the shipped rows, as a sequential pass gathers them
    from the mirror.

    The merge consumes the shards' rows, so the parent holds one copy
    of them.  Raises :class:`~repro.errors.TraceFormatError` when there
    are no shards, or they recorded no pass or different numbers of
    passes, overlap, or do not cover the roster.
    """

    def __init__(self, specs: Sequence[MachineSpec],
                 shards: Sequence[GatheredRows]):
        super().__init__(specs)
        n_passes = {len(s.powered) for s in shards}
        if len(n_passes) != 1 or 0 in n_passes:
            raise TraceFormatError(
                f"gathered shards recorded {sorted(n_passes) or 'no'} "
                "passes; every shard records each instant from 0"
            )
        self.n_passes = n_passes.pop()
        owned = np.concatenate([s.owned for s in shards])
        if np.unique(owned).size != owned.size:
            raise TraceFormatError(
                "gathered shards overlap on machines; shards must own "
                "disjoint machine sets"
            )
        if owned.size != self.n:
            raise TraceFormatError(
                f"gathered shards cover {owned.size} of the roster's "
                f"{self.n} machines"
            )
        positions, keys, sources = [], [], []
        shipped = 0
        for s in shards:
            k, m = np.nonzero(s.powered)
            positions.append(s.owned[m])
            keys.append(k * self.n + positions[-1])
            sources.append(s.source + shipped)
            shipped += len(s.usernames)
        total = sum(key.size for key in keys)
        self._on = np.empty(total, dtype=np.int64)
        self._source = np.empty(total, dtype=np.int64)
        for i, key in enumerate(keys):
            dest = np.arange(key.size)
            for j, other in enumerate(keys):
                if j != i:
                    dest += np.searchsorted(other, key)
            self._on[dest] = positions[i]
            self._source[dest] = sources[i]
        del positions, keys, sources
        counts = sum(s.powered.sum(axis=1) for s in shards)
        self._offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
        self._fields = {
            name: np.concatenate([s.fields.pop(name) for s in shards])
            for name in PASS_INPUTS
        }
        self._usernames = np.array(
            [u for s in shards for u in s.usernames], dtype=object)
        for s in shards:
            s.usernames = []
            s.source = s.powered = None

    def pass_inputs(self, k: int, owned: np.ndarray):
        """``(on, rows)`` for pass ``k``, as :meth:`~repro.sim.kernel
        .FleetColumns.pass_inputs` reads them off the live mirror: the
        roster positions of every powered machine, and the inputs of
        those in the ``owned`` mask (every machine, unless a degraded
        campaign's pass keeps only its surviving shards' rows)."""
        a, b = self._offsets[k], self._offsets[k + 1]
        on = self._on[a:b]
        src = self._source[a:b][owned[on]]
        rows: Dict[str, object] = {
            name: col[src] for name, col in self._fields.items()
        }
        rows["username"] = self._usernames[src].tolist()
        return on, rows

    def reload_before_passes(self, machines: Sequence[SimMachine],
                             sim: Simulator, period: float) -> None:
        """Drive a row-backed roster for the object pass: at each pass
        instant ``k * period``, load every machine's state at pass ``k``
        (:meth:`~repro.machines.machine.SimMachine.load_columns`).
        Called before the coordinator's ``start``, each load precedes
        the iteration at its instant."""
        sim.schedule(0.0, self._reload, 0, machines, sim, period,
                     name="reload")

    def _reload(self, k: int, machines: Sequence[SimMachine],
                sim: Simulator, period: float) -> None:
        on, rows = self.pass_inputs(k, np.ones(self.n, dtype=bool))
        for machine in machines:
            machine.load_columns(None)
        values = {name: col if isinstance(col, list) else col.tolist()
                  for name, col in rows.items()}
        for i, j in enumerate(on.tolist()):
            machines[j].load_columns(values, i)
        if k + 1 < self.n_passes:
            sim.schedule((k + 1) * period, self._reload, k + 1, machines,
                         sim, period, name="reload")

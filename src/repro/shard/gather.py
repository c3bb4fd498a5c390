"""Gathered shard runs: workers split the behaviour, the parent probes.

A process-pool shard whose run takes the columnar pass does not replay
the whole roster.  Its worker builds and simulates only the machines of
the labs it owns -- every spec, the calendar and every lab's demand are
still built, so machine ids and random streams are the full fleet's --
and a :class:`PassRecorder` notes, at every iteration instant, which
owned machines are powered and the pass inputs of those
(:meth:`~repro.sim.kernel.FleetColumns.gather`), shipping a machine's
inputs again only when they changed.  The parent merges the
shards' recordings into roster order (:class:`GatheredPasses`) and runs
the single sequential columnar pass over them: the availability draw,
the ``"ddc"`` latency draws and the cumsum cursor chain of the
sequential run, emitting its rows in its order, with no sort.

Why this is exact: an agent draws only from its own
``agent/<hostname>`` stream and touches only its own machine, so owned
behaviour does not depend on foreign agents.  The one fact the pass
needs about a foreign machine is whether it is powered at the instant,
and its owner records that.  The recorder's chain is scheduled where
:meth:`~repro.ddc.coordinator.DdcCoordinator.start` schedules iteration
0 and advances on the same ``origin + (k+1) * period < horizon`` grid,
so each record fires after that instant's behaviour batch and sweep,
exactly where the pass reads the mirror.  It records every instant,
including those the parent's availability draw then loses.

``docs/sharding.md`` describes when a shard plan takes this path and
when its workers replay the full fleet instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TraceFormatError
from repro.machines.hardware import LabSpec, MachineSpec
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
    #: The task's lab catalog and NBench switch, which the parent's
    #: pass needs.
    labs: Tuple[LabSpec, ...]
    collect_nbench: bool


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
    """

    def __init__(self, cols: FleetColumns, sim: Simulator, period: float,
                 horizon: float):
        self.cols = cols
        self.sim = sim
        self.period = float(period)
        self.horizon = float(horizon)
        self._origin = 0.0
        self._powered: List[np.ndarray] = []
        # seeded with an empty slice, so dtypes survive a shard that
        # never saw a powered machine
        self._fields: Dict[str, List[np.ndarray]] = {
            name: [getattr(cols, name)[:0]] for name in PASS_INPUTS
        }
        self._usernames: List[str] = []

    def start(self) -> None:
        """Schedule the first record where the coordinator would
        schedule iteration 0."""
        self.sim.schedule(0.0, self._record, 0, name="gather")

    def _record(self, k: int) -> None:
        start = self.sim.now
        if k == 0:
            self._origin = start
        powered = self.cols.powered.copy()
        rows = self.cols.gather(np.flatnonzero(powered))
        self._powered.append(powered)
        self._usernames.extend(rows.pop("username"))
        for name, col in rows.items():
            self._fields[name].append(col)
        nxt = self._origin + (k + 1) * self.period
        if nxt < self.horizon:
            self.sim.schedule(nxt, self._record, k + 1, name="gather")

    def rows(self, labs: Sequence[LabSpec],
             collect_nbench: bool) -> GatheredRows:
        """Everything recorded so far, each repeated row shipped once."""
        powered = (np.stack(self._powered) if self._powered
                   else np.zeros((0, self.cols.n), dtype=bool))
        machine = np.nonzero(powered)[1]
        fields = {name: np.concatenate(parts)
                  for name, parts in self._fields.items()}
        usernames = np.array(self._usernames, dtype=object)
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
    of them.  Raises :class:`~repro.errors.TraceFormatError` when the
    shards overlap, do not cover the roster, or recorded different
    numbers of passes.
    """

    def __init__(self, specs: Sequence[MachineSpec],
                 shards: Sequence[GatheredRows]):
        super().__init__(specs)
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
        n_passes = {len(s.powered) for s in shards}
        if len(n_passes) != 1:
            raise TraceFormatError(
                f"gathered shards recorded different numbers of passes: "
                f"{sorted(n_passes)}"
            )
        self.n_passes = n_passes.pop()
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
        .FleetColumns.pass_inputs` reads them off the live mirror; the
        parent owns every machine, so ``owned`` is unused."""
        a, b = self._offsets[k], self._offsets[k + 1]
        src = self._source[a:b]
        rows: Dict[str, object] = {
            name: col[src] for name, col in self._fields.items()
        }
        rows["username"] = self._usernames[src].tolist()
        return self._on[a:b], rows

"""Incrementally-updated rollups over a streamed journal.

:class:`LiveRollups` consumes journal records in journal order -- one
pass record per iteration, whose rows it folds as arrays before it
counts the iteration -- and maintains running analogues of the batch
analyses:

- **response rate** (Table 2): samples / attempts,
- **availability** (Fig 3): average powered-on and user-free machines
  per iteration run,
- **idleness** (Table 2 / Fig 5): the pairwise CPU-idleness estimator
  over consecutive same-machine samples, split by login state,
- **uptime ratios** (Fig 4-left): per-machine samples / iterations run,
- **cluster equivalence** (Fig 6): per-sample idleness contributions
  over attempts, split by raw login state,

each at fleet, lab and machine granularity.

Equality contract with :mod:`repro.analysis`
--------------------------------------------
The streaming estimators replicate the batch formulas *exactly*: the
same pair-eligibility rules (consecutive same-machine samples, gap
``<= 1.75 x`` the sampling period, no reboot in between), the same
forgotten-session reclassification, the same fallback
(``idle / uptime``) for samples without a valid predecessor, the same
denominators (``iterations_run x n_machines`` attempts).  Quantities
that are ratios of integers are bit-identical to the batch results;
accumulated float means can differ from NumPy's pairwise summation in
the last few ulps, so every float in a snapshot is rounded to
:data:`ROUND_DECIMALS` decimals -- the rounding both sides of the
differential test (:mod:`repro.live.replay`) apply.

How a batch folds
-----------------
The per-machine accumulators are NumPy arrays indexed by machine id
(roster ids are dense, as the batch ``bincount`` analyses assume) that
grow geometrically; labs get integer codes in first-seen order.  A
batch's rows are folded :data:`FOLD_ROWS` at a time with array
expressions.  Within such a slice a row's predecessor is the previous
row of the same machine (a stable argsort on machine id); a machine's
first row in the slice takes the carried ``last_*`` state.  Running
float totals add in row order, exactly as a loop over the rows would:
fleet totals through ``np.cumsum`` seeded with the running value,
per-lab and per-machine sums through ``np.add.at``.  So the totals do
not depend on how the records are split into batches.

A batch folds whole or not at all: a non-increasing collection time or
a negative machine id raises :class:`~repro.errors.LiveError` with the
rollups as they were.  Each slice checks its rows before it changes
anything, and a batch of several slices puts back a copy of the state
taken before its first.

Thread safety: all public methods take an internal lock; a condition
variable is notified after every batch that holds an iteration marker,
for the subscription feed.
"""

from __future__ import annotations

import copy
import itertools
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import LiveError
from repro.recovery.journal import JournalRecord, decode_pass

__all__ = ["LiveRollups", "ROUND_DECIMALS", "MAX_GAP_FACTOR", "FOLD_ROWS"]

#: Decimal places every float in a snapshot is rounded to.  Summation
#: order between the streaming accumulators and NumPy's pairwise sums
#: differs by ~1e-11 relative at campaign scale; 6 decimals is far
#: coarser than that and far finer than anything the paper reports.
ROUND_DECIMALS = 6

#: Pair gap cap as a multiple of the sampling period (matches
#: :meth:`repro.traces.columnar.ColumnarTrace.consecutive_pairs`).
MAX_GAP_FACTOR = 1.75

#: Reboot-detector clock slack in seconds (matches
#: :meth:`~repro.traces.columnar.ColumnarTrace.reboot_between`).
REBOOT_SLACK = 30.0

#: Forgotten-session threshold (seconds); keep in sync with
#: :data:`repro.analysis.cpu.FORGOTTEN_THRESHOLD` without importing the
#: NumPy-heavy analysis stack into the ingest path.
FORGOTTEN_THRESHOLD = 10 * 3600.0

#: Most rows one array step folds.  A replay hands over a whole drained
#: journal in one batch; folding it in slices keeps the fold's
#: temporaries (a few dozen bytes a row) bounded.
FOLD_ROWS = 4096

#: Per-machine arrays, indexed by machine id: attribute -> (dtype, the
#: value of a slot no row has reached).  A NaN ``last_t`` means "no
#: predecessor": every gap computed from it is NaN, so no time check
#: raises and no pair forms, as for a machine's first sample.
_MACHINE_ARRAYS = {
    "_m_samples": (np.int64, 0),
    "_m_pairs": (np.int64, 0),
    "_m_idle_sum": (np.float64, 0.0),
    "_m_lab": (np.intp, -1),
    "_m_hostname": (object, None),
    "_m_last_t": (np.float64, np.nan),
    "_m_last_iteration": (np.int64, -1),
    "_m_last_uptime": (np.float64, 0.0),
    "_m_last_idle": (np.float64, 0.0),
    "_m_last_has_session": (np.bool_, False),
    "_m_last_username": (object, ""),
}

#: Per-lab arrays, indexed by lab code.
_LAB_ARRAYS = {
    "_l_machines": (np.int64, 0),
    "_l_samples": (np.int64, 0),
    "_l_occupied": (np.int64, 0),
    "_l_pairs": (np.int64, 0),
    "_l_idle_sum": (np.float64, 0.0),
}

#: Everything a fold changes: what a batch that fails part-way puts back.
_FOLDED = (
    *_MACHINE_ARRAYS, *_LAB_ARRAYS, "_order", "_lab_names", "_lab_codes",
    "_max_mid", "samples", "occupied_samples", "pairs", "occupied_pairs",
    "idle_sum", "idle_sum_occupied", "idle_sum_free", "eq_total",
    "eq_occupied", "eq_free",
)

#: One slice of a batch: ``(pass columns, start row, stop row)`` pieces.
_Slice = List[Tuple[Dict[str, Any], int, int]]


def _round(x: Optional[float]) -> Optional[float]:
    """Snapshot float policy: NaN/None -> None, else ROUND_DECIMALS."""
    if x is None or x != x:
        return None
    return round(float(x), ROUND_DECIMALS)


def _slices(passes: List[Dict[str, Any]], bound: int) -> Iterator[_Slice]:
    """The rows of ``passes``, in order, as slices of at most ``bound``."""
    piece: _Slice = []
    size = 0
    for cols in passes:
        n = len(cols["t"])
        start = 0
        while start < n:
            stop = min(n, start + bound - size)
            piece.append((cols, start, stop))
            size += stop - start
            start = stop
            if size == bound:
                yield piece
                piece, size = [], 0
    if piece:
        yield piece


def _column(piece: _Slice, name: str, dtype: Any = None) -> np.ndarray:
    parts = [cols[name][start:stop] for cols, start, stop in piece]
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=dtype)
    return np.concatenate(parts, dtype=dtype)


def _strings(piece: _Slice, name: str) -> List[str]:
    return list(itertools.chain.from_iterable(
        cols[name][start:stop] for cols, start, stop in piece))


def _links(mid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's predecessor within the slice, and each machine's last row.

    ``pred[i]`` is the previous row of row ``i``'s machine, or -1 when
    row ``i`` is that machine's first in the slice.
    """
    order = np.argsort(mid, kind="stable")
    ordered = mid[order]
    same = ordered[1:] == ordered[:-1]
    pred = np.full(len(mid), -1, dtype=np.intp)
    pred[order[1:][same]] = order[:-1][same]
    return pred, order[np.concatenate((~same, [True]))]


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _add(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, in order: a cumsum
    seeded with the running value (``np.sum`` adds pairwise, and
    Python's ``sum`` compensates from 3.12 on)."""
    if not len(values):
        return total
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


class LiveRollups:
    """Running Table-2 / Figs 2--6 analogues over streamed records.

    Parameters
    ----------
    sample_period:
        The DDC sampling period in seconds.  Drives the pair gap cap;
        for replay from a bare journal it can be inferred from the
        first two iteration markers
        (:func:`repro.live.replay.infer_sample_period`).
    """

    def __init__(self, sample_period: float):
        if not sample_period > 0:
            raise LiveError("sample_period must be positive")
        self.sample_period = float(sample_period)
        self.max_gap = MAX_GAP_FACTOR * float(sample_period)
        self._lock = threading.RLock()
        self._iter_cond = threading.Condition(self._lock)
        # fleet counters
        self.iterations_scheduled = 0
        self.iterations_run = 0
        self.samples = 0
        self.occupied_samples = 0
        self.pairs = 0
        self.occupied_pairs = 0
        self.idle_sum = 0.0
        self.idle_sum_occupied = 0.0
        self.idle_sum_free = 0.0
        self.eq_total = 0.0
        self.eq_occupied = 0.0
        self.eq_free = 0.0
        self.last_iteration: Optional[int] = None
        self.sim_time: Optional[float] = None
        self.records_ingested = 0
        self._max_mid = -1
        #: Machine ids in first-seen order.
        self._order: List[int] = []
        self._lab_names: List[str] = []
        self._lab_codes: Dict[str, int] = {}
        for name, (dtype, fill) in {**_MACHINE_ARRAYS, **_LAB_ARRAYS}.items():
            setattr(self, name, np.full(0, fill, dtype=dtype))

    def _grow(self, arrays: dict, n: int) -> None:
        """Grow ``arrays`` (a field table) geometrically to ``n`` slots."""
        for name, (dtype, fill) in arrays.items():
            old = getattr(self, name)
            if n > len(old):
                new = np.full(max(n, 2 * len(old)), fill, dtype=dtype)
                new[:len(old)] = old
                setattr(self, name, new)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_records(self, records: List[JournalRecord]) -> int:
        """Consume a batch of journal records; returns samples added.

        The rows of the batch's pass records -- as their reader decoded
        them, else decoded here (:func:`decode_pass`) -- are folded in
        journal order, then the batch's iteration markers are counted.

        Raises
        ------
        LiveError
            On a collection time not after its machine's previous one,
            or a negative machine id.  The rollups are then unchanged.
        """
        passes: List[Dict[str, Any]] = []
        marks: List[Tuple[bool, int, float]] = []
        for rec in records:
            body = rec.body
            if body.get("kind") != "iter":
                continue
            cols = rec.rows if rec.rows is not None else decode_pass(body)
            if cols is not None and len(cols["t"]):
                passes.append(cols)
            marks.append((bool(body.get("ran", True)), int(body["k"]),
                          float(body["t"])))
        with self._lock:
            slices = list(_slices(passes, FOLD_ROWS))
            # A slice checks its rows before it changes anything, but
            # of several, a later one can fail after earlier ones
            # folded: those start from a copy of the state to put back.
            saved = ({name: copy.copy(getattr(self, name))
                      for name in _FOLDED} if len(slices) > 1 else None)
            try:
                for piece in slices:
                    self._fold(piece)
            except LiveError:
                if saved is not None:
                    self.__dict__.update(saved)
                raise
            for ran, k, t in marks:
                self.iterations_scheduled += 1
                self.iterations_run += ran
                self.last_iteration = k
                self.sim_time = t
            self.records_ingested += len(records)
            if marks:
                self._iter_cond.notify_all()
        return sum(len(cols["t"]) for cols in passes)

    def _lab_code(self, name: str) -> int:
        code = self._lab_codes.get(name)
        if code is None:
            code = self._lab_codes[name] = len(self._lab_names)
            self._lab_names.append(name)
            self._grow(_LAB_ARRAYS, code + 1)
        return code

    def _fold(self, piece: _Slice) -> None:
        """Fold one slice of rows into every accumulator.

        The rows are checked first: a negative machine id (which an
        array index would wrap to another machine) or a time not after
        its machine's previous one raises before anything changes.
        """
        mid = _column(piece, "machine_id", np.intp)
        if mid.min() < 0:
            raise LiveError(
                f"negative machine id {mid.min()} in a pass record")
        self._grow(_MACHINE_ARRAYS, int(mid.max()) + 1)
        t = _column(piece, "t")
        pred, last = _links(mid)
        inside = pred >= 0
        prev_t = np.where(inside, t[pred], self._m_last_t[mid])
        bad = np.flatnonzero(t - prev_t <= 0)
        if len(bad):
            row = bad[0]
            raise LiveError(
                f"non-increasing collection times for machine {mid[row]}: "
                f"{float(prev_t[row])} -> {float(t[row])}"
            )
        uptime = _column(piece, "uptime_s")
        idle = _column(piece, "cpu_idle_s")
        has_session = _column(piece, "has_session") != 0

        # Machines first seen here, in row order: a machine keeps the
        # lab and hostname of its first row, and a lab's code is its
        # rank among first-seen labs.
        firsts = np.flatnonzero(~inside)
        new = firsts[self._m_samples[mid[firsts]] == 0]
        if len(new):
            rows = new.tolist()
            labs = _strings(piece, "lab")
            hosts = _strings(piece, "hostname")
            ids = mid[new]
            codes = [self._lab_code(labs[row]) for row in rows]
            np.add.at(self._l_machines, codes, 1)
            self._m_lab[ids] = codes
            self._m_hostname[ids] = [hosts[row] for row in rows]
            self._order.extend(ids.tolist())
            self._max_mid = max(self._max_mid, int(ids.max()))
        lab = self._m_lab[mid]

        # Forgotten-session reclassification (occupied_mask semantics:
        # an absent logon time, NaN, compares false and leaves the raw
        # login state untouched).
        occupied = has_session & ~(
            t - _column(piece, "session_start") >= FORGOTTEN_THRESHOLD)

        # Pairwise idleness where a valid predecessor exists, the probe's
        # boot-relative average otherwise -- exactly the batch estimator
        # (pairwise_cpu + cluster_equivalence's fallback).
        prev_uptime = np.where(inside, uptime[pred], self._m_last_uptime[mid])
        prev_idle = np.where(inside, idle[pred], self._m_last_idle[mid])
        with np.errstate(divide="ignore", invalid="ignore"):
            fallback = _clamp(np.where(uptime > 0, idle / uptime, 1.0))
            gap = t - prev_t
            pair = (gap <= self.max_gap) & ~(
                uptime + REBOOT_SLACK < prev_uptime + gap)
            pair_idle = _clamp((idle - prev_idle) / gap)
        contrib = np.where(pair, pair_idle, fallback)

        # Fleet totals add in row order, like a loop over the rows.
        idle_pairs = pair_idle[pair]
        pair_occupied = occupied[pair]
        self.idle_sum = _add(self.idle_sum, idle_pairs)
        self.idle_sum_occupied = _add(self.idle_sum_occupied,
                                      idle_pairs[pair_occupied])
        self.idle_sum_free = _add(self.idle_sum_free,
                                  idle_pairs[~pair_occupied])
        # Cluster-equivalence contribution, split by the *raw* login
        # state (Fig 6); NBench weights are 1.0 for journal-only fleets.
        self.eq_total = _add(self.eq_total, contrib)
        self.eq_occupied = _add(self.eq_occupied, contrib[has_session])
        self.eq_free = _add(self.eq_free, contrib[~has_session])
        self.samples += len(mid)
        self.occupied_samples += int(occupied.sum())
        self.pairs += len(idle_pairs)
        self.occupied_pairs += int(pair_occupied.sum())

        # Per-machine and per-lab sums: np.add.at adds in row order too.
        pair_mid = mid[pair]
        pair_lab = lab[pair]
        np.add.at(self._m_samples, mid, 1)
        np.add.at(self._m_pairs, pair_mid, 1)
        np.add.at(self._m_idle_sum, pair_mid, idle_pairs)
        np.add.at(self._l_samples, lab, 1)
        np.add.at(self._l_occupied, lab[occupied], 1)
        np.add.at(self._l_pairs, pair_lab, 1)
        np.add.at(self._l_idle_sum, pair_lab, idle_pairs)

        ends = mid[last]
        self._m_last_t[ends] = t[last]
        self._m_last_iteration[ends] = _column(piece, "iteration")[last]
        self._m_last_uptime[ends] = uptime[last]
        self._m_last_idle[ends] = idle[last]
        self._m_last_has_session[ends] = has_session[last]
        users = _strings(piece, "username")
        self._m_last_username[ends] = [users[row] for row in last.tolist()]

    # ------------------------------------------------------------------
    # subscription feed
    # ------------------------------------------------------------------
    def wait_for_iteration(self, since: Optional[int] = None,
                           timeout: Optional[float] = None) -> Optional[int]:
        """Block until an iteration marker after ``since`` is ingested.

        ``since=None`` waits for the *next* marker after the newest one
        already seen (or for the first, when none arrived yet).
        Returns the newest iteration index, or ``None`` on timeout.
        """
        with self._iter_cond:
            threshold = self.last_iteration if since is None else since
            def arrived() -> bool:
                return (self.last_iteration is not None
                        and (threshold is None
                             or self.last_iteration > threshold))
            if self._iter_cond.wait_for(arrived, timeout):
                return self.last_iteration
            return None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        """Roster size inferred from the densest machine id seen."""
        return self._max_mid + 1

    def snapshot(self, *, include_machines: bool = True) -> dict:
        """JSON-safe snapshot of every rollup (floats rounded)."""
        with self._lock:
            return self._snapshot_locked(include_machines)

    def _snapshot_locked(self, include_machines: bool) -> dict:
        n = self.n_machines
        runs = self.iterations_run
        attempts = runs * n
        out: dict = {
            "schema": 1,
            "iterations": {
                "scheduled": self.iterations_scheduled,
                "run": runs,
                "last_k": self.last_iteration,
                "sim_time": _round(self.sim_time),
            },
            "counts": {
                "samples": self.samples,
                "machines": n,
                "machines_seen": len(self._order),
                "labs": len(self._lab_names),
                "attempts": attempts,
                "occupied_samples": self.occupied_samples,
                "pairs": self.pairs,
                "occupied_pairs": self.occupied_pairs,
            },
        }
        if attempts == 0 or self.samples == 0:
            out["fleet"] = None
            out["labs"] = {}
            if include_machines:
                out["machines"] = {}
            return out

        free_pairs = self.pairs - self.occupied_pairs
        # First-seen order: the mean below adds the ratios in it.
        ratios = np.minimum(self._m_samples[self._order] / runs,
                            1.0).tolist()
        out["fleet"] = {
            "response_rate": _round(self.samples / attempts),
            "avg_powered_on": _round(self.samples / runs),
            "avg_user_free": _round(
                (self.samples - self.occupied_samples) / runs
            ),
            "idle_pct": {
                "both": _round(100.0 * self.idle_sum / self.pairs)
                if self.pairs else None,
                "no_login": _round(100.0 * self.idle_sum_free / free_pairs)
                if free_pairs else None,
                "with_login": _round(
                    100.0 * self.idle_sum_occupied / self.occupied_pairs
                ) if self.occupied_pairs else None,
            },
            "equivalence": {
                "ratio_total": _round(self.eq_total / attempts),
                "ratio_occupied": _round(self.eq_occupied / attempts),
                "ratio_free": _round(self.eq_free / attempts),
            },
            "uptime": {
                "above_0.5": sum(1 for r in ratios if r > 0.5),
                "above_0.8": sum(1 for r in ratios if r > 0.8),
                "above_0.9": sum(1 for r in ratios if r > 0.9),
                # Unseen roster slots count as ratio 0, exactly like the
                # batch bincount over the full roster.
                "max": _round(max(ratios) if len(ratios) == n
                              else max(max(ratios), 0.0)),
                "mean": _round(sum(ratios) / n),
            },
        }
        labs: dict = {}
        for name in sorted(self._lab_names):
            code = self._lab_codes[name]
            machines = int(self._l_machines[code])
            samples = int(self._l_samples[code])
            occupied = int(self._l_occupied[code])
            pairs = int(self._l_pairs[code])
            labs[name] = {
                "machines": machines,
                "samples": samples,
                "occupied_samples": occupied,
                "response_rate": _round(samples / (runs * machines)),
                "avg_powered_on": _round(samples / runs),
                "avg_user_free": _round((samples - occupied) / runs),
                "pairs": pairs,
                "idle_pct": _round(100.0 * float(self._l_idle_sum[code])
                                   / pairs) if pairs else None,
            }
        out["labs"] = labs
        if include_machines:
            out["machines"] = self._machine_dicts(
                np.flatnonzero(self._m_samples > 0))
        return out

    def _machine_dicts(self, mids: np.ndarray) -> Dict[str, dict]:
        """``str(mid) -> machine view`` for sampled machines ``mids``."""
        runs = self.iterations_run
        rows = zip(
            mids.tolist(),
            self._m_lab[mids].tolist(),
            self._m_samples[mids].tolist(),
            self._m_pairs[mids].tolist(),
            self._m_idle_sum[mids].tolist(),
            self._m_last_t[mids].tolist(),
            self._m_last_iteration[mids].tolist(),
            self._m_last_has_session[mids].tolist(),
            self._m_last_uptime[mids].tolist(),
        )
        out: Dict[str, dict] = {}
        for mid, lab, samples, pairs, idle_sum, t, k, session, up in rows:
            out[str(mid)] = {
                "lab": self._lab_names[lab],
                "hostname": self._m_hostname[mid],
                "samples": samples,
                "uptime_ratio": _round(min(samples / runs, 1.0))
                if runs else None,
                "pairs": pairs,
                "idle_pct": _round(100.0 * idle_sum / pairs)
                if pairs else None,
                "last": {
                    "t": _round(t),
                    "iteration": k,
                    "has_session": session,
                    "username": self._m_last_username[mid],
                    "uptime_s": _round(up),
                },
            }
        return out

    # Endpoint views -----------------------------------------------------
    def lab_snapshot(self, name: str) -> Optional[dict]:
        """Snapshot of one lab plus its member machines; None if unknown."""
        with self._lock:
            code = self._lab_codes.get(name)
            if code is None:
                return None
            snap = self._snapshot_locked(include_machines=False)
            members = self._machine_dicts(np.flatnonzero(
                (self._m_samples > 0) & (self._m_lab == code)))
            return {"lab": name, "stats": snap["labs"].get(name),
                    "machines": members}

    def machine_snapshot(self, mid: int) -> Optional[dict]:
        """Snapshot of one machine; None if never sampled.

        Any id outside the arrays, negative ones included, is unknown.
        """
        with self._lock:
            if not (0 <= mid < len(self._m_samples)
                    and self._m_samples[mid] > 0):
                return None
            return {
                "machine_id": mid,
                **self._machine_dicts(np.array([mid]))[str(mid)],
            }

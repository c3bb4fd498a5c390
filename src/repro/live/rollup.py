"""Incrementally-updated rollups over a streamed journal.

:class:`LiveRollups` consumes journal records in journal order -- one
pass record per iteration, whose rows it decodes and folds one at a
time before it counts the iteration -- and maintains running analogues
of the batch analyses:

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

Thread safety: all public methods take an internal lock; a condition
variable is notified at every iteration marker for the subscription
feed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import LiveError
from repro.recovery.journal import JournalRecord, decode_pass

__all__ = ["LiveRollups", "ROUND_DECIMALS", "MAX_GAP_FACTOR"]

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

#: The pass-record columns :meth:`LiveRollups._ingest_row` takes, in
#: its argument order.
_ROW_FIELDS = ("machine_id", "t", "uptime_s", "cpu_idle_s", "has_session",
               "session_start", "iteration", "lab", "hostname", "username")

#: Forgotten-session threshold (seconds); keep in sync with
#: :data:`repro.analysis.cpu.FORGOTTEN_THRESHOLD` without importing the
#: NumPy-heavy analysis stack into the ingest path.
FORGOTTEN_THRESHOLD = 10 * 3600.0


def _round(x: Optional[float]) -> Optional[float]:
    """Snapshot float policy: NaN/None -> None, else ROUND_DECIMALS."""
    if x is None or x != x:
        return None
    return round(float(x), ROUND_DECIMALS)


class _MachineState:
    """Streaming accumulator for one machine."""

    __slots__ = (
        "lab", "hostname", "samples", "pairs", "idle_sum",
        "last_t", "last_iteration", "last_uptime", "last_idle",
        "last_has_session", "last_username", "last_uptime_s",
    )

    def __init__(self, lab: str, hostname: str):
        self.lab = lab
        self.hostname = hostname
        self.samples = 0
        self.pairs = 0
        self.idle_sum = 0.0
        self.last_t: Optional[float] = None
        self.last_iteration = -1
        self.last_uptime = 0.0
        self.last_idle = 0.0
        self.last_has_session = False
        self.last_username = ""
        self.last_uptime_s = 0.0


class _LabState:
    """Streaming accumulator for one lab."""

    __slots__ = ("machines", "samples", "occupied", "pairs", "idle_sum")

    def __init__(self) -> None:
        self.machines = 0
        self.samples = 0
        self.occupied = 0
        self.pairs = 0
        self.idle_sum = 0.0


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
        self._machines: Dict[int, _MachineState] = {}
        self._labs: Dict[str, _LabState] = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_records(self, records: List[JournalRecord]) -> int:
        """Consume a batch of journal records; returns samples added.

        Each pass record's rows -- as its reader decoded them, else
        decoded here (:func:`decode_pass`) -- are folded row by row, in
        store order, before the iteration itself is counted.
        """
        added = 0
        with self._lock:
            for rec in records:
                self.records_ingested += 1
                if rec.body.get("kind") != "iter":
                    continue
                cols = (rec.rows if rec.rows is not None
                        else decode_pass(rec.body))
                if cols is not None:
                    rows = zip(*(
                        col if isinstance(col, list) else col.tolist()
                        for col in (cols[name] for name in _ROW_FIELDS)))
                    for row in rows:
                        self._ingest_row(*row)
                    added += len(cols["t"])
                self._ingest_iter(rec.body)
        return added

    def _ingest_row(self, mid: int, t: float, uptime: float, idle: float,
                    has_session: int, ss: float, iteration: int,
                    lab_name: str, hostname: str, username: str) -> None:
        m = self._machines.get(mid)
        if m is None:
            m = _MachineState(lab_name, hostname)
            self._machines[mid] = m
            lab = self._labs.get(m.lab)
            if lab is None:
                lab = _LabState()
                self._labs[m.lab] = lab
            lab.machines += 1
            if mid > self._max_mid:
                self._max_mid = mid
        lab = self._labs[m.lab]

        # Forgotten-session reclassification (occupied_mask semantics:
        # an absent logon time, NaN, compares false and leaves the raw
        # login state untouched).
        has_session = bool(has_session)
        occupied = has_session
        if has_session and t - ss >= FORGOTTEN_THRESHOLD:
            occupied = False

        # Pairwise idleness where a valid predecessor exists, the probe's
        # boot-relative average otherwise -- exactly the batch estimator
        # (pairwise_cpu + cluster_equivalence's fallback).
        fallback = idle / uptime if uptime > 0 else 1.0
        fallback = min(max(fallback, 0.0), 1.0)
        contrib = fallback
        if m.last_t is not None:
            gap = t - m.last_t
            if gap <= 0:
                raise LiveError(
                    f"non-increasing collection times for machine {mid}: "
                    f"{m.last_t} -> {t}"
                )
            if gap <= self.max_gap and not (
                uptime + REBOOT_SLACK < m.last_uptime + gap
            ):
                pair_idle = (idle - m.last_idle) / gap
                pair_idle = min(max(pair_idle, 0.0), 1.0)
                contrib = pair_idle
                self.pairs += 1
                self.idle_sum += pair_idle
                m.pairs += 1
                m.idle_sum += pair_idle
                lab.pairs += 1
                lab.idle_sum += pair_idle
                if occupied:
                    self.occupied_pairs += 1
                    self.idle_sum_occupied += pair_idle
                else:
                    self.idle_sum_free += pair_idle

        # Cluster-equivalence contribution, split by the *raw* login
        # state (Fig 6); NBench weights are 1.0 for journal-only fleets.
        self.eq_total += contrib
        if has_session:
            self.eq_occupied += contrib
        else:
            self.eq_free += contrib

        self.samples += 1
        lab.samples += 1
        m.samples += 1
        if occupied:
            self.occupied_samples += 1
            lab.occupied += 1

        m.last_t = t
        m.last_iteration = iteration
        m.last_uptime = uptime
        m.last_idle = idle
        m.last_has_session = has_session
        m.last_username = username
        m.last_uptime_s = uptime

    def _ingest_iter(self, body: dict) -> None:
        self.iterations_scheduled += 1
        if body.get("ran", True):
            self.iterations_run += 1
        self.last_iteration = int(body["k"])
        self.sim_time = float(body["t"])
        self._iter_cond.notify_all()

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
                "machines_seen": len(self._machines),
                "labs": len(self._labs),
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
        ratios = [
            min(m.samples / runs, 1.0) for m in self._machines.values()
        ]
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
        for name in sorted(self._labs):
            st = self._labs[name]
            labs[name] = {
                "machines": st.machines,
                "samples": st.samples,
                "occupied_samples": st.occupied,
                "response_rate": _round(st.samples / (runs * st.machines)),
                "avg_powered_on": _round(st.samples / runs),
                "avg_user_free": _round((st.samples - st.occupied) / runs),
                "pairs": st.pairs,
                "idle_pct": _round(100.0 * st.idle_sum / st.pairs)
                if st.pairs else None,
            }
        out["labs"] = labs
        if include_machines:
            machines: dict = {}
            for mid in sorted(self._machines):
                m = self._machines[mid]
                machines[str(mid)] = self._machine_dict(mid, m, runs)
            out["machines"] = machines
        return out

    def _machine_dict(self, mid: int, m: _MachineState, runs: int) -> dict:
        return {
            "lab": m.lab,
            "hostname": m.hostname,
            "samples": m.samples,
            "uptime_ratio": _round(min(m.samples / runs, 1.0)) if runs else None,
            "pairs": m.pairs,
            "idle_pct": _round(100.0 * m.idle_sum / m.pairs)
            if m.pairs else None,
            "last": {
                "t": _round(m.last_t),
                "iteration": m.last_iteration,
                "has_session": m.last_has_session,
                "username": m.last_username,
                "uptime_s": _round(m.last_uptime_s),
            },
        }

    # Endpoint views -----------------------------------------------------
    def lab_snapshot(self, name: str) -> Optional[dict]:
        """Snapshot of one lab plus its member machines; None if unknown."""
        with self._lock:
            if name not in self._labs:
                return None
            snap = self._snapshot_locked(include_machines=False)
            lab = snap["labs"].get(name)
            runs = self.iterations_run
            members = {
                str(mid): self._machine_dict(mid, m, runs)
                for mid, m in sorted(self._machines.items())
                if m.lab == name
            }
            return {"lab": name, "stats": lab, "machines": members}

    def machine_snapshot(self, mid: int) -> Optional[dict]:
        """Snapshot of one machine; None if never sampled."""
        with self._lock:
            m = self._machines.get(mid)
            if m is None:
                return None
            return {
                "machine_id": mid,
                **self._machine_dict(mid, m, self.iterations_run),
            }

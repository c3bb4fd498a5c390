"""Reference oracle for :class:`repro.live.rollup.LiveRollups`: the
per-row fold it replaced, kept for tests only.

:class:`RowRollups` folds every decoded row through one Python call
(:meth:`RowRollups._ingest_row`) into per-machine and per-lab objects
and formats the same snapshot.  The array fold must agree with it
exactly: every counter and running float total under ``==``, whatever
the split of the records into batches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import LiveError
from repro.live.rollup import (
    FORGOTTEN_THRESHOLD,
    MAX_GAP_FACTOR,
    REBOOT_SLACK,
    _round,
)
from repro.recovery.journal import JournalRecord, decode_pass

#: The pass-record columns :meth:`RowRollups._ingest_row` takes, in its
#: argument order.
ROW_FIELDS = ("machine_id", "t", "uptime_s", "cpu_idle_s", "has_session",
              "session_start", "iteration", "lab", "hostname", "username")


class MachineState:
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


class LabState:
    """Streaming accumulator for one lab."""

    __slots__ = ("machines", "samples", "occupied", "pairs", "idle_sum")

    def __init__(self) -> None:
        self.machines = 0
        self.samples = 0
        self.occupied = 0
        self.pairs = 0
        self.idle_sum = 0.0


class RowRollups:
    """The per-row fold, with :class:`LiveRollups`'s counters and
    snapshot format."""

    def __init__(self, sample_period: float):
        self.max_gap = MAX_GAP_FACTOR * float(sample_period)
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
        self.machines: Dict[int, MachineState] = {}
        self.labs: Dict[str, LabState] = {}

    def ingest_records(self, records: List[JournalRecord]) -> int:
        added = 0
        for rec in records:
            self.records_ingested += 1
            if rec.body.get("kind") != "iter":
                continue
            cols = (rec.rows if rec.rows is not None
                    else decode_pass(rec.body))
            if cols is not None:
                rows = zip(*(
                    col if isinstance(col, list) else col.tolist()
                    for col in (cols[name] for name in ROW_FIELDS)))
                for row in rows:
                    self._ingest_row(*row)
                added += len(cols["t"])
            self._ingest_iter(rec.body)
        return added

    def _ingest_row(self, mid: int, t: float, uptime: float, idle: float,
                    has_session: int, ss: float, iteration: int,
                    lab_name: str, hostname: str, username: str) -> None:
        m = self.machines.get(mid)
        if m is None:
            m = MachineState(lab_name, hostname)
            self.machines[mid] = m
            lab = self.labs.get(m.lab)
            if lab is None:
                lab = LabState()
                self.labs[m.lab] = lab
            lab.machines += 1
            if mid > self._max_mid:
                self._max_mid = mid
        lab = self.labs[m.lab]

        has_session = bool(has_session)
        occupied = has_session
        if has_session and t - ss >= FORGOTTEN_THRESHOLD:
            occupied = False

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

    @property
    def n_machines(self) -> int:
        return self._max_mid + 1

    def snapshot(self, *, include_machines: bool = True) -> dict:
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
                "machines_seen": len(self.machines),
                "labs": len(self.labs),
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
            min(m.samples / runs, 1.0) for m in self.machines.values()
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
                "max": _round(max(ratios) if len(ratios) == n
                              else max(max(ratios), 0.0)),
                "mean": _round(sum(ratios) / n),
            },
        }
        labs: dict = {}
        for name in sorted(self.labs):
            st = self.labs[name]
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
            out["machines"] = {
                str(mid): self.machine_dict(mid)
                for mid in sorted(self.machines)
            }
        return out

    def machine_dict(self, mid: int) -> dict:
        m = self.machines[mid]
        runs = self.iterations_run
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

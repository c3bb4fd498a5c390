"""Append-only trace storage with CSV / JSONL round-trip.

The coordinator appends one :class:`~repro.traces.records.Sample` per
successful probe execution.  Internally the store is **columnar** --
typed :mod:`array` buffers per field -- so a paper-scale trace (583,653
samples) costs ~70 MB instead of the ~300 MB half a million dataclass
instances would take, and converts to NumPy views without copying.

Two interchange formats are supported:

- **CSV** -- one row per sample, a fixed header, round-trips exactly;
- **JSONL** -- one JSON object per sample; self-describing, slightly
  larger, convenient for external tooling.
"""

from __future__ import annotations

import array
import csv
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.traces.records import Sample, TraceMeta

__all__ = ["TraceStore", "CSV_FIELDS"]

#: Column order of the CSV format (and of the internal buffers).
CSV_FIELDS = (
    "machine_id",
    "hostname",
    "lab",
    "iteration",
    "t",
    "boot_time",
    "uptime_s",
    "cpu_idle_s",
    "mem_load_pct",
    "swap_load_pct",
    "disk_total_b",
    "disk_free_b",
    "smart_cycles",
    "smart_poh_h",
    "net_sent_b",
    "net_recv_b",
    "has_session",
    "username",
    "session_start",
)


class TraceStore:
    """Columnar, append-only store of probe samples.

    Parameters
    ----------
    meta:
        Experiment metadata; may be attached / replaced later via
        :attr:`meta` (the coordinator finalises counts at the end).
    """

    def __init__(self, meta: TraceMeta | None = None):
        self.meta = meta
        self._machine_id = array.array("i")
        self._iteration = array.array("i")
        self._t = array.array("d")
        self._boot_time = array.array("d")
        self._uptime = array.array("d")
        self._idle = array.array("d")
        self._mem = array.array("d")
        self._swap = array.array("d")
        self._disk_total = array.array("q")
        self._disk_free = array.array("q")
        self._cycles = array.array("q")
        self._poh = array.array("d")
        self._sent = array.array("q")
        self._recv = array.array("q")
        self._has_session = array.array("b")
        self._session_start = array.array("d")
        self._usernames: List[str] = []
        self._hostnames: List[str] = []
        self._labs: List[str] = []

    # ------------------------------------------------------------------
    def add(self, s: Sample) -> None:
        """Append one sample (validation happened in ``Sample.__post_init__``)."""
        self._machine_id.append(s.machine_id)
        self._iteration.append(s.iteration)
        self._t.append(s.t)
        self._boot_time.append(s.boot_time)
        self._uptime.append(s.uptime_s)
        self._idle.append(s.cpu_idle_s)
        self._mem.append(s.mem_load_pct)
        self._swap.append(s.swap_load_pct)
        self._disk_total.append(s.disk_total_b)
        self._disk_free.append(s.disk_free_b)
        self._cycles.append(s.smart_cycles)
        self._poh.append(s.smart_poh_h)
        self._sent.append(s.net_sent_b)
        self._recv.append(s.net_recv_b)
        self._has_session.append(1 if s.has_session else 0)
        self._session_start.append(s.session_start)
        self._usernames.append(s.username)
        self._hostnames.append(s.hostname)
        self._labs.append(s.lab)

    def extend(self, samples: Iterable[Sample]) -> None:
        """Append many samples."""
        for s in samples:
            self.add(s)

    #: (CSV field, attribute, numpy dtype) for every numeric buffer, and
    #: (CSV field, attribute) for the string buffers -- the bulk-append
    #: counterpart of :data:`CSV_FIELDS`.
    _COLUMN_NUMERIC = (
        ("machine_id", "_machine_id", "i4"),
        ("iteration", "_iteration", "i4"),
        ("t", "_t", "f8"),
        ("boot_time", "_boot_time", "f8"),
        ("uptime_s", "_uptime", "f8"),
        ("cpu_idle_s", "_idle", "f8"),
        ("mem_load_pct", "_mem", "f8"),
        ("swap_load_pct", "_swap", "f8"),
        ("disk_total_b", "_disk_total", "i8"),
        ("disk_free_b", "_disk_free", "i8"),
        ("smart_cycles", "_cycles", "i8"),
        ("smart_poh_h", "_poh", "f8"),
        ("net_sent_b", "_sent", "i8"),
        ("net_recv_b", "_recv", "i8"),
        ("has_session", "_has_session", "i1"),
        ("session_start", "_session_start", "f8"),
    )
    _COLUMN_STRINGS = (
        ("username", "_usernames"),
        ("hostname", "_hostnames"),
        ("lab", "_labs"),
    )

    def extend_columns(self, **columns) -> None:
        """Bulk-append one equal-length column per CSV field.

        The columnar DDC pass appends a whole iteration at once instead
        of materialising per-row :class:`Sample` objects.  Rows land in
        positional order -- exactly what the same values fed through
        sequential :meth:`add` calls would produce.  Numeric columns go
        through the buffer's exact dtype (integer casts truncate toward
        zero, matching ``int()``); string columns are list-extended.
        """
        import numpy as np

        n: int | None = None
        for field, attr, dtype in self._COLUMN_NUMERIC:
            col = np.ascontiguousarray(columns.pop(field), dtype=dtype)
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise TraceFormatError(
                    f"column {field!r} has length {len(col)}, expected {n}"
                )
            getattr(self, attr).frombytes(col.tobytes())
        for field, attr in self._COLUMN_STRINGS:
            vals = columns.pop(field)
            if len(vals) != n:
                raise TraceFormatError(
                    f"column {field!r} has length {len(vals)}, expected {n}"
                )
            getattr(self, attr).extend(vals)
        if columns:
            raise TraceFormatError(
                f"unknown trace columns {sorted(columns)!r}"
            )

    def __len__(self) -> int:
        return len(self._t)

    # ------------------------------------------------------------------
    def sample_at(self, i: int) -> Sample:
        """Materialise the ``i``-th sample as a :class:`Sample` object."""
        return Sample(
            machine_id=self._machine_id[i],
            hostname=self._hostnames[i],
            lab=self._labs[i],
            iteration=self._iteration[i],
            t=self._t[i],
            boot_time=self._boot_time[i],
            uptime_s=self._uptime[i],
            cpu_idle_s=self._idle[i],
            mem_load_pct=self._mem[i],
            swap_load_pct=self._swap[i],
            disk_total_b=self._disk_total[i],
            disk_free_b=self._disk_free[i],
            smart_cycles=self._cycles[i],
            smart_poh_h=self._poh[i],
            net_sent_b=self._sent[i],
            net_recv_b=self._recv[i],
            has_session=bool(self._has_session[i]),
            username=self._usernames[i],
            session_start=self._session_start[i],
        )

    def samples(self) -> Iterator[Sample]:
        """Iterate all samples as :class:`Sample` objects (lazily)."""
        for i in range(len(self)):
            yield self.sample_at(i)

    # ------------------------------------------------------------------
    # raw column access (consumed by ColumnarTrace)
    # ------------------------------------------------------------------
    def column(self, name: str):
        """Return the raw internal buffer for column ``name``."""
        mapping = {
            "machine_id": self._machine_id,
            "iteration": self._iteration,
            "t": self._t,
            "boot_time": self._boot_time,
            "uptime_s": self._uptime,
            "cpu_idle_s": self._idle,
            "mem_load_pct": self._mem,
            "swap_load_pct": self._swap,
            "disk_total_b": self._disk_total,
            "disk_free_b": self._disk_free,
            "smart_cycles": self._cycles,
            "smart_poh_h": self._poh,
            "net_sent_b": self._sent,
            "net_recv_b": self._recv,
            "has_session": self._has_session,
            "session_start": self._session_start,
            "username": self._usernames,
            "hostname": self._hostnames,
            "lab": self._labs,
        }
        try:
            return mapping[name]
        except KeyError:
            raise TraceFormatError(f"unknown trace column {name!r}") from None

    # ------------------------------------------------------------------
    # CSV
    # ------------------------------------------------------------------
    def write_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as CSV with the :data:`CSV_FIELDS` header."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_FIELDS)
            for i in range(len(self)):
                w.writerow(self._row(i))

    def _row(self, i: int) -> tuple:
        ss = self._session_start[i]
        return (
            self._machine_id[i],
            self._hostnames[i],
            self._labs[i],
            self._iteration[i],
            repr(self._t[i]),
            repr(self._boot_time[i]),
            repr(self._uptime[i]),
            repr(self._idle[i]),
            repr(self._mem[i]),
            repr(self._swap[i]),
            self._disk_total[i],
            self._disk_free[i],
            self._cycles[i],
            repr(self._poh[i]),
            self._sent[i],
            self._recv[i],
            self._has_session[i],
            self._usernames[i],
            "" if math.isnan(ss) else repr(ss),
        )

    @classmethod
    def read_csv(cls, path: Union[str, Path], meta: TraceMeta | None = None) -> "TraceStore":
        """Read a trace written by :meth:`write_csv`."""
        store = cls(meta)
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None or tuple(header) != CSV_FIELDS:
                raise TraceFormatError(f"bad CSV header in {path}")
            for row in r:
                if len(row) != len(CSV_FIELDS):
                    raise TraceCorruptionError(
                        f"bad CSV row width in {path}: {row!r}"
                    )
                store.add(_sample_from_strings(row))
        return store

    # ------------------------------------------------------------------
    # JSONL
    # ------------------------------------------------------------------
    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.samples():
                d = {k: getattr(s, k) for k in Sample.__slots__}
                if math.isnan(d["session_start"]):
                    d["session_start"] = None
                fh.write(json.dumps(d) + "\n")

    @classmethod
    def read_jsonl(cls, path: Union[str, Path], meta: TraceMeta | None = None) -> "TraceStore":
        """Read a trace written by :meth:`write_jsonl`."""
        store = cls(meta)
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceCorruptionError(
                        f"{path}:{line_no}: bad JSON"
                    ) from exc
                if d.get("session_start") is None:
                    d["session_start"] = float("nan")
                try:
                    store.add(Sample(**d))
                except (TypeError, ValueError) as exc:
                    raise TraceCorruptionError(
                        f"{path}:{line_no}: {exc}"
                    ) from exc
        return store


def _sample_from_strings(row: List[str]) -> Sample:
    """Parse one CSV row back into a :class:`Sample`."""
    try:
        return Sample(
            machine_id=int(row[0]),
            hostname=row[1],
            lab=row[2],
            iteration=int(row[3]),
            t=float(row[4]),
            boot_time=float(row[5]),
            uptime_s=float(row[6]),
            cpu_idle_s=float(row[7]),
            mem_load_pct=float(row[8]),
            swap_load_pct=float(row[9]),
            disk_total_b=int(row[10]),
            disk_free_b=int(row[11]),
            smart_cycles=int(row[12]),
            smart_poh_h=float(row[13]),
            net_sent_b=int(row[14]),
            net_recv_b=int(row[15]),
            has_session=bool(int(row[16])),
            username=row[17],
            session_start=float(row[18]) if row[18] else float("nan"),
        )
    except (ValueError, IndexError) as exc:
        raise TraceCorruptionError(f"bad CSV row: {row!r}") from exc

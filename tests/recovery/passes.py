"""Journal pass records built from synthetic trace rows, for tests.

The rows are encoded exactly as
:meth:`repro.recovery.runtime.RecoveryRuntime.on_iteration_end` encodes
a pass: one :mod:`repro.recovery.rows` block, its CRC32 as the digest.
"""

from __future__ import annotations

import base64
import zlib
from typing import List, Tuple

from repro.recovery.journal import JournalRecord
from repro.recovery.rows import encode_rows
from repro.traces.store import CSV_FIELDS, TraceStore

#: Field values of a synthetic row that a test does not set.
ROW_DEFAULTS = dict(
    machine_id=0, hostname="m000", lab="L01", iteration=0, t=0.0,
    boot_time=0.0, uptime_s=3600.0, cpu_idle_s=1800.0, mem_load_pct=40.0,
    swap_load_pct=5.0, disk_total_b=40_000_000_000,
    disk_free_b=12_000_000_000, smart_cycles=800, smart_poh_h=6000.0,
    net_sent_b=1_048_576, net_recv_b=7_340_032, has_session=False,
    username="", session_start=float("nan"),
)


def rows_store(rows: List[dict]) -> TraceStore:
    """A store holding ``rows`` (dicts over :data:`ROW_DEFAULTS`)."""
    full = [dict(ROW_DEFAULTS, **row) for row in rows]
    store = TraceStore()
    store.extend_columns(**{name: [r[name] for r in full]
                            for name in CSV_FIELDS})
    return store


def machine_rows(k: int, n: int) -> List[dict]:
    """Iteration ``k``'s rows of machines ``0 .. n-1``."""
    return [dict(machine_id=i, hostname=f"m{i:03d}", iteration=k,
                 t=900.0 * k + i) for i in range(n)]


def encode(rows: List[dict]) -> Tuple[bytes, str]:
    """``(block, digest)`` of ``rows``, as the runtime encodes a pass."""
    payload = encode_rows(rows_store(rows), 0, len(rows)) if rows else b""
    return payload, format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")


def pass_body(k: int, t: float, rows: List[dict], *, ran: bool = True) -> dict:
    """The body of iteration ``k``'s pass record over ``rows``."""
    payload, digest = encode(rows)
    body = {"kind": "iter", "k": k, "t": t, "n": len(rows),
            "digest": digest, "ran": ran}
    if rows:
        body["rows"] = base64.b64encode(payload).decode("ascii")
    return body


def pass_record(k: int, t: float, rows: List[dict], *,
                ran: bool = True) -> JournalRecord:
    """:func:`pass_body` as a decoded journal record."""
    return JournalRecord(1, 0, pass_body(k, t, rows, ran=ran))


def write_pass(writer, k: int, n: int, *, ran: bool = True) -> str:
    """Journal iteration ``k`` with ``n`` machine rows; returns the digest."""
    payload, digest = encode(machine_rows(k, n))
    writer.iteration_end(k, 900.0 * k, n, digest, ran=ran, rows=payload)
    return digest

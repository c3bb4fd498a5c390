"""Write-ahead trace journal: append-only, CRC-guarded, segment-rotated.

The journal is the durability half of :mod:`repro.recovery`.  At the end
of every scheduled iteration the runtime journals the rows the trace
store gained during that pass as one **pass record** and flushes it,
before any checkpoint or heartbeat that covers those rows.  A crashed
run therefore leaves a byte-exact, checkable record of every pass it
had finished; a pass cut short loses only rows that lived in memory,
which the resumed run regenerates.

Format (:data:`JOURNAL_VERSION` 2)
----------------------------------
One JSONL file per **segment** (``segment-000001.jsonl`` ...).  Each line
is ``{"body":{...},"crc":"xxxxxxxx"}`` where ``crc`` is the CRC32 (hex)
of the compact, key-sorted JSON encoding of ``body``.  Body kinds:

``head``
    First record of a segment: schema version and segment index.
``iter``
    The pass record closing one iteration: iteration index, simulation
    time, whether the pass ran, the number ``n`` of rows the pass added,
    and -- when ``n > 0`` -- ``rows``, the base64 of those rows as one
    :mod:`repro.recovery.rows` block in the trace layout (the checkpoint
    deltas' layout).  ``digest`` is the CRC32 of that block (of no bytes
    when ``n == 0``).
``gather``
    The input record closing one instant of a gathered shard
    (:mod:`repro.shard.gather`): the same fields, but ``n`` counts the
    shard's powered machines at the instant and ``rows`` holds their
    pass inputs in the :data:`~repro.recovery.rows.INPUTS` layout.  A
    shard's journal holds these instead of ``iter`` records; the parent
    runs the pass over them, so they carry no trace row.
``seal``
    Segment footer: record count and a whole-segment digest.  A sealed
    segment is immutable; only the newest segment may lack a seal.

Segments rotate at the first iteration boundary at which the segment's
records plus the rows its pass records carry reach ``segment_records``:
rotation is measured in samples, so a segment spans the passes that a
version-1 segment, which held one line per sample, did.

Read-side policy (crash tolerance)
----------------------------------
Reading never raises on damaged data.  A pass record whose line CRC
verifies but whose rows do not decode to ``n`` rows is damage exactly
like a CRC failure.  A torn trailing line (the signature of a crash
mid-``write``) is dropped and logged; a segment with interior damage or
a bad seal is moved wholesale into the run's ``quarantine/`` directory
and recorded in ``quarantine/ledger.jsonl`` with a machine-readable
reason.  Because the simulation re-generates samples deterministically
from the last checkpoint, journal damage costs verification coverage,
never result correctness.  A journal written in another format version
is refused up front by :func:`require_version`, before anything moves.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import JournalError
from repro.recovery.rows import INPUTS, TRACE

__all__ = [
    "JOURNAL_VERSION",
    "RECORD_LAYOUTS",
    "JournalWriter",
    "JournalRecord",
    "JournalTailReader",
    "Quarantine",
    "SegmentScan",
    "JournalScan",
    "TailAnomaly",
    "encode_record",
    "decode_line",
    "decode_pass",
    "decode_record",
    "iter_bodies",
    "require_version",
    "scan_journal",
]

#: Journal schema version (bumped on incompatible format changes).
JOURNAL_VERSION = 2

#: The row layout of each record kind that carries rows.
RECORD_LAYOUTS = {"iter": TRACE, "gather": INPUTS}

_SEGMENT_FMT = "segment-{:06d}.jsonl"

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _crc_hex(data: bytes) -> str:
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def _envelope_crc(line: str) -> str:
    """Extract the recorded CRC of an (already verified) journal line.

    Uses the fixed :func:`encode_record` byte layout when it holds --
    no JSON parse -- and falls back to parsing the envelope otherwise.
    """
    if (
        line.startswith('{"body":')
        and line.endswith('"}')
        and line[-18:-10] == ',"crc":"'
    ):
        return line[-10:-2]
    return json.loads(line)["crc"]


def encode_record(body: dict) -> str:
    """Encode one journal line (compact JSON + CRC32 envelope).

    ``body`` is encoded once and the envelope assembled around it: with
    sorted keys ``"body"`` precedes ``"crc"``, so the line is the same
    bytes as dumping ``{"crc": ..., "body": body}`` whole -- the layout
    :func:`decode_line` and :func:`_envelope_crc` read.
    """
    payload = _dumps(body)
    return ('{"body":' + payload + ',"crc":"'
            + _crc_hex(payload.encode("utf-8")) + '"}')


def decode_line(line: str) -> dict:
    """Decode and CRC-verify one journal line; returns the body.

    Lines written by :func:`encode_record` always have the exact shape
    ``{"body":<compact sorted JSON>,"crc":"xxxxxxxx"}``, so the common
    case is verified by CRC-ing the raw payload slice directly -- one
    JSON parse per record instead of parse + re-encode.  Anything not
    matching that byte layout (hand-edited, reformatted) falls through
    to the generic envelope path with identical semantics.

    Raises
    ------
    JournalError
        On malformed JSON, a missing envelope field, or a CRC mismatch.
    """
    if (
        line.startswith('{"body":')
        and line.endswith('"}')
        and line[-18:-10] == ',"crc":"'
    ):
        payload = line[8:-18]
        if _crc_hex(payload.encode("utf-8")) == line[-10:-2]:
            try:
                return json.loads(payload)
            except json.JSONDecodeError:
                pass  # CRC collision on junk; let the slow path diagnose
    try:
        envelope = json.loads(line)
        crc, body = envelope["crc"], envelope["body"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise JournalError(f"unparseable journal line: {exc}") from exc
    actual = _crc_hex(_dumps(body).encode("utf-8"))
    if actual != crc:
        raise JournalError(f"CRC mismatch: recorded {crc}, actual {actual}")
    return body


def decode_pass(body: dict) -> Optional[Dict[str, Any]]:
    """The rows of an ``iter`` or ``gather`` record, as columns.

    Returns ``None`` when the record carries no rows, else its columns
    in the kind's :data:`RECORD_LAYOUTS` layout: for a pass record, the
    keyword columns of :meth:`~repro.traces.store.TraceStore
    .extend_columns`.

    Raises
    ------
    JournalError
        When ``rows`` is missing, present for ``n == 0``, not base64 or
        not a block of exactly ``n`` rows.  The ``digest`` is not checked
        here: it is what resume verifies a regenerated pass against.
    """
    n = body.get("n")
    rows = body.get("rows")
    if type(n) is not int or n < 0:
        raise JournalError(f"pass record has bad row count {n!r}")
    if n == 0:
        if rows is not None:
            raise JournalError("pass record with n == 0 carries rows")
        return None
    if not isinstance(rows, str):
        raise JournalError(f"pass record of {n} rows carries none")
    try:
        payload = base64.b64decode(rows, validate=True)
    except ValueError as exc:  # binascii.Error
        raise JournalError(f"pass record rows are not base64: {exc}") from exc
    try:
        return RECORD_LAYOUTS.get(body.get("kind"), TRACE).decode(payload, n)
    except ValueError as exc:
        raise JournalError(f"bad pass record rows: {exc}") from exc


def decode_record(line: str) -> Tuple[dict, Optional[Dict[str, Any]]]:
    """:func:`decode_line`, plus the rows of a record that carries them.

    Returns the body and, for an ``iter`` or ``gather`` record with
    rows, its :func:`decode_pass` columns.  Every reader verifies lines
    through here, so a record whose rows do not decode is damage
    exactly like a CRC failure.
    """
    body = decode_line(line)
    if body.get("kind") in RECORD_LAYOUTS:
        return body, decode_pass(body)
    return body, None


class Quarantine:
    """The run's corruption sink: a directory plus a reason ledger.

    Damaged artefacts (journal segments, checkpoints, stale temp files)
    are *moved* here -- never deleted, so post-mortems keep the evidence
    -- and each move appends one JSON line to ``ledger.jsonl``.
    """

    LEDGER = "ledger.jsonl"

    def __init__(self, run_dir: Union[str, Path]):
        self.dir = Path(run_dir) / "quarantine"
        #: Ledger entries appended during this process's lifetime.
        self.entries: List[dict] = []

    @property
    def ledger_path(self) -> Path:
        return self.dir / self.LEDGER

    def report(self, reason: str, *, file: Optional[Path] = None,
               **detail: object) -> dict:
        """Record one corruption event; move ``file`` here if given."""
        self.dir.mkdir(parents=True, exist_ok=True)
        entry: Dict[str, object] = {"reason": reason, **detail}
        if file is not None:
            target = self.dir / file.name
            n = 1
            while target.exists():
                target = self.dir / f"{file.name}.{n}"
                n += 1
            os.replace(file, target)
            entry["file"] = file.name
            entry["quarantined_as"] = target.name
        with open(self.ledger_path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self.entries.append(entry)
        return entry

    def read_ledger(self) -> List[dict]:
        """All ledger entries ever written for this run."""
        if not self.ledger_path.exists():
            return []
        out = []
        for line in self.ledger_path.read_text().splitlines():
            line = line.strip()
            if line:
                out.append(json.loads(line))
        return out


class JournalWriter:
    """Appends CRC-guarded records, rotating and sealing segments.

    Parameters
    ----------
    journal_dir:
        Directory holding the segment files (created if missing).
    segment_records:
        Soft rotation threshold, in samples: a segment is sealed at the
        first iteration boundary at which its records plus the rows its
        pass records carry reach this many, keeping segments aligned
        with whole iterations.
    start_segment:
        Index of the first segment this writer creates; a resumed run
        continues numbering after the crashed generation's segments.
    fsync:
        Whether seals and closes fsync to disk.  Every record is flushed
        to the OS as it is written (that *is* the write-ahead guarantee);
        fsync additionally survives power loss, at a syscall cost.
    """

    def __init__(
        self,
        journal_dir: Union[str, Path],
        *,
        segment_records: int = 4096,
        start_segment: int = 1,
        fsync: bool = True,
    ):
        if segment_records <= 0:
            raise JournalError("segment_records must be positive")
        self.dir = Path(journal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.segment_records = int(segment_records)
        self.fsync = bool(fsync)
        self.segment = int(start_segment) - 1
        self.records_in_segment = 0
        #: Rows carried by the open segment's pass records.
        self.rows_in_segment = 0
        self.records_total = 0
        self.segments_sealed = 0
        self._fh = None
        self._segment_crcs: List[str] = []

    # ------------------------------------------------------------------
    @property
    def segment_path(self) -> Optional[Path]:
        """Path of the open segment, or ``None`` before the first write."""
        if self._fh is None:
            return None
        return self.dir / _SEGMENT_FMT.format(self.segment)

    def _open_next(self) -> None:
        self.segment += 1
        path = self.dir / _SEGMENT_FMT.format(self.segment)
        if path.exists():
            raise JournalError(f"segment already exists: {path}")
        self._fh = open(path, "w")
        self.records_in_segment = 0
        self.rows_in_segment = 0
        self._segment_crcs = []
        self._write({"kind": "head", "version": JOURNAL_VERSION,
                     "segment": self.segment})

    def _write(self, body: dict) -> str:
        if self._fh is None:
            self._open_next()
        line = encode_record(body)
        self._fh.write(line + "\n")
        # Flush every record: a pass must reach the OS before the
        # checkpoint or heartbeat that covers it (write-ahead discipline).
        self._fh.flush()
        self.records_in_segment += 1
        self.records_total += 1
        crc = _envelope_crc(line)
        self._segment_crcs.append(crc)
        return crc

    # ------------------------------------------------------------------
    # record kinds
    # ------------------------------------------------------------------
    def iteration_end(self, iteration: int, t: float, n_samples: int,
                      digest: str, *, ran: bool = True,
                      rows: bytes = b"", kind: str = "iter") -> None:
        """Journal iteration ``iteration``'s record; rotate if due.

        ``rows`` is the :mod:`repro.recovery.rows` block of the
        ``n_samples`` rows the pass added (of the instant's pass inputs
        for ``kind="gather"``) and ``digest`` its CRC32.
        ``ran`` records whether the coordinator actually executed the
        probing pass (``False`` for iterations lost to the availability
        draw or an injected outage).  Live replay needs the distinction
        to reproduce the batch denominators -- a lost iteration and a
        run-but-empty iteration both journal ``n == 0``.
        """
        body = {"kind": kind, "k": iteration, "t": t, "n": n_samples,
                "digest": digest, "ran": bool(ran)}
        if n_samples:
            body["rows"] = base64.b64encode(rows).decode("ascii")
        self._write(body)
        self.rows_in_segment += n_samples
        if self.records_in_segment + self.rows_in_segment \
                >= self.segment_records:
            self.seal()

    def seal(self) -> None:
        """Append the segment footer, fsync and close the segment."""
        if self._fh is None:
            return
        digest = _crc_hex("".join(self._segment_crcs).encode("ascii"))
        # The seal covers every record before it, itself excluded.
        self._write({"kind": "seal", "segment": self.segment,
                     "records": self.records_in_segment - 1,
                     "digest": digest})
        self._close(sync=self.fsync)
        self.segments_sealed += 1

    def _close(self, *, sync: bool) -> None:
        fh, self._fh = self._fh, None
        if fh is None:
            return
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
        fh.close()
        if sync:
            _fsync_dir(self.dir)

    def abort(self) -> None:
        """Close the raw handle without sealing (crash emulation path)."""
        self._close(sync=False)

    def close(self) -> None:
        """Seal the open segment and stop writing."""
        self.seal()

    # Torn-write emulation used by the crash-injection harness: a real
    # crash can leave a half-written line at the tail of the newest
    # segment; this writes one deliberately.
    def tear(self, fragment: str = '{"crc":"dead') -> None:
        if self._fh is None:
            self._open_next()
        self._fh.write(fragment)
        self._fh.flush()
        self._close(sync=False)


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------
@dataclass
class JournalRecord:
    """One decoded journal record plus its provenance."""

    segment: int
    line_no: int
    body: dict
    #: A pass record's rows as store columns, when its reader decoded
    #: them (:class:`JournalTailReader` does); ``None`` otherwise.
    rows: Optional[Dict[str, Any]] = None


@dataclass
class SegmentScan:
    """Read-side summary of one segment file."""

    index: int
    path: Path
    records: List[JournalRecord] = field(default_factory=list)
    sealed: bool = False
    torn_tail: bool = False
    quarantined: bool = False
    reason: Optional[str] = None


@dataclass
class JournalScan:
    """Result of :func:`scan_journal` over a whole journal directory."""

    segments: List[SegmentScan] = field(default_factory=list)
    #: Per-iteration ``(digest, n)`` from surviving ``iter`` and
    #: ``gather`` records.
    iteration_digests: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    #: Highest segment index seen on disk (0 when the journal is empty).
    last_segment: int = 0
    #: Segments moved to quarantine during this scan.
    quarantined: int = 0
    torn_tails: int = 0

    def records(self) -> Iterator[JournalRecord]:
        """All surviving records, in segment then line order."""
        for seg in self.segments:
            if not seg.quarantined:
                yield from seg.records

    @property
    def next_segment(self) -> int:
        """Index a new writer generation should start at."""
        return self.last_segment + 1


def _segment_files(journal_dir: Path) -> List[Tuple[int, Path]]:
    out = []
    if not journal_dir.is_dir():
        return out
    for path in sorted(journal_dir.glob("segment-*.jsonl")):
        try:
            index = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        out.append((index, path))
    out.sort()
    return out


def _read_complete_lines(path: Path, offset: int) -> Tuple[List[str], int, bytes]:
    """Read newline-terminated lines from byte ``offset`` onward.

    Returns ``(lines, new_offset, partial)``: the decoded complete lines
    (without their newlines), the byte offset just past the last complete
    line, and the raw bytes of any trailing un-terminated fragment.  The
    fragment is *not* consumed -- a follow-mode reader re-reads from
    ``new_offset`` on its next poll, by which time the writer's flush has
    usually completed the line.  Splitting happens on the byte level
    (UTF-8 never embeds ``0x0A`` in a multi-byte sequence), so a partial
    multi-byte character at the tail cannot corrupt the decode.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read()
    nl = chunk.rfind(b"\n")
    if nl < 0:
        return [], offset, chunk
    complete = chunk[: nl + 1]
    lines = complete.decode("utf-8", errors="replace").split("\n")[:-1]
    return lines, offset + nl + 1, chunk[nl + 1:]


def _scan_segment(index: int, path: Path, is_last: bool,
                  quarantine: Quarantine) -> SegmentScan:
    scan = SegmentScan(index=index, path=path)
    # One pass from offset 0: the batch scan is just the degenerate case
    # of the incremental reader.  Anything after the final newline is a
    # torn trailing write.
    lines, _, partial = _read_complete_lines(path, 0)
    trailing = partial.decode("utf-8", errors="replace")
    crcs: List[str] = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            body, _ = decode_record(line)
        except JournalError as exc:
            if is_last and line_no == len(lines) and not trailing:
                # Damage limited to the final complete-looking line of
                # the newest segment: treat as a torn tail, keep prefix.
                scan.torn_tail = True
                quarantine.report(
                    "torn_tail", segment=index, line=line_no,
                    detail=str(exc), action="dropped",
                )
                break
            scan.quarantined = True
            scan.reason = f"crc_mismatch at line {line_no}: {exc}"
            quarantine.report(
                "crc_mismatch", file=path, segment=index, line=line_no,
                detail=str(exc),
            )
            return scan
        if body.get("kind") == "seal":
            expected = _crc_hex("".join(crcs).encode("ascii"))
            if (body.get("records") != len(crcs) - 1
                    or body.get("digest") != expected):
                scan.quarantined = True
                scan.reason = "bad_seal"
                quarantine.report(
                    "bad_seal", file=path, segment=index, line=line_no,
                    recorded=body.get("digest"), actual=expected,
                )
                return scan
            scan.sealed = True
        else:
            scan.records.append(JournalRecord(index, line_no, body))
        crcs.append(_envelope_crc(line))
    if trailing.strip():
        scan.torn_tail = True
        quarantine.report(
            "torn_tail", segment=index, line=len(lines) + 1,
            detail=f"{len(trailing)} bytes without newline", action="dropped",
        )
    if scan.torn_tail and not is_last:
        # Torn writes can only happen at the journal's true tail; a torn
        # interior segment means out-of-order damage.
        scan.quarantined = True
        scan.reason = "torn_interior_segment"
        quarantine.report("torn_interior_segment", file=path, segment=index)
    elif not scan.sealed and not is_last:
        scan.quarantined = True
        scan.reason = "unsealed_interior_segment"
        quarantine.report("unsealed_interior_segment", file=path,
                          segment=index)
    return scan


def scan_journal(journal_dir: Union[str, Path],
                 quarantine: Quarantine) -> JournalScan:
    """Read and verify every segment, quarantining damaged ones.

    The newest segment is allowed to be unsealed and to carry a torn
    trailing line (both are the expected residue of a crash); damage
    anywhere else quarantines the whole segment file.
    """
    journal_dir = Path(journal_dir)
    result = JournalScan()
    files = _segment_files(journal_dir)
    for pos, (index, path) in enumerate(files):
        is_last = pos == len(files) - 1
        seg = _scan_segment(index, path, is_last, quarantine)
        result.segments.append(seg)
        result.last_segment = max(result.last_segment, index)
        if seg.quarantined:
            result.quarantined += 1
            continue
        if seg.torn_tail:
            result.torn_tails += 1
        for rec in seg.records:
            if rec.body.get("kind") in RECORD_LAYOUTS:
                b = rec.body
                result.iteration_digests[int(b["k"])] = (
                    str(b["digest"]), int(b["n"])
                )
    return result


def retro_seal(scan: JournalScan) -> None:
    """Seal the newest segment of a crashed generation in place.

    The surviving (CRC-verified) records are rewritten atomically with a
    proper footer, restoring the "only the newest segment is unsealed"
    invariant before a resumed run opens its own segments.
    """
    if not scan.segments:
        return
    seg = scan.segments[-1]
    if seg.quarantined or seg.sealed:
        return
    lines = []
    crcs = []
    for rec in seg.records:
        line = encode_record(rec.body)
        lines.append(line)
        crcs.append(_envelope_crc(line))
    digest = _crc_hex("".join(crcs).encode("ascii"))
    lines.append(encode_record({"kind": "seal", "segment": seg.index,
                                "records": len(crcs) - 1, "digest": digest}))
    tmp = seg.path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, seg.path)
    _fsync_dir(seg.path.parent)
    seg.sealed = True


def iter_bodies(journal_dir: Union[str, Path]) -> Iterator[dict]:
    """Lazily yield the verified record bodies of a journal, in order.

    Segments are read in index order, one line at a time, under the
    policy of :class:`JournalTailReader`: a damaged or unterminated line
    ends its segment, and a seal ends it after being swallowed.  Nothing
    is moved or ledgered, and a caller that stops early has decoded only
    the lines it consumed.
    """
    for _index, path in _segment_files(Path(journal_dir)):
        with open(path, "rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break
                line = raw[:-1].decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                try:
                    body, _ = decode_record(line)
                except JournalError:
                    break
                if body.get("kind") == "seal":
                    break
                yield body


def require_version(journal_dir: Union[str, Path]) -> None:
    """Refuse a journal written in another format version.

    Reads only each segment's head line and moves nothing, so a resume
    or replay can refuse a foreign journal before it quarantines or
    rewrites anything.  A head that does not decode is left to the
    scan's damage policy.

    Raises
    ------
    JournalError
        Naming the segment's version and :data:`JOURNAL_VERSION`.
    """
    for _index, path in _segment_files(Path(journal_dir)):
        with open(path, "rb") as fh:
            head = fh.readline()
        try:
            body = decode_line(head.decode("utf-8", errors="replace")
                               .rstrip("\n"))
        except JournalError:
            continue
        version = body.get("version")
        if body.get("kind") == "head" and version != JOURNAL_VERSION:
            raise JournalError(
                f"{path} is journal version {version!r}; this "
                f"build reads journal version {JOURNAL_VERSION} only"
            )


# ----------------------------------------------------------------------
# follow-mode (tail) reading
# ----------------------------------------------------------------------
@dataclass
class TailAnomaly:
    """One damage event observed by a :class:`JournalTailReader`.

    Unlike the batch scan's :class:`Quarantine`, tail anomalies are
    recorded in memory only -- the reader never moves or rewrites files,
    because the writer may still own them.
    """

    reason: str
    segment: int
    line: Optional[int] = None
    detail: str = ""


class JournalTailReader:
    """Incremental follow-mode reader over a (possibly live) journal.

    Where :func:`scan_journal` loads whole segments and quarantines
    damage, this reader resumes from a saved ``(segment, byte offset)``
    position on every :meth:`poll` and reads only newly appended
    complete lines.  It is the ingestion side of ``repro.live``: the
    writer appends ``line + "\\n"`` and flushes, so a line without its
    terminating newline is simply *pending* -- the reader leaves it
    unconsumed and picks it up once the flush lands.

    Differences from the batch scan, by design:

    - **Non-destructive.**  Damage is recorded as :class:`TailAnomaly`
      entries; no file is ever moved to quarantine.
    - **Prefix-optimistic.**  Records are handed out as soon as their
      line CRC verifies.  If interior damage appears later in the same
      segment, the earlier records have already been consumed; the
      batch scan would have quarantined the whole file.  (The live
      rollups favour freshness; the differential replay test pins the
      two paths to identical output on undamaged journals.)
    - A bad complete line makes the reader skip the *rest* of that
      segment and wait for the next one, mirroring the batch policy of
      not trusting anything after the first corruption.

    ``poll`` returns decoded records in order (``head``/``iter``; seal
    records are verified and swallowed, as in
    :meth:`JournalScan.records`).  A pass record arrives with its rows
    decoded into :attr:`JournalRecord.rows`.  An empty list means no
    complete new data -- the caller decides whether the writer is
    merely idle or the journal is finished.
    """

    def __init__(self, journal_dir: Union[str, Path],
                 *, start_segment: Optional[int] = None):
        self.dir = Path(journal_dir)
        self._segment: Optional[int] = (
            None if start_segment is None else int(start_segment)
        )
        self._offset = 0
        self._line_no = 0
        self._crcs: List[str] = []
        #: Current segment fully consumed (sealed) or written off (damage).
        self._done = False
        self.anomalies: List[TailAnomaly] = []
        self.records_read = 0
        self.segments_finished = 0
        self.seals_verified = 0

    # ------------------------------------------------------------------
    @property
    def position(self) -> Tuple[Optional[int], int]:
        """Current ``(segment index, byte offset)`` read position."""
        return self._segment, self._offset

    def _note(self, reason: str, *, line: Optional[int] = None,
              detail: str = "") -> None:
        self.anomalies.append(TailAnomaly(
            reason=reason, segment=self._segment if self._segment else 0,
            line=line, detail=detail,
        ))

    def _next_index(self) -> Optional[int]:
        """Lowest on-disk segment index after the current one, if any.

        The writer numbers segments consecutively, so the successor is
        opened by name; the directory is listed only when it is absent
        (the first segment, a gap left by quarantine, or the end).
        """
        if self._segment is not None and (
            self.dir / _SEGMENT_FMT.format(self._segment + 1)
        ).exists():
            return self._segment + 1
        for index, _path in _segment_files(self.dir):
            if self._segment is None or index > self._segment:
                return index
        return None

    def _enter(self, index: int) -> None:
        if self._segment is not None:
            self.segments_finished += 1
        self._segment = index
        self._offset = 0
        self._line_no = 0
        self._crcs = []
        self._done = False

    # ------------------------------------------------------------------
    def poll(self) -> List[JournalRecord]:
        """Consume and return all newly readable records."""
        out: List[JournalRecord] = []
        while True:
            if self._segment is None:
                nxt = self._next_index()
                if nxt is None:
                    return out
                self._segment = nxt  # first segment: no finish to count
            if self._done:
                nxt = self._next_index()
                if nxt is None:
                    return out
                self._enter(nxt)
                continue
            path = self.dir / _SEGMENT_FMT.format(self._segment)
            if not path.exists():
                # Moved underneath us (e.g. a concurrent batch scan
                # quarantined it).  Skip forward if the journal goes on.
                nxt = self._next_index()
                if nxt is None:
                    return out
                self._note("segment_vanished",
                           detail="file disappeared mid-read")
                self._enter(nxt)
                continue
            lines, self._offset, partial = _read_complete_lines(
                path, self._offset
            )
            for pos, raw in enumerate(lines):
                self._line_no += 1
                self._consume(raw, out)
                if self._done:
                    leftovers = [l for l in lines[pos + 1:] if l.strip()]
                    if leftovers:
                        self._note("records_after_done",
                                   line=self._line_no + 1,
                                   detail=f"{len(leftovers)} lines dropped")
                    break
            if self._done:
                continue
            if partial and self._next_index() is not None:
                # An un-terminated tail can only complete while its
                # segment is the newest; once the writer has moved on it
                # is permanent torn garbage (crash residue).
                self._note("torn_tail", line=self._line_no + 1,
                           detail=f"{len(partial)} bytes without newline")
                self._done = True
                continue
            if not lines:
                return out
            # Lines were consumed: loop once more in case the writer
            # appended while we parsed.

    def _consume(self, raw: str, out: List[JournalRecord]) -> None:
        if not raw.strip():
            return
        try:
            body, rows = decode_record(raw)
        except JournalError as exc:
            # A complete-but-unverifiable line is corruption, not an
            # in-flight write: the writer emits line + newline in one
            # buffered write, so a flushed newline proves the line was
            # fully staged.  Skip the rest of this segment.
            self._note("crc_mismatch", line=self._line_no, detail=str(exc))
            self._done = True
            return
        if body.get("kind") == "seal":
            expected = _crc_hex("".join(self._crcs).encode("ascii"))
            if (body.get("records") != len(self._crcs) - 1
                    or body.get("digest") != expected):
                self._note(
                    "bad_seal", line=self._line_no,
                    detail=(f"recorded {body.get('digest')}, "
                            f"actual {expected}"),
                )
            else:
                self.seals_verified += 1
            self._done = True
            return
        self._crcs.append(_envelope_crc(raw))
        self.records_read += 1
        out.append(JournalRecord(self._segment, self._line_no, body, rows))


def _fsync_dir(path: Path) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

"""Versioned, atomic experiment checkpoints with columnar row deltas.

A checkpoint is a snapshot of the live experiment graph -- the fleet
(machines, agents, behaviour RNG streams), the discrete-event simulator
(clock + pending heap), the DDC coordinator (schedule position and
accounting), the fault plan (injection cursor and private RNG), the
observer and the trace store's metadata -- taken at an iteration
boundary.  The simulation is deterministic, so restoring the graph and
running to the horizon reproduces the uninterrupted run sample for
sample.

The trace store's *rows* are not in the graph.  Each checkpoint writes
one **delta** holding the rows the store gained since the previous
checkpoint, so a run writes O(horizon) bytes of checkpoints instead of
re-pickling a growing store every time.  Only the checkpoint's pickler
knows this: it reduces the :class:`~repro.traces.store.TraceStore` to a
row-less stub, and the in-memory store, pickled shard outcomes and the
exported traces are untouched.  The same pickler writes each random
stream as its bit generator's state plus its seed sequence's
parameters, which revive it exactly.

Files (``checkpoints/``)
------------------------
``ckpt-00000123.ckpt`` is a JSON header line::

    {"v": 2, "iteration": 123, "sim_now": 110700.0,
     "config": "<sha256 of the run config>", "rows": 10423,
     "payload_len": N, "payload_crc": "xxxxxxxx"}

followed by ``N`` bytes of the pickled graph; ``rows`` is the store's
row count.  ``delta-00000123.delta`` is a JSON header line::

    {"v": 2, "iteration": 123, "start": 9711, "stop": 10423,
     "numeric": [["machine_id", "<i4"], ...],
     "strings": ["hostname", "lab", "username"],
     "payload_len": N, "payload_crc": "xxxxxxxx"}

followed by rows ``[start, stop)`` as one :mod:`repro.recovery.rows`
block, the layout journal pass records share: each numeric column's raw
buffer, then each string column's int32 codes, then one UTF-8 JSON
array with each string column's distinct values in first-seen order.

Writes are atomic and ordered: the delta is staged as ``.tmp``, fsynced
(``fsync=True``) and renamed into place before the checkpoint that
depends on it is staged the same way, so a crash leaves either the
previous checkpoint set or the new one -- at worst plus a delta past the
newest checkpoint, which loading ignores and the resumed run overwrites.
Every delta is kept; only the newest :data:`KEEP_CHECKPOINTS`
checkpoints are.

Loading sweeps stale ``.tmp`` files into quarantine, quarantines
damaged deltas (``bad_delta``), then walks checkpoints newest-first:
one with a bad header, CRC mismatch or unpicklable payload is
quarantined as ``bad_checkpoint``, one whose rows no chain of intact
deltas rebuilds from row 0 as ``broken_chain``, and the next older one
is tried.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.recovery.journal import Quarantine, _crc_hex, _fsync_dir
from repro.recovery.rows import NUMERIC, STRINGS, decode_rows, encode_rows
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore

__all__ = [
    "CHECKPOINT_GLOB",
    "CHECKPOINT_VERSION",
    "DELTA_GLOB",
    "KEEP_CHECKPOINTS",
    "Checkpoint",
    "config_digest",
    "describe_checkpoints",
    "load_latest_checkpoint",
    "write_checkpoint",
]

#: Checkpoint schema version (bumped on incompatible state changes).
CHECKPOINT_VERSION = 2

#: Checkpoints kept on disk; two keep a fallback behind the newest one.
KEEP_CHECKPOINTS = 2

CHECKPOINT_GLOB = "ckpt-*.ckpt"
DELTA_GLOB = "delta-*.delta"
_CKPT_FMT = "ckpt-{:08d}.ckpt"
_DELTA_FMT = "delta-{:08d}.delta"


def config_digest(config: ExperimentConfig) -> str:
    """Stable digest of a run configuration.

    Resume refuses to continue a checkpoint under a different
    configuration -- the simulation would silently diverge from both the
    original run and a fresh one.
    """
    blob = json.dumps(config.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """One loaded checkpoint: header fields plus the revived state."""

    version: int
    iteration: int
    sim_now: float
    config: str
    path: Path
    state: Any
    #: Trace store rows the deltas restored into the revived store.
    rows: int = 0


@dataclass
class _Delta:
    """One verified delta: rows ``[start, stop)`` as store columns."""

    path: Path
    iteration: int
    start: int
    stop: int
    columns: Dict[str, Any]


# ----------------------------------------------------------------------
# the graph: no store rows, compact random streams
# ----------------------------------------------------------------------
def _rowless_store(meta: Optional[TraceMeta]) -> TraceStore:
    """What a checkpointed store unpickles to before its deltas refill it."""
    return TraceStore(meta)


def _generator(bitgen_type: type, state: dict, entropy: Any,
               spawn_key: tuple, pool_size: int,
               n_children_spawned: int) -> np.random.Generator:
    """Rebuild a checkpointed random stream exactly."""
    seed_seq = np.random.SeedSequence(
        entropy, spawn_key=spawn_key, pool_size=pool_size,
        n_children_spawned=n_children_spawned,
    )
    bitgen = bitgen_type(seed_seq)
    bitgen.state = state
    return np.random.Generator(bitgen)


def _reduce_generator(gen: np.random.Generator):
    """A stream as its bit generator's state and its seed sequence's
    parameters.  NumPy's own reduction also pickles the sequence's pool
    array, which derives from the parameters; for the graph's hundreds
    of streams that was about a third of the checkpoint pickle."""
    bitgen = gen.bit_generator
    seq = bitgen.seed_seq
    if type(seq) is not np.random.SeedSequence:
        return gen.__reduce__()
    return _generator, (type(bitgen), bitgen.state, seq.entropy,
                        seq.spawn_key, seq.pool_size, seq.n_children_spawned)


def _pickle_graph(state: Any) -> Tuple[bytes, Optional[TraceStore]]:
    """Pickle ``state`` with its trace store as a row-less stub.

    Random streams pickle through :func:`_reduce_generator`.  Returns
    the payload and the store it met (``None`` if none).  The stub
    lives only in this pickler's dispatch table, which refers to no
    pickler, so the pickler and its memo are freed on return rather
    than by a garbage-collection pass.
    """
    stores: List[TraceStore] = []

    def stub(store: TraceStore):
        if stores and store is not stores[0]:
            raise CheckpointError("a checkpoint graph holds one trace store")
        stores.append(store)
        return _rowless_store, (store.meta,)

    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {**copyreg.dispatch_table, TraceStore: stub,
                              np.random.Generator: _reduce_generator}
    pickler.dump(state)
    return buf.getvalue(), (stores[0] if stores else None)


class _GraphUnpickler(pickle.Unpickler):
    """Revives a checkpoint graph, building each stub store with
    ``revive`` (a plain function, so the unpickler's memo holds no
    reference back to the unpickler)."""

    def __init__(self, file, revive) -> None:
        super().__init__(file)
        self._revive = revive

    def find_class(self, module: str, name: str):
        if module == __name__ and name == _rowless_store.__name__:
            return self._revive
        return super().find_class(module, name)


def _unpickle_graph(payload: bytes) -> Tuple[Any, Optional[TraceStore]]:
    """Revive a checkpoint graph; returns it and its row-less store."""
    stores: List[TraceStore] = []

    def revive(meta: Optional[TraceMeta]) -> TraceStore:
        stores.append(_rowless_store(meta))
        return stores[-1]

    state = _GraphUnpickler(io.BytesIO(payload), revive).load()
    return state, (stores[0] if stores else None)


# ----------------------------------------------------------------------
# framing shared by checkpoints and deltas
# ----------------------------------------------------------------------
def _write_framed(path: Path, header: dict, payload: bytes, *, fsync: bool,
                  tear_after: Optional[int] = None) -> Path:
    """Stage header + payload as ``.tmp``, then rename it into place.

    ``tear_after`` stages only that many payload bytes and skips the
    rename, as a process death mid-write would; returns the staged path.
    """
    header = dict(header, v=CHECKPOINT_VERSION, payload_len=len(payload),
                  payload_crc=_crc_hex(payload))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        if tear_after is not None:
            fh.write(payload[:tear_after])
            fh.flush()
            return tmp  # crash emulation: no rename, no fsync
        fh.write(payload)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)
    return path


def _read_framed(path: Path) -> Tuple[dict, bytes]:
    """Header and CRC-verified payload of one checkpoint or delta file."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path.name}: bad header") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path.name}: bad header")
    if header.get("v") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path.name}: unsupported checkpoint version "
            f"{header.get('v')!r} (supported: {CHECKPOINT_VERSION})"
        )
    try:
        named: Optional[int] = int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        named = None
    if header.get("iteration") != named:
        raise CheckpointError(
            f"{path.name}: header names iteration {header.get('iteration')!r}"
        )
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"{path.name}: truncated payload "
            f"({len(payload)} of {header.get('payload_len')} bytes)"
        )
    crc = _crc_hex(payload)
    if crc != header.get("payload_crc"):
        raise CheckpointError(
            f"{path.name}: payload CRC mismatch "
            f"(recorded {header.get('payload_crc')}, actual {crc})"
        )
    return header, payload


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
def _read_delta(path: Path) -> _Delta:
    """Load and fully verify one delta file."""
    header, payload = _read_framed(path)
    try:
        start, stop = int(header["start"]), int(header["stop"])
        if start < 0 or stop < start:
            raise ValueError(f"bad row range [{start}, {stop})")
        if header["numeric"] != NUMERIC or header["strings"] != STRINGS:
            raise ValueError("column layout is not the trace store's")
        columns = decode_rows(payload, stop - start)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path.name}: bad delta: {exc}") from exc
    return _Delta(path=path, iteration=int(header["iteration"]),
                  start=start, stop=stop, columns=columns)


def _chain(deltas: Sequence[_Delta], iteration: int,
           rows: int) -> Optional[List[_Delta]]:
    """The deltas that rebuild rows ``[0, rows)`` for a checkpoint.

    ``deltas`` are in iteration order.  Walking back from the newest
    delta at or before ``iteration``, each link ends where the rows
    still needed end; a delta that does not (one left by an earlier run
    generation at another cadence) is skipped.  Returns the chain
    oldest-first, or ``None`` when it does not reach row 0.
    """
    chain: List[_Delta] = []
    need = rows
    for delta in reversed(deltas):
        if need == 0:
            break
        if delta.iteration <= iteration and delta.stop == need:
            chain.append(delta)
            need = delta.start
    return chain[::-1] if need == 0 else None


def _scan_deltas(ckpt_dir: Path,
                 quarantine: Optional[Quarantine]) -> Tuple[List[_Delta], dict]:
    """Every intact delta, plus ``file name -> error`` for damaged ones.

    With a ``quarantine`` the damaged ones are moved there (``bad_delta``).
    """
    intact: List[_Delta] = []
    damaged: Dict[str, str] = {}
    for path in sorted(ckpt_dir.glob(DELTA_GLOB)):
        try:
            intact.append(_read_delta(path))
        except (OSError, CheckpointError) as exc:
            damaged[path.name] = str(exc)
            if quarantine is not None:
                quarantine.report("bad_delta", file=path, detail=str(exc))
    return intact, damaged


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def write_checkpoint(
    ckpt_dir: Union[str, Path],
    *,
    iteration: int,
    sim_now: float,
    config: ExperimentConfig,
    state: Any,
    rows_from: int = 0,
    fsync: bool = True,
    _tear_after: Optional[int] = None,
) -> Path:
    """Atomically write one checkpoint and its delta; returns its path.

    The trace store in ``state`` (if any) is pickled without its rows;
    rows ``[rows_from, len(store))`` -- those added since the previous
    checkpoint -- go into this checkpoint's delta, which is in place
    before the checkpoint is.  Checkpoints older than the newest
    :data:`KEEP_CHECKPOINTS` are then deleted.

    ``_tear_after`` is the crash-injection hook: when set, only that many
    payload bytes of the checkpoint are staged and its rename never
    happens, emulating a process death mid-checkpoint.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    payload, store = _pickle_graph(state)
    rows = 0
    if store is not None:
        rows = len(store)
        if not 0 <= rows_from <= rows:
            raise CheckpointError(
                f"delta start row {rows_from} is outside the store's "
                f"{rows} rows"
            )
        header = {"iteration": int(iteration), "start": rows_from,
                  "stop": rows, "numeric": NUMERIC, "strings": STRINGS}
        _write_framed(ckpt_dir / _DELTA_FMT.format(iteration), header,
                      encode_rows(store, rows_from, rows), fsync=fsync)
    header = {
        "iteration": int(iteration),
        "sim_now": float(sim_now),
        "config": config_digest(config),
        "rows": rows,
    }
    path = _write_framed(ckpt_dir / _CKPT_FMT.format(iteration), header,
                         payload, fsync=fsync, tear_after=_tear_after)
    if _tear_after is None:
        for old in sorted(ckpt_dir.glob(CHECKPOINT_GLOB))[:-KEEP_CHECKPOINTS]:
            old.unlink()
    return path


def _revive(path: Path, header: dict, payload: bytes,
            chain: Sequence[_Delta]) -> Checkpoint:
    try:
        state, store = _unpickle_graph(payload)
    except Exception as exc:  # unpickling failures are corruption too
        raise CheckpointError(f"{path.name}: unpicklable payload: {exc}") from exc
    if chain and store is None:
        raise CheckpointError(f"{path.name}: rows recorded but no trace store")
    for delta in chain:
        store.extend_columns(**delta.columns)
    return Checkpoint(
        version=int(header["v"]),
        iteration=int(header["iteration"]),
        sim_now=float(header["sim_now"]),
        config=str(header["config"]),
        path=path,
        state=state,
        rows=int(header["rows"]),
    )


def load_latest_checkpoint(
    ckpt_dir: Union[str, Path], quarantine: Quarantine
) -> Optional[Checkpoint]:
    """Load the newest checkpoint that revives whole, with its rows.

    Damaged deltas and checkpoints are quarantined on the way (see the
    module docstring).  Returns ``None`` when no checkpoint survives
    (the caller then cold-restarts the run from iteration 0).
    """
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        return None
    # Sweep crash residue first: a .tmp is a checkpoint or delta whose
    # rename never happened and is by definition untrustworthy.
    for tmp in sorted(ckpt_dir.glob("*.tmp")):
        quarantine.report("stale_checkpoint_tmp", file=tmp)
    deltas, _ = _scan_deltas(ckpt_dir, quarantine)
    for path in sorted(ckpt_dir.glob(CHECKPOINT_GLOB), reverse=True):
        try:
            header, payload = _read_framed(path)
            rows = int(header["rows"])
            chain = _chain(deltas, int(header["iteration"]), rows)
            if chain is None:
                quarantine.report(
                    "broken_chain", file=path,
                    detail=f"no intact delta chain rebuilds rows [0, {rows})",
                )
                continue
            return _revive(path, header, payload, chain)
        except (CheckpointError, KeyError, TypeError, ValueError) as exc:
            quarantine.report("bad_checkpoint", file=path, detail=str(exc))
    return None


def describe_checkpoints(
    ckpt_dir: Union[str, Path],
) -> Tuple[List[dict], List[dict]]:
    """Read-only status of a checkpoint directory: ``(checkpoints, deltas)``.

    A checkpoint is ``ok`` only when its header and payload CRC verify
    *and* its delta chain does -- the test :func:`load_latest_checkpoint`
    applies, minus unpickling, without moving anything.  Others are
    ``corrupt`` or ``broken_chain``; staged files are listed with the
    checkpoints as ``stale_tmp``.  Deltas are ``ok`` or ``corrupt``.
    """
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        return [], []
    intact, damaged = _scan_deltas(ckpt_dir, None)
    deltas = [{"file": d.path.name, "bytes": d.path.stat().st_size,
               "iteration": d.iteration, "start": d.start, "stop": d.stop,
               "status": "ok"} for d in intact]
    deltas += [{"file": name, "bytes": (ckpt_dir / name).stat().st_size,
                "status": "corrupt", "detail": detail}
               for name, detail in damaged.items()]
    deltas.sort(key=lambda row: row["file"])
    checkpoints = []
    for path in sorted(ckpt_dir.glob(CHECKPOINT_GLOB)):
        row: Dict[str, object] = {"file": path.name,
                                  "bytes": path.stat().st_size}
        try:
            header, _ = _read_framed(path)
            row.update(iteration=header["iteration"],
                       sim_now=header["sim_now"], version=header["v"],
                       rows=header["rows"])
            chain = _chain(intact, int(header["iteration"]),
                           int(header["rows"]))
            row["status"] = "ok" if chain is not None else "broken_chain"
        except (OSError, CheckpointError, KeyError, TypeError,
                ValueError) as exc:
            row["status"] = "corrupt"
            row["detail"] = str(exc)
        checkpoints.append(row)
    for tmp in sorted(ckpt_dir.glob("*.tmp")):
        checkpoints.append({"file": tmp.name, "bytes": tmp.stat().st_size,
                            "status": "stale_tmp"})
    return checkpoints, deltas

"""Versioned, atomic experiment checkpoints with columnar deltas.

A checkpoint is a snapshot of the live experiment graph -- the fleet
(machines, agents, behaviour RNG streams), the discrete-event simulator
(clock + pending heap), the DDC coordinator (schedule position and
accounting), the fault plan (injection cursor and private RNG), the
observer and the trace store's metadata -- taken at an iteration
boundary.  The simulation is deterministic, so restoring the graph and
running to the horizon reproduces the uninterrupted run sample for
sample.

The pickle holds only the state the run overwrites.  What the run only
appends goes into the **delta** each checkpoint writes, holding what was
appended since the checkpoint it extends: the trace store's rows, each
machine's ground-truth ``boot_log`` and ``session_log`` records, and
the ``meta.statics`` entries added (in insertion order).  A checkpoint
therefore costs O(fleet) rather than O(history), and a run writes
O(horizon) bytes of deltas.  Only the checkpoint's pickler knows this:
it reduces the :class:`~repro.traces.store.TraceStore` to a row-less
stub, the :class:`~repro.traces.records.TraceMeta` to one without
statics and each :class:`~repro.machines.machine.SimMachine` to one
with empty logs, and the delta writer takes exactly the records of the
store, meta and machines the pickler met, so no record is held by both
or by neither.  The in-memory graph, pickled shard outcomes and the
exported traces are untouched.  The same pickler writes each random
stream as its bit generator's state plus its seed sequence's
parameters, which revive it exactly.

Files (``checkpoints/``)
------------------------
``ckpt-00000123.ckpt`` is a JSON header line::

    {"v": 3, "iteration": 123, "sim_now": 110700.0,
     "config": "<sha256 of the run config>", "rows": 10423,
     "payload_len": N, "payload_crc": "xxxxxxxx"}

followed by ``N`` bytes of the pickled graph; ``rows`` is the store's
row count.  ``delta-00000123.delta`` is a JSON header line::

    {"v": 3, "iteration": 123, "link": 115, "start": 9711,
     "stop": 10423, "numeric": [["machine_id", "<i4"], ...],
     "strings": ["hostname", "lab", "username"],
     "payload_len": N, "payload_crc": "xxxxxxxx"}

followed by the ground-truth block -- one JSON line repeating ``link``
and listing the ``boot`` and ``session`` records (each prefixed by its
machine id, machines in id order) and the ``statics`` entries (key,
then the fields) -- and then rows ``[start, stop)`` as one
:mod:`repro.recovery.rows` block, the layout journal pass records
share.  ``link`` is the iteration of the checkpoint the delta extends:
-1 for a run's first checkpoint, the revived iteration for the first
one after a resume.

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
quarantined as ``bad_checkpoint``; one whose **chain** -- its own delta,
then each link back to -1 -- misses a delta or does not tile rows
``[0, rows)`` as ``broken_chain``; and the next older one is tried.
Revive appends each delta's records in chain order.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import itertools
import json
import os
import pickle
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.machines.machine import BootRecord, SessionRecord, SimMachine
from repro.recovery.journal import Quarantine, _crc_hex, _fsync_dir
from repro.recovery.rows import NUMERIC, STRINGS, decode_rows, encode_rows
from repro.traces.records import StaticInfo, TraceMeta
from repro.traces.store import TraceStore

__all__ = [
    "CHECKPOINT_GLOB",
    "CHECKPOINT_VERSION",
    "DELTA_GLOB",
    "KEEP_CHECKPOINTS",
    "ChainTip",
    "Checkpoint",
    "config_digest",
    "describe_checkpoints",
    "load_latest_checkpoint",
    "write_checkpoint",
]

#: Checkpoint schema version (bumped on incompatible state changes).
CHECKPOINT_VERSION = 4

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
class ChainTip:
    """The checkpoint the next delta extends, and what its chain holds.

    ``iteration`` is that checkpoint's (-1 before a run's first one);
    ``rows``, ``statics`` and ``logs`` count the store rows, the
    ``meta.statics`` entries and each machine's ``(boot, session)``
    ground-truth records, by machine id, that its delta chain holds.  A
    fresh run starts from ``ChainTip()``, a resumed one from
    :attr:`Checkpoint.tip`; :func:`write_checkpoint` advances it.
    ``kept`` names the checkpoint files in the retention window, oldest
    first; ``None`` until the generation's first write lists them.
    """

    iteration: int = -1
    rows: int = 0
    statics: int = 0
    logs: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    kept: Optional[List[str]] = None


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
    #: What the revived chain holds: a resumed run's deltas extend it.
    tip: ChainTip = field(default_factory=ChainTip)


@dataclass
class _Delta:
    """One verified delta: rows ``[start, stop)`` as store columns, plus
    the ground truth appended since checkpoint ``link``."""

    path: Path
    iteration: int
    link: int
    start: int
    stop: int
    columns: Dict[str, Any]
    boot: list
    session: list
    statics: list


@dataclass
class _Appended:
    """The append-only parts of a graph: the trace store, its meta and
    the machines by id, as the checkpoint pickler met or revived them."""

    store: Optional[TraceStore] = None
    meta: Optional[TraceMeta] = None
    machines: Dict[int, SimMachine] = field(default_factory=dict)


# ----------------------------------------------------------------------
# the graph: no appended state, compact random streams
# ----------------------------------------------------------------------
def _rowless_store(meta: Optional[TraceMeta]) -> TraceStore:
    """What a checkpointed store unpickles to before its deltas refill it."""
    return TraceStore(meta)


def _staticless_meta() -> TraceMeta:
    """What a checkpointed meta unpickles to: no statics yet.  The
    pickle restores its other fields, the deltas its statics."""
    meta = TraceMeta.__new__(TraceMeta)
    meta.statics = {}
    return meta


def _logless_machine(machine_id: int) -> SimMachine:
    """What a checkpointed machine unpickles to: empty ground-truth
    logs.  The pickle restores its other state, the deltas its logs."""
    machine = SimMachine.__new__(SimMachine)
    machine.boot_log = []
    machine.session_log = []
    return machine


def _without(state: dict, *names: str) -> dict:
    state = state.copy()
    for name in names:
        del state[name]
    return state


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


def _pickle_graph(state: Any) -> Tuple[bytes, _Appended]:
    """Pickle ``state`` without its append-only parts.

    The trace store, its meta and every machine pickle as stubs without
    rows, statics and logs; random streams pickle through
    :func:`_reduce_generator`.  Returns the payload and what the
    pickler met, which the delta must hold.  The stubs live only in
    this pickler's dispatch table, which refers to no pickler, so the
    pickler and its memo are freed on return rather than by a
    garbage-collection pass.  The table matches exact types, and every
    reference to a log, a statics dict or a row goes through its
    machine, meta or store.
    """
    met = _Appended()

    def store_stub(store: TraceStore):
        if met.store is not None:
            raise CheckpointError("a checkpoint graph holds one trace store")
        met.store = store
        return _rowless_store, (store.meta,)

    def meta_stub(meta: TraceMeta):
        if met.meta is not None:
            raise CheckpointError("a checkpoint graph holds one trace meta")
        met.meta = meta
        return _staticless_meta, (), _without(meta.__dict__, "statics")

    def machine_stub(machine: SimMachine):
        mid = machine.spec.machine_id
        if met.machines.setdefault(mid, machine) is not machine:
            raise CheckpointError(
                f"a checkpoint graph holds two machines with id {mid}")
        return (_logless_machine, (mid,),
                _without(machine.__dict__, "boot_log", "session_log"))

    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {**copyreg.dispatch_table,
                              TraceStore: store_stub,
                              TraceMeta: meta_stub,
                              SimMachine: machine_stub,
                              np.random.Generator: _reduce_generator}
    pickler.dump(state)
    return buf.getvalue(), met


class _GraphUnpickler(pickle.Unpickler):
    """Revives a checkpoint graph, building each stub with the function
    of the same name in ``revive`` (plain functions, so the unpickler's
    memo holds no reference back to the unpickler)."""

    def __init__(self, file, revive: Dict[str, Any]) -> None:
        super().__init__(file)
        self._revive = revive

    def find_class(self, module: str, name: str):
        if module == __name__ and name in self._revive:
            return self._revive[name]
        return super().find_class(module, name)


def _unpickle_graph(payload: bytes) -> Tuple[Any, _Appended]:
    """Revive a checkpoint graph; returns it and its stubs, not yet
    refilled."""
    got = _Appended()

    def store(meta: Optional[TraceMeta]) -> TraceStore:
        got.store = _rowless_store(meta)
        return got.store

    def meta() -> TraceMeta:
        got.meta = _staticless_meta()
        return got.meta

    def machine(machine_id: int) -> SimMachine:
        revived = got.machines[machine_id] = _logless_machine(machine_id)
        return revived

    revive = {_rowless_store.__name__: store,
              _staticless_meta.__name__: meta,
              _logless_machine.__name__: machine}
    state = _GraphUnpickler(io.BytesIO(payload), revive).load()
    return state, got


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
def _encode_delta(
    met: _Appended, tip: ChainTip, iteration: int,
) -> Tuple[dict, bytes, Dict[int, Tuple[int, int]]]:
    """Header and payload of the delta holding what ``met`` gained past
    ``tip`` (store rows, ground-truth records and statics), and each
    machine's log lengths once it is written."""
    store, meta = met.store, met.meta
    rows = len(store) if store is not None else 0
    if not 0 <= tip.rows <= rows:
        raise CheckpointError(
            f"delta start row {tip.rows} is outside the store's {rows} rows"
        )
    statics = meta.statics if meta is not None else {}
    if tip.statics > len(statics):
        raise CheckpointError(
            f"the chain holds {tip.statics} statics, the meta {len(statics)}"
        )
    boot: List[list] = []
    session: List[list] = []
    logs: Dict[int, Tuple[int, int]] = {}
    for mid in sorted(met.machines):
        machine = met.machines[mid]
        nb, ns = tip.logs.get(mid, (0, 0))
        lb, ls = logs[mid] = (len(machine.boot_log),
                              len(machine.session_log))
        if lb < nb or ls < ns:
            raise CheckpointError(
                f"machine {mid}'s ground-truth logs are shorter than the "
                "chain holds"
            )
        boot += [[mid, *astuple(r)] for r in machine.boot_log[nb:]]
        session += [[mid, *astuple(r)] for r in machine.session_log[ns:]]
    added = itertools.islice(statics.items(), tip.statics, None)
    truth = {"link": tip.iteration, "boot": boot, "session": session,
             "statics": [[key, *astuple(info)] for key, info in added]}
    block = encode_rows(store if store is not None else TraceStore(),
                        tip.rows, rows)
    header = {"iteration": iteration, "link": tip.iteration,
              "start": tip.rows, "stop": rows,
              "numeric": NUMERIC, "strings": STRINGS}
    return header, json.dumps(truth).encode("ascii") + b"\n" + block, logs


def _read_delta(path: Path) -> _Delta:
    """Load and fully verify one delta file."""
    header, payload = _read_framed(path)
    try:
        iteration = int(header["iteration"])
        link, start, stop = (int(header["link"]), int(header["start"]),
                             int(header["stop"]))
        if not -1 <= link < iteration:
            raise ValueError(f"bad link {link}")
        if start < 0 or stop < start:
            raise ValueError(f"bad row range [{start}, {stop})")
        if header["numeric"] != NUMERIC or header["strings"] != STRINGS:
            raise ValueError("column layout is not the trace store's")
        line, block = payload.split(b"\n", 1)
        truth = json.loads(line)
        if truth["link"] != link:
            raise ValueError(f"ground truth extends {truth['link']!r}, "
                             f"the header {link}")
        return _Delta(
            path=path, iteration=iteration, link=link, start=start,
            stop=stop, columns=decode_rows(block, stop - start),
            boot=[(mid, BootRecord(*rest)) for mid, *rest in truth["boot"]],
            session=[(mid, SessionRecord(*rest))
                     for mid, *rest in truth["session"]],
            statics=[(key, StaticInfo(*rest))
                     for key, *rest in truth["statics"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path.name}: bad delta: {exc}") from exc


def _chain(deltas: Dict[int, _Delta], iteration: int,
           rows: int) -> Optional[List[_Delta]]:
    """The deltas a checkpoint revives from, oldest first.

    The chain is the checkpoint's own delta, then the delta each one's
    link names, back to link -1.  Returns ``None`` when a link names no
    intact delta or the chain's rows do not tile ``[0, rows)``.  A delta
    another run generation left (at another cadence, or past a crash)
    is on no other checkpoint's chain.
    """
    chain: List[_Delta] = []
    link = iteration
    while link != -1:
        delta = deltas.get(link)
        if delta is None:
            return None
        chain.append(delta)
        link = delta.link  # verified to be below the delta's iteration
    chain.reverse()
    end = 0
    for delta in chain:
        if delta.start != end:
            return None
        end = delta.stop
    return chain if end == rows else None


def _scan_deltas(
    ckpt_dir: Path, quarantine: Optional[Quarantine],
) -> Tuple[Dict[int, _Delta], Dict[str, str]]:
    """Every intact delta by iteration, plus ``file name -> error`` for
    damaged ones.

    With a ``quarantine`` the damaged ones are moved there (``bad_delta``).
    """
    intact: Dict[int, _Delta] = {}
    damaged: Dict[str, str] = {}
    for path in sorted(ckpt_dir.glob(DELTA_GLOB)):
        try:
            delta = _read_delta(path)
            intact[delta.iteration] = delta
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
    config: str,
    state: Any,
    tip: Optional[ChainTip] = None,
    fsync: bool = True,
    _tear_after: Optional[int] = None,
) -> Path:
    """Atomically write one checkpoint and its delta; returns its path.

    ``config`` is the run configuration's :func:`config_digest`.  The
    graph in ``state`` is pickled without its append-only parts; what
    they gained past ``tip`` (the run generation's previous checkpoint;
    ``None`` for a run's first) goes into this checkpoint's delta, which
    is in place before the checkpoint is.  Then ``tip`` advances to this
    checkpoint, and the checkpoint that left the newest
    :data:`KEEP_CHECKPOINTS` is deleted by name: the first write from a
    tip lists the directory, which may hold an earlier generation's.

    ``_tear_after`` is the crash-injection hook: when set, only that many
    payload bytes of the checkpoint are staged and its rename never
    happens, emulating a process death mid-checkpoint.
    """
    ckpt_dir = Path(ckpt_dir)
    iteration = int(iteration)
    if tip is None:
        tip = ChainTip()
    if tip.kept is None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    payload, met = _pickle_graph(state)
    header, delta, logs = _encode_delta(met, tip, iteration)
    _write_framed(ckpt_dir / _DELTA_FMT.format(iteration), header, delta,
                  fsync=fsync)
    rows = header["stop"]
    header = {
        "iteration": iteration,
        "sim_now": float(sim_now),
        "config": config,
        "rows": rows,
    }
    path = _write_framed(ckpt_dir / _CKPT_FMT.format(iteration), header,
                         payload, fsync=fsync, tear_after=_tear_after)
    if _tear_after is not None:
        return path
    if tip.kept is None:
        tip.kept = sorted(p.name for p in ckpt_dir.glob(CHECKPOINT_GLOB))
    elif path.name not in tip.kept:
        tip.kept.append(path.name)
    while len(tip.kept) > KEEP_CHECKPOINTS:
        (ckpt_dir / tip.kept.pop(0)).unlink(missing_ok=True)
    tip.iteration, tip.rows = iteration, rows
    tip.statics = len(met.meta.statics) if met.meta is not None else 0
    tip.logs = logs
    return path


def _revive(path: Path, header: dict, payload: bytes,
            chain: List[_Delta]) -> Checkpoint:
    try:
        state, got = _unpickle_graph(payload)
    except Exception as exc:  # unpickling failures are corruption too
        raise CheckpointError(f"{path.name}: unpicklable payload: {exc}") from exc
    rows = int(header["rows"])
    if rows and got.store is None:
        raise CheckpointError(f"{path.name}: rows recorded but no trace store")
    for delta in chain:
        if got.store is not None:
            got.store.extend_columns(**delta.columns)
        if delta.statics:
            if got.meta is None:
                raise CheckpointError(
                    f"{path.name}: statics recorded but no trace meta")
            got.meta.statics.update(delta.statics)
        try:
            for mid, record in delta.boot:
                got.machines[mid].boot_log.append(record)
            for mid, record in delta.session:
                got.machines[mid].session_log.append(record)
        except KeyError as exc:
            raise CheckpointError(
                f"{delta.path.name}: records of machine {exc} the graph "
                "does not hold") from exc
    tip = ChainTip(
        iteration=int(header["iteration"]), rows=rows,
        statics=len(got.meta.statics) if got.meta is not None else 0,
        logs={mid: (len(m.boot_log), len(m.session_log))
              for mid, m in got.machines.items()},
    )
    return Checkpoint(
        version=int(header["v"]),
        iteration=tip.iteration,
        sim_now=float(header["sim_now"]),
        config=str(header["config"]),
        path=path,
        state=state,
        rows=rows,
        tip=tip,
    )


def load_latest_checkpoint(
    ckpt_dir: Union[str, Path], quarantine: Quarantine
) -> Optional[Checkpoint]:
    """Load the newest checkpoint that revives whole, with its deltas.

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
                    detail=f"no intact delta chain links it back to the "
                           f"run's start and rebuilds rows [0, {rows})",
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
               "iteration": d.iteration, "link": d.link, "start": d.start,
               "stop": d.stop, "status": "ok"} for d in intact.values()]
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

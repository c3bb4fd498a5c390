"""The recovery runtime: journaling, checkpoint cadence, crash points.

One :class:`RecoveryRuntime` accompanies a crash-safe run.  It is bound
to the live experiment graph after construction and hooks one spot:
:class:`~repro.ddc.coordinator.DdcCoordinator` calls
:meth:`RecoveryRuntime.on_iteration_end` at the end of every scheduled
iteration, after the next iteration has been put on the heap -- so a
checkpoint taken there revives into a run that keeps iterating.  There
the runtime journals the rows the trace store gained during the pass as
one pass record (:mod:`repro.recovery.journal`) and flushes it, then
takes the checkpoint if one is due.  Both probing kernels admit
identical rows to the store, so they write identical journal bytes with
no per-sample hook.

A gathered shard worker (:mod:`repro.shard.gather`) has no pass and no
store: its :class:`~repro.shard.gather.PassRecorder` calls the same hook
at every recorded instant, and the runtime journals that instant's
recorded pass inputs as one ``gather`` record instead.  A campaign
worker's heartbeat runs after the hook either way, so it reports only
durable progress.

The runtime itself is never pickled into checkpoints (the coordinator
and the recorder drop their references in ``__getstate__``); a resumed
run constructs a fresh runtime around the revived graph.

Crash injection
---------------
:class:`CrashSpec` names an iteration and one of :data:`CRASH_POINTS`;
when the run reaches it the runtime leaves behind exactly the on-disk
residue a real process death would (torn journal line, half-staged
checkpoint temp file, partial segment seal) and raises
:class:`~repro.errors.InjectedCrash`.  The spec lives only in the
runtime, so the resumed run -- like a restarted process -- does not
inherit the kill switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import InjectedCrash, RecoveryError, ResumeDivergence
from repro.recovery.checkpoint import (
    CHECKPOINT_GLOB,
    DELTA_GLOB,
    ChainTip,
    config_digest,
    write_checkpoint,
)
from repro.recovery.journal import JournalWriter, Quarantine, _crc_hex
from repro.recovery.rows import encode_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer
    from repro.shard.gather import PassRecorder
    from repro.sim.fleet import FleetSimulator
    from repro.traces.store import TraceStore

__all__ = [
    "CRASH_POINTS",
    "CrashSpec",
    "RecoveryConfig",
    "RecoveryInfo",
    "RecoveryRuntime",
    "fresh_runtime",
    "run_dir_in_use",
    "shard_dir",
]

#: Kill points the crash-injection harness understands.  The
#: ``iteration_start`` point is implemented by the fault-plan scenario
#: :class:`repro.recovery.crashtest.KillAtIteration` instead of here,
#: because it fires before any recovery hook runs.
CRASH_POINTS = (
    "mid_iteration",
    "pre_checkpoint",
    "mid_checkpoint",
    "post_checkpoint",
    "mid_seal",
)


@dataclass(frozen=True)
class CrashSpec:
    """Where to kill the run: an iteration plus a named crash point."""

    iteration: int
    #: ``mid_iteration`` fires at the first iteration at or after
    #: ``iteration`` whose pass added rows, before its pass record is
    #: written (the write is torn); the checkpoint points fire as named.
    point: str = "post_checkpoint"

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; "
                f"expected one of {CRASH_POINTS}"
            )
        if self.iteration < 0:
            raise ValueError("crash iteration must be non-negative")


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the crash-safe persistence layer.

    Parameters
    ----------
    run_dir:
        Root of the run's on-disk state: ``journal/`` segments,
        ``checkpoints/`` snapshots with their row deltas and the
        ``quarantine/`` sink.
    checkpoint_every:
        Take a checkpoint every N scheduled iterations (the paper's
        cadence would be every ~2 hours of covered time at N=8).
    segment_records:
        Journal segment rotation threshold, in samples (see
        :class:`~repro.recovery.journal.JournalWriter`).
    fsync:
        Whether checkpoints and segment seals fsync (see
        :class:`~repro.recovery.journal.JournalWriter`).
    strict_replay:
        On resume, raise :class:`~repro.errors.ResumeDivergence` when a
        regenerated iteration's digest differs from the journaled one
        (code or config changed under the run); when false the
        divergence is only counted.
    crash_at:
        Optional injected kill point (tests / smoke only).
    crash_shard:
        In a sharded campaign, the shard whose worker ``crash_at``
        kills (default shard 0).  :meth:`for_shard` keeps the kill
        switch only in the targeted shard's derived config, so chaos
        tests take down exactly one worker.
    """

    run_dir: Union[str, Path]
    checkpoint_every: int = 8
    segment_records: int = 4096
    fsync: bool = True
    strict_replay: bool = True
    crash_at: Optional[CrashSpec] = None
    crash_shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.segment_records <= 0:
            raise ValueError("segment_records must be positive")
        if self.crash_shard is not None and self.crash_shard < 0:
            raise ValueError("crash_shard must be non-negative")

    @property
    def journal_dir(self) -> Path:
        return Path(self.run_dir) / "journal"

    @property
    def checkpoint_dir(self) -> Path:
        return Path(self.run_dir) / "checkpoints"

    def for_shard(self, index: int) -> "RecoveryConfig":
        """This campaign's config namespaced to shard ``index``.

        The shard owns ``<run_dir>/shard-<index>/`` -- its private
        ``journal/`` + ``checkpoints/`` + ``quarantine/`` tree, laid out
        exactly like a sequential run directory, so every existing
        journal/checkpoint tool works on it unchanged.  An injected
        ``crash_at`` survives only into the targeted shard's config
        (``crash_shard``, default 0): killing one worker must leave the
        other shards' runtimes untouched.
        """
        import dataclasses as _dc

        victim = 0 if self.crash_shard is None else self.crash_shard
        return _dc.replace(
            self,
            run_dir=shard_dir(self.run_dir, index),
            crash_at=self.crash_at if index == victim else None,
            crash_shard=None,
        )


def shard_dir(run_dir: Union[str, Path], index: int) -> Path:
    """A shard's namespaced run directory inside a campaign root."""
    return Path(run_dir) / f"shard-{index}"


def run_dir_in_use(config: RecoveryConfig) -> bool:
    """Whether ``config.run_dir`` holds a run's journal, checkpoints or deltas."""
    return (any(config.journal_dir.glob("segment-*.jsonl"))
            or any(config.checkpoint_dir.glob(CHECKPOINT_GLOB))
            or any(config.checkpoint_dir.glob(DELTA_GLOB)))


def fresh_runtime(config: RecoveryConfig) -> RecoveryRuntime:
    """Recovery runtime for a brand-new run; refuses a used run dir."""
    from repro.errors import CheckpointError

    if run_dir_in_use(config):
        raise CheckpointError(
            f"{config.run_dir} already holds a run's journal or "
            "checkpoints; pass resume_from= to continue it, or choose a "
            "fresh directory"
        )
    return RecoveryRuntime(config)


@dataclass
class RecoveryInfo:
    """What the recovery layer did during one run (in-memory summary)."""

    run_dir: Path
    resumed_from_iteration: Optional[int] = None
    cold_restart: bool = False
    checkpoints_written: int = 0
    segments_sealed: int = 0
    samples_journaled: int = 0
    records_journaled: int = 0
    replay_verified: int = 0
    replay_divergences: int = 0
    quarantine_entries: List[dict] = field(default_factory=list)


class RecoveryRuntime:
    """Live recovery state machine for one (possibly resumed) run."""

    def __init__(
        self,
        config: RecoveryConfig,
        *,
        quarantine: Optional[Quarantine] = None,
        expected_digests: Optional[Dict[int, Tuple[str, int]]] = None,
        resumed: Optional[ChainTip] = None,
        cold_restart: bool = False,
        start_segment: int = 1,
    ):
        self.config = config
        self.quarantine = quarantine or Quarantine(config.run_dir)
        self.journal = JournalWriter(
            config.journal_dir,
            segment_records=config.segment_records,
            start_segment=start_segment,
            fsync=config.fsync,
        )
        #: Iteration digests journaled by the crashed generation, awaiting
        #: re-verification as the resumed run regenerates them.
        self.expected_digests = dict(expected_digests or {})
        self.info = RecoveryInfo(
            run_dir=Path(config.run_dir),
            resumed_from_iteration=(resumed.iteration if resumed is not None
                                    else None),
            cold_restart=cold_restart,
        )
        #: The checkpoint the next delta extends: the revived one after
        #: a resume, none for a fresh run or a cold restart.
        self._tip = resumed if resumed is not None else ChainTip()
        self.crash = config.crash_at
        self.crash_fired = False
        # live experiment graph, attached by bind()
        self._graph: Dict[str, object] = {}
        self._fleet: Optional["FleetSimulator"] = None
        self._store: Optional["TraceStore"] = None
        self._recorder: Optional["PassRecorder"] = None
        self._observer: Optional["Observer"] = None
        self._config_digest = ""
        #: Store rows already in a pass record (set by bind()).
        self._rows_journaled = 0
        self._obs_instruments = None

    # ------------------------------------------------------------------
    def bind(self, **graph) -> None:
        """Attach the live graph and install the collection hook.

        ``graph`` is what a checkpoint holds: ``config``, ``fleet`` and
        ``observer``, plus either a probing run's ``coordinator``,
        ``store`` and ``faults`` or a gathered shard's ``recorder``.
        """
        self._graph = graph
        self._fleet = graph["fleet"]
        self._store = graph.get("store")
        self._recorder = graph.get("recorder")
        if self._store is not None:
            self._rows_journaled = len(self._store)
        self._config_digest = config_digest(graph["config"])
        observer = graph["observer"]
        self._observer = observer
        if observer is not None and observer.enabled:
            m = observer.metrics
            self._obs_instruments = {
                "samples": m.counter("recovery.samples_journaled"),
                "checkpoints": m.counter("recovery.checkpoints_written"),
                "seals": m.counter("recovery.segments_sealed"),
                "verified": m.counter("recovery.replay_verified"),
                "diverged": m.counter("recovery.replay_divergences"),
            }
        (self._recorder or graph["coordinator"]).recovery = self

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_sample(self, sample, context) -> None:
        """No-op: samples are journaled per pass, by :meth:`on_iteration_end`.

        Nothing in the collection path calls it; it stays because
        ``benchmarks/perf/layers.py`` wraps it by name.
        """

    def on_iteration_end(self, k: int, t: float, *, ran: bool = True) -> None:
        """Close iteration ``k``: journal record, verify, maybe checkpoint.

        The rows the store gained since the previous pass record -- or,
        bound to a gathered shard's recorder, the pass inputs it
        recorded at instant ``k`` -- are journaled as one record and
        flushed before the checkpoint (and the worker's heartbeat) that
        covers them.  ``ran`` is forwarded into the record so
        journal-only consumers (live replay) can reproduce the
        coordinator's ``iterations_run`` count.
        """
        recorder = self._recorder
        if recorder is None:
            start, stop = self._rows_journaled, len(self._store)
            n = stop - start
            rows = encode_rows(self._store, start, stop) if n else b""
        else:
            n, rows = recorder.encode(k)
        crashing = (self.crash is not None and not self.crash_fired
                    and self.crash.iteration == k)
        # At-or-after the spec iteration: the named one may have been a
        # lost iteration (availability draw) with no rows to tear.
        if (n and self.crash is not None and not self.crash_fired
                and self.crash.point == "mid_iteration"
                and k >= self.crash.iteration):
            self._die(torn=True)
        kind = "iter" if recorder is None else "gather"
        digest = _crc_hex(rows)
        self._verify_replay(k, digest, n)
        if crashing and self.crash.point == "mid_seal":
            # Journal the record, then die half-way through a forced
            # segment seal: the footer line is torn.
            self.journal.iteration_end(k, t, n, digest, ran=ran, rows=rows,
                                       kind=kind)
            self.info.records_journaled += 1
            self.journal.tear('{"crc":"00000000","body":{"kind":"seal"')
            self._die(torn=False)
        self.journal.iteration_end(k, t, n, digest, ran=ran, rows=rows,
                                   kind=kind)
        self.info.records_journaled += 1
        if recorder is None:
            self._rows_journaled = stop
            self.info.samples_journaled += n
            if self._obs_instruments is not None and n:
                self._obs_instruments["samples"].inc(n)
        if self.journal.segments_sealed > self.info.segments_sealed:
            newly = self.journal.segments_sealed - self.info.segments_sealed
            self.info.segments_sealed = self.journal.segments_sealed
            if self._obs_instruments is not None:
                self._obs_instruments["seals"].inc(newly)
        if (k + 1) % self.config.checkpoint_every == 0:
            if crashing and self.crash.point == "pre_checkpoint":
                self._die(torn=False)
            self._checkpoint(k)
            if crashing and self.crash.point == "post_checkpoint":
                self._die(torn=False)
        elif crashing and self.crash.point in ("pre_checkpoint",
                                               "post_checkpoint"):
            # The kill point was tied to a checkpoint boundary that this
            # iteration is not; die at the iteration end instead so the
            # spec still fires deterministically.
            self._die(torn=False)

    # ------------------------------------------------------------------
    def _verify_replay(self, k: int, digest: str, n: int) -> None:
        expected = self.expected_digests.pop(k, None)
        if expected is None:
            return
        exp_digest, exp_n = expected
        if digest == exp_digest and n == exp_n:
            self.info.replay_verified += 1
            if self._obs_instruments is not None:
                self._obs_instruments["verified"].inc()
            return
        self.info.replay_divergences += 1
        if self._obs_instruments is not None:
            self._obs_instruments["diverged"].inc()
        if self.config.strict_replay:
            raise ResumeDivergence(
                f"iteration {k}: resumed run produced {n} "
                f"samples with digest {digest}, journal recorded {exp_n} "
                f"with digest {exp_digest}; the code or configuration "
                "changed between crash and resume"
            )

    def _checkpoint(self, k: int) -> None:
        if self._fleet is None:
            raise RecoveryError("runtime not bound; cannot checkpoint")
        state = dict(self._graph)
        tear = None
        # Fires at the first checkpoint at-or-after the spec iteration,
        # so the point is reachable from non-boundary iterations too.
        if (self.crash is not None and not self.crash_fired
                and self.crash.point == "mid_checkpoint"
                and self.crash.iteration <= k):
            tear = 128  # stage a fragment of the payload, skip the rename
        if self._obs_instruments is not None:
            with self._observer.span("recovery.checkpoint", iteration=k):
                self._write_checkpoint(k, state, tear)
        else:
            self._write_checkpoint(k, state, tear)
        if tear is not None:
            self._die(torn=False)
        self.info.checkpoints_written += 1
        if self._obs_instruments is not None:
            self._obs_instruments["checkpoints"].inc()

    def _write_checkpoint(self, k: int, state: dict,
                          tear: Optional[int]) -> None:
        write_checkpoint(
            self.config.checkpoint_dir,
            iteration=k,
            sim_now=self._fleet.sim.now,
            config=self._config_digest,
            state=state,
            tip=self._tip,
            fsync=self.config.fsync,
            _tear_after=tear,
        )

    def _die(self, *, torn: bool) -> None:
        """Leave crash residue behind and raise :class:`InjectedCrash`."""
        self.crash_fired = True
        if torn:
            self.journal.tear()
        else:
            self.journal.abort()
        raise InjectedCrash(
            f"injected crash at iteration {self.crash.iteration} "
            f"({self.crash.point})"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def hard_stop(self) -> None:
        """Drop file handles without sealing (the run is dying)."""
        self.journal.abort()

    def finish(self) -> RecoveryInfo:
        """Seal the journal at a clean end of run and summarise."""
        before = self.info.segments_sealed
        self.journal.close()
        if (self._obs_instruments is not None
                and self.journal.segments_sealed > before):
            self._obs_instruments["seals"].inc(
                self.journal.segments_sealed - before
            )
        self.info.segments_sealed = self.journal.segments_sealed
        self.info.records_journaled = self.journal.records_total
        self.info.quarantine_entries = list(self.quarantine.entries)
        return self.info

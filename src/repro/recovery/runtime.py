"""The recovery runtime: journaling, checkpoint cadence, crash points.

One :class:`RecoveryRuntime` accompanies a crash-safe run.  It is bound
to the live experiment graph after construction and hooks two spots:

- :class:`~repro.ddc.postcollect.SamplePostCollector` calls
  :meth:`RecoveryRuntime.on_sample` with every parsed sample *before*
  admitting it to the :class:`~repro.traces.store.TraceStore`
  (write-ahead discipline); the columnar pass hands a whole iteration's
  columns to :meth:`RecoveryRuntime.on_columns` before it admits them;
- :class:`~repro.ddc.coordinator.DdcCoordinator` calls
  :meth:`RecoveryRuntime.on_iteration_end` at the end of every scheduled
  iteration, after the next iteration has been put on the heap -- so a
  checkpoint taken there revives into a run that keeps iterating.

The runtime itself is never pickled into checkpoints (the coordinator
and post-collector drop their references in ``__getstate__``); a resumed
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

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import InjectedCrash, RecoveryError, ResumeDivergence
from repro.recovery.checkpoint import (
    CHECKPOINT_GLOB,
    DELTA_GLOB,
    write_checkpoint,
)
from repro.recovery.journal import JournalWriter, Quarantine
from repro.traces.records import Sample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ExperimentConfig
    from repro.ddc.coordinator import DdcCoordinator
    from repro.ddc.postcollect import PostCollectContext
    from repro.faults.plan import FaultPlan
    from repro.obs.observer import Observer
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
    "sample_to_json_dict",
    "sample_from_json_dict",
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
    point: str = "post_checkpoint"
    #: For ``mid_iteration``: crash after this many samples of the
    #: iteration have been journaled (the next write is torn).
    sample_index: int = 3

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
        Journal segment rotation threshold (records per segment).
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


def sample_to_json_dict(sample: Sample) -> dict:
    """JSON-safe dict form of a sample (NaN logon time becomes null)."""
    d = {k: getattr(sample, k) for k in Sample.__slots__}
    if math.isnan(d["session_start"]):
        d["session_start"] = None
    return d


def sample_from_json_dict(d: dict) -> Sample:
    """Inverse of :func:`sample_to_json_dict`."""
    d = dict(d)
    if d.get("session_start") is None:
        d["session_start"] = float("nan")
    return Sample(**d)


class RecoveryRuntime:
    """Live recovery state machine for one (possibly resumed) run."""

    def __init__(
        self,
        config: RecoveryConfig,
        *,
        quarantine: Optional[Quarantine] = None,
        expected_digests: Optional[Dict[int, Tuple[str, int]]] = None,
        resumed_from: Optional[int] = None,
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
            resumed_from_iteration=resumed_from,
            cold_restart=cold_restart,
        )
        self.crash = config.crash_at
        self.crash_fired = False
        # live experiment graph, attached by bind()
        self._fleet: Optional["FleetSimulator"] = None
        self._coordinator: Optional["DdcCoordinator"] = None
        self._store: Optional["TraceStore"] = None
        self._faults: Optional["FaultPlan"] = None
        self._observer: Optional["Observer"] = None
        self._exp_config: Optional["ExperimentConfig"] = None
        #: Store rows already in a checkpoint delta (set by bind()).
        self._rows_checkpointed = 0
        # per-iteration journaling state
        self._iter_crcs: List[str] = []
        self._iter_samples = 0
        self._obs_instruments = None

    # ------------------------------------------------------------------
    def bind(
        self,
        *,
        fleet: "FleetSimulator",
        coordinator: "DdcCoordinator",
        store: "TraceStore",
        config: "ExperimentConfig",
        faults: Optional["FaultPlan"] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        """Attach the live graph and install the collection hooks."""
        self._fleet = fleet
        self._coordinator = coordinator
        self._store = store
        self._rows_checkpointed = len(store)
        self._faults = faults
        self._exp_config = config
        obs = observer if observer is not None and observer.enabled else None
        self._observer = observer
        if obs is not None:
            m = obs.metrics
            self._obs_instruments = {
                "samples": m.counter("recovery.samples_journaled"),
                "checkpoints": m.counter("recovery.checkpoints_written"),
                "seals": m.counter("recovery.segments_sealed"),
                "verified": m.counter("recovery.replay_verified"),
                "diverged": m.counter("recovery.replay_divergences"),
            }
        coordinator.recovery = self
        coordinator.post_collect.journal = self

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_sample(self, sample: Sample, context: "PostCollectContext") -> None:
        """Write-ahead journal one sample (called before store admission)."""
        self._journal_sample(context.iteration, sample_to_json_dict(sample))

    def on_columns(self, iteration: int, columns: Dict[str, object]) -> None:
        """Write-ahead journal one columnar pass's rows, in roster order.

        ``columns`` are the keyword columns the pass is about to hand to
        :meth:`~repro.traces.store.TraceStore.extend_columns`, one per
        :class:`Sample` field.  Each row goes through the routine
        :meth:`on_sample` uses, as the dict :func:`sample_to_json_dict`
        builds, so the journal bytes do not depend on the kernel.
        """
        fields = Sample.__slots__
        values = [col if isinstance(col, list) else col.tolist()
                  for col in (columns[name] for name in fields)]
        at = fields.index("session_start")
        values[at] = [None if math.isnan(s) else s for s in values[at]]
        for row in zip(*values):
            self._journal_sample(iteration, dict(zip(fields, row)))

    def _journal_sample(self, iteration: int, data: dict) -> None:
        crc = self.journal.sample(iteration, data)
        self._iter_crcs.append(crc)
        self._iter_samples += 1
        self.info.samples_journaled += 1
        self.info.records_journaled += 1
        if self._obs_instruments is not None:
            self._obs_instruments["samples"].inc()
        # At-or-after the spec iteration: the named one may have been a
        # lost iteration (availability draw) with no samples to tear.
        if (self.crash is not None and not self.crash_fired
                and self.crash.point == "mid_iteration"
                and iteration >= self.crash.iteration
                and self._iter_samples >= self.crash.sample_index):
            self._die(torn=True)

    def on_iteration_end(self, k: int, t: float, *, ran: bool = True) -> None:
        """Close iteration ``k``: journal marker, verify, maybe checkpoint.

        ``ran`` is forwarded into the iteration marker so journal-only
        consumers (live replay) can reproduce the coordinator's
        ``iterations_run`` count.
        """
        digest = format(
            zlib.crc32("".join(self._iter_crcs).encode("ascii")) & 0xFFFFFFFF,
            "08x",
        )
        self._verify_replay(k, digest)
        crashing = (self.crash is not None and not self.crash_fired
                    and self.crash.iteration == k)
        if crashing and self.crash.point == "mid_seal":
            # Journal the iteration marker, then die half-way through a
            # forced segment seal: the footer line is torn.
            self.journal.iteration_end(k, t, self._iter_samples, digest,
                                       ran=ran)
            self.info.records_journaled += 1
            self.journal.tear('{"crc":"00000000","body":{"kind":"seal"')
            self._die(torn=False)
        self.journal.iteration_end(k, t, self._iter_samples, digest, ran=ran)
        self.info.records_journaled += 1
        if self.journal.segments_sealed > self.info.segments_sealed:
            newly = self.journal.segments_sealed - self.info.segments_sealed
            self.info.segments_sealed = self.journal.segments_sealed
            if self._obs_instruments is not None:
                self._obs_instruments["seals"].inc(newly)
        self._iter_crcs = []
        self._iter_samples = 0
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
    def _verify_replay(self, k: int, digest: str) -> None:
        expected = self.expected_digests.pop(k, None)
        if expected is None:
            return
        exp_digest, exp_n = expected
        if digest == exp_digest and self._iter_samples == exp_n:
            self.info.replay_verified += 1
            if self._obs_instruments is not None:
                self._obs_instruments["verified"].inc()
            return
        self.info.replay_divergences += 1
        if self._obs_instruments is not None:
            self._obs_instruments["diverged"].inc()
        if self.config.strict_replay:
            raise ResumeDivergence(
                f"iteration {k}: resumed run produced {self._iter_samples} "
                f"samples with digest {digest}, journal recorded {exp_n} "
                f"with digest {exp_digest}; the code or configuration "
                "changed between crash and resume"
            )

    def _checkpoint(self, k: int) -> None:
        if self._coordinator is None or self._fleet is None:
            raise RecoveryError("runtime not bound; cannot checkpoint")
        state = {
            "config": self._exp_config,
            "fleet": self._fleet,
            "coordinator": self._coordinator,
            "store": self._store,
            "faults": self._faults,
            "observer": self._observer,
        }
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
        self._rows_checkpointed = len(self._store)
        self.info.checkpoints_written += 1
        if self._obs_instruments is not None:
            self._obs_instruments["checkpoints"].inc()

    def _write_checkpoint(self, k: int, state: dict,
                          tear: Optional[int]) -> None:
        write_checkpoint(
            self.config.checkpoint_dir,
            iteration=k,
            sim_now=self._fleet.sim.now,
            config=self._exp_config,
            state=state,
            rows_from=self._rows_checkpointed,
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

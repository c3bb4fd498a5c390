"""Crash-safe persistence and resume for long monitoring experiments.

The paper's DDC ran unattended for 77 days and shrugged off coordinator
restarts (509 of 7,392 iterations were simply lost); this package gives
the reproduction the same resilience, without losing iterations:

- :mod:`repro.recovery.journal` -- a write-ahead **trace journal**:
  append-only, CRC-guarded, segment-rotated JSONL holding one record per
  probing pass, written before any checkpoint that covers the pass;
- :mod:`repro.recovery.checkpoint` -- **experiment checkpoints**:
  versioned, atomically-renamed snapshots of the live simulation graph
  (clock, event heap, RNG streams, fleet state, DDC schedule position,
  fault-plan cursor) taken every N iterations, each with a CRC-guarded
  columnar delta of the trace rows added since the previous one;
- :mod:`repro.recovery.runtime` -- the glue that hooks both into the
  DDC collection loop and, on resume, re-verifies regenerated
  iterations against the journaled digests;
- :mod:`repro.recovery.crashtest` -- a crash-injection harness proving,
  property-test style, that ``resume(crash(run))`` is sample-for-sample
  identical to the run that never crashed.

Entry points: ``run_experiment(recovery=RecoveryConfig(run_dir))`` for a
crash-safe run, ``run_experiment(resume_from=run_dir)`` to continue one,
and ``repro run --recover-dir DIR [--resume]`` on the command line.
Damaged artefacts -- torn journal tails, corrupt segments, half-written
checkpoints -- are quarantined into ``<run_dir>/quarantine/`` with a
machine-readable reason ledger, never crashed on.
"""

from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    KEEP_CHECKPOINTS,
    Checkpoint,
    config_digest,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.recovery.crashtest import (
    ALL_KILL_POINTS,
    KillAtIteration,
    crash_and_resume,
    result_fingerprint,
    verify_crash_resume,
)
from repro.recovery.journal import (
    JOURNAL_VERSION,
    JournalScan,
    JournalTailReader,
    JournalWriter,
    Quarantine,
    TailAnomaly,
    scan_journal,
)
from repro.recovery.manifest import (
    CampaignManifest,
    ShardStatus,
    is_campaign_dir,
    journal_digest,
    load_campaign_state,
    write_campaign_state,
)
from repro.recovery.runtime import (
    CRASH_POINTS,
    CrashSpec,
    RecoveryConfig,
    RecoveryInfo,
    RecoveryRuntime,
    fresh_runtime,
    run_dir_in_use,
    shard_dir,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "JOURNAL_VERSION",
    "KEEP_CHECKPOINTS",
    "ALL_KILL_POINTS",
    "CRASH_POINTS",
    "CampaignManifest",
    "Checkpoint",
    "CrashSpec",
    "JournalScan",
    "JournalTailReader",
    "JournalWriter",
    "KillAtIteration",
    "Quarantine",
    "ShardStatus",
    "TailAnomaly",
    "RecoveryConfig",
    "RecoveryInfo",
    "RecoveryRuntime",
    "config_digest",
    "crash_and_resume",
    "fresh_runtime",
    "is_campaign_dir",
    "journal_digest",
    "load_campaign_state",
    "load_latest_checkpoint",
    "result_fingerprint",
    "run_dir_in_use",
    "scan_journal",
    "shard_dir",
    "verify_crash_resume",
    "write_campaign_state",
    "write_checkpoint",
]

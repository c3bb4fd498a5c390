"""Recovery run-directory status reporting.

Renders what the crash-safe persistence layer left behind in a run
directory: the checkpoint ladder with its row deltas, the journal
segment chain and the quarantine ledger.  A checkpoint is listed as
``ok`` only when its delta chain verifies too, so the reported resume
point is the one a resume would load.  A directory holding a campaign
manifest (a sharded campaign, see ``docs/shard_recovery.md``) is
reported as a campaign: the manifest's per-shard status table plus one
nested per-shard status each.  A shard's journal holds ``gather``
records (its recorded pass inputs, :mod:`repro.shard.gather`): each
counts as an iteration and its rows as ``inputs``, not ``samples``.
Everything here is **read-only** -- unlike the resume path
(:func:`repro.recovery.journal.scan_journal`),
a status report never moves damaged artefacts into quarantine; it only
describes them, so inspecting a crashed run does not alter the
evidence the resume will act on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import JournalError
from repro.recovery.checkpoint import describe_checkpoints
from repro.recovery.journal import JOURNAL_VERSION, Quarantine, decode_record
from repro.recovery.manifest import CampaignManifest, is_campaign_dir
from repro.recovery.runtime import RecoveryConfig, shard_dir
from repro.report.tables import Table

__all__ = ["campaign_status", "recovery_status", "render_recovery_report"]


def _segment_rows(journal_dir: Path) -> List[dict]:
    rows = []
    if not journal_dir.is_dir():
        return rows
    for path in sorted(journal_dir.glob("segment-*.jsonl")):
        row: Dict[str, object] = {"file": path.name,
                                  "bytes": path.stat().st_size}
        raw = path.read_bytes().decode("utf-8", errors="replace")
        lines = raw.split("\n")
        torn = bool(lines[-1].strip())  # bytes after the final newline
        lines = [ln for ln in lines[:-1] if ln.strip()]
        records = samples = inputs = iters = 0
        sealed = False
        damaged = 0
        version = None
        for line in lines:
            try:
                body, _ = decode_record(line)
            except JournalError:
                damaged += 1
                continue
            records += 1
            kind = body.get("kind")
            if kind == "iter":
                iters += 1
                samples += body["n"]
            elif kind == "gather":
                # a campaign shard's instant: its pass inputs, no sample
                iters += 1
                inputs += body["n"]
            elif kind == "seal":
                sealed = True
            elif kind == "head":
                version = body.get("version")
        row.update(records=records, samples=samples, inputs=inputs,
                   iterations=iters,
                   sealed=sealed, torn_tail=torn, damaged_lines=damaged,
                   version=version)
        if version not in (None, JOURNAL_VERSION):
            # Another format's records do not decode as this one's.
            row["status"] = "unsupported_version"
        elif damaged:
            row["status"] = "corrupt"
        elif torn:
            row["status"] = "torn"
        elif sealed:
            row["status"] = "sealed"
        else:
            row["status"] = "open"
        rows.append(row)
    return rows


def campaign_status(run_dir: Union[str, Path]) -> dict:
    """Machine-readable status of a campaign directory.

    The manifest's own view (shard states, restarts, merge watermark)
    plus a nested :func:`recovery_status` per shard directory, rebuilt
    from the shards' journals and checkpoints -- the durable truth the
    manifest only mirrors.
    """
    manifest = CampaignManifest.load(run_dir)
    shards = {}
    for index in sorted(manifest.shards):
        shards[index] = recovery_status(shard_dir(run_dir, index))
    return {
        "run_dir": str(run_dir),
        "campaign": manifest.to_dict(),
        "shards": {str(k): v for k, v in shards.items()},
        "resumable": all(s["resumable"] for s in shards.values()),
    }


def recovery_status(run_dir: Union[str, Path]) -> dict:
    """Machine-readable status of a recovery run directory.

    Dispatches to :func:`campaign_status` when ``run_dir`` holds a
    campaign manifest.
    """
    if is_campaign_dir(run_dir):
        return campaign_status(run_dir)
    rcfg = RecoveryConfig(run_dir=run_dir)
    checkpoints, deltas = describe_checkpoints(rcfg.checkpoint_dir)
    segments = _segment_rows(rcfg.journal_dir)
    ledger = Quarantine(run_dir).read_ledger()
    latest: Optional[dict] = None
    for row in checkpoints:
        if row.get("status") == "ok":
            latest = row
    return {
        "run_dir": str(run_dir),
        "checkpoints": checkpoints,
        "deltas": deltas,
        "latest_checkpoint": latest,
        "segments": segments,
        "samples_journaled": sum(s["samples"] for s in segments),
        "inputs_journaled": sum(s["inputs"] for s in segments),
        "quarantine": ledger,
        # resume refuses a journal of another format version outright
        "resumable": (latest is not None or bool(segments)) and not any(
            s["status"] == "unsupported_version" for s in segments),
    }


def _render_campaign_report(run_dir: Union[str, Path]) -> str:
    """Fixed-width status report of a campaign directory."""
    status = campaign_status(run_dir)
    manifest = status["campaign"]
    head = f"campaign status: {status['run_dir']}"
    parts = [head, "=" * len(head),
             f"state {manifest['state']}, {manifest['n_shards']} shards, "
             f"merge watermark {manifest['merge_watermark']}, "
             f"config digest {manifest['config_digest'][:12]}..."]
    table = Table(["shard", "labs", "machines", "state", "restarts",
                   "last iter", "resumable", "journal digest"])
    for row in manifest["plan"]:
        index = row["index"]
        shard = manifest["shards"][str(index)]
        nested = status["shards"][str(index)]
        table.add_row([
            index, ",".join(row["labs"]), row["n_machines"],
            shard["state"], shard["restarts"], shard["last_iteration"],
            "yes" if nested["resumable"] else "NO",
            shard["journal_digest"] or "-",
        ])
    parts += ["", table.render(), ""]
    if status["resumable"]:
        parts.append("every shard is resumable; 'repro run --resume "
                     f"--recover-dir {status['run_dir']}' continues the "
                     "campaign")
    else:
        parts.append("some shards have nothing to resume from; a resume "
                     "would cold-restart them against their journals")
    return "\n".join(parts)


def render_recovery_report(run_dir: Union[str, Path]) -> str:
    """Fixed-width status report of a recovery run directory.

    Campaign directories render the manifest's per-shard table instead
    of a single checkpoint/journal listing.
    """
    if is_campaign_dir(run_dir):
        return _render_campaign_report(run_dir)
    status = recovery_status(run_dir)
    parts = [f"recovery status: {status['run_dir']}"]
    parts.append("=" * len(parts[0]))

    ckpts = Table(["checkpoint", "iteration", "sim time (s)", "rows",
                   "size (B)", "status"])
    for row in status["checkpoints"]:
        ckpts.add_row([row["file"], row.get("iteration"),
                       row.get("sim_now"), row.get("rows"), row["bytes"],
                       row["status"]])
    parts += ["", "checkpoints", "-----------",
              ckpts.render() if status["checkpoints"] else "(none)"]

    deltas = Table(["delta", "iteration", "link", "rows", "size (B)",
                    "status"])
    for row in status["deltas"]:
        rows = (f"{row['start']}-{row['stop']}" if "start" in row
                else None)
        deltas.add_row([row["file"], row.get("iteration"), row.get("link"),
                        rows, row["bytes"], row["status"]])
    parts += ["", "deltas", "------",
              deltas.render() if status["deltas"] else "(none)"]

    segs = Table(["segment", "records", "samples", "inputs", "iterations",
                  "status"])
    for row in status["segments"]:
        segs.add_row([row["file"], row["records"], row["samples"],
                      row["inputs"], row["iterations"], row["status"]])
    parts += ["", "journal", "-------",
              segs.render() if status["segments"] else "(none)"]

    parts += ["", "quarantine", "----------"]
    if status["quarantine"]:
        q = Table(["reason", "file", "detail"])
        for entry in status["quarantine"]:
            detail = entry.get("detail") or ", ".join(
                f"{k}={v}" for k, v in sorted(entry.items())
                if k not in ("reason", "file", "detail", "quarantined_as")
            )
            q.add_row([entry.get("reason"), entry.get("file", "-"),
                       detail or "-"])
        parts.append(q.render())
    else:
        parts.append("(empty)")

    latest = status["latest_checkpoint"]
    parts.append("")
    if any(s["status"] == "unsupported_version" for s in status["segments"]):
        parts.append("the journal is another format version; resume "
                     "refuses it -- finish the run with the code that "
                     "started it")
    elif latest is not None:
        journaled = (f"{status['inputs_journaled']} pass-input rows"
                     if status["inputs_journaled"] else
                     f"{status['samples_journaled']} samples")
        parts.append(
            f"resumable from iteration {latest['iteration']} "
            f"({journaled} journaled)"
        )
    elif status["resumable"]:
        parts.append("no valid checkpoint; resume would cold-restart "
                     "and re-verify against the journal")
    else:
        parts.append("nothing to resume")
    return "\n".join(parts)

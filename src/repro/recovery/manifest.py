"""Campaign manifest: the shared control-plane record of a sharded run.

A *campaign* is a crash-safe run collected by ``shards > 1`` workers
under the campaign coordinator (:mod:`repro.shard.coordinator`), forked
locally or connected over TCP.  Its run directory holds one ``shard-<k>/`` recovery tree per
shard (journal + checkpoints + quarantine, laid out exactly like a
sequential run directory) plus two campaign-level artefacts:

``manifest.json``
    Small, human-readable, atomically-rewritten JSON describing the
    campaign: config digest, shard count, the :class:`~repro.shard.plan
    .ShardPlan` (lab names and machine counts per shard), per-shard
    status (state, regrants burned, last iteration reported, lease
    holder and epoch, journal digest once the shard completes) and the
    **merge watermark** -- the
    lowest iteration every shard has durably journaled, i.e. how far a
    merged partial trace could reach.

``campaign.pkl``
    The pickled inputs a cold-restarted shard worker needs but cannot
    recover from its (possibly absent) checkpoints: the experiment
    config, the lab catalog, the pristine pre-run fault plan, and the
    collection flags.  Written once at campaign start, read by
    ``resume_from=``.

The manifest is advisory bookkeeping for operators and the resume path;
per-shard durability lives entirely in the shards' own journals and
checkpoints, so a torn manifest never loses data -- resume rebuilds the
status columns from the shard directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import CheckpointError
from repro.recovery.journal import _fsync_dir
from repro.recovery.runtime import shard_dir

__all__ = [
    "MANIFEST_NAME",
    "CAMPAIGN_STATE_NAME",
    "MANIFEST_VERSION",
    "ShardStatus",
    "CampaignManifest",
    "is_campaign_dir",
    "journal_digest",
    "write_campaign_state",
    "load_campaign_state",
]

MANIFEST_NAME = "manifest.json"
CAMPAIGN_STATE_NAME = "campaign.pkl"

#: Manifest schema version (bumped on incompatible changes).  Version 2
#: campaigns gather: each shard journals its recorded pass inputs and
#: checkpoints its own labs' fleet.  A version-1 directory's shards
#: replayed the full fleet and checkpointed coordinator and store, so
#: resuming one is refused.
MANIFEST_VERSION = 2


@dataclass
class ShardStatus:
    """One shard's row in the campaign manifest."""

    index: int
    dir: str
    #: Coordinator-observed worker state (``repro.obs.health``
    #: vocabulary) or ``"pending"`` before the first grant.
    state: str = "pending"
    restarts: int = 0
    #: Last iteration the worker reported complete (heartbeats), or -1.
    last_iteration: int = -1
    #: Digest of the shard's sealed journal, recorded at completion.
    journal_digest: Optional[str] = None
    completed: bool = False
    #: Worker identity currently holding (or last to hold) this shard's
    #: lease -- ``local-<n>`` for a forked worker -- and the lease epoch
    #: it was granted under.  ``None`` / 0 before the first grant.
    worker: Optional[str] = None
    lease_epoch: int = 0


@dataclass
class CampaignManifest:
    """The campaign-level control record (see module docstring)."""

    config_digest: str
    n_shards: int
    #: One ``{"index", "labs", "n_machines"}`` entry per shard, pinning
    #: the plan so a resume under a drifted lab catalog fails loudly.
    plan: List[dict]
    shards: Dict[int, ShardStatus]
    #: ``min`` over shards of the last durably journaled iteration.
    merge_watermark: int = -1
    #: Campaign lifecycle: running -> merged | stopped | failed
    #: (networked campaigns add the terminal ``degraded``).
    state: str = "running"
    version: int = MANIFEST_VERSION
    #: Degraded merge: the campaign completed without these shards --
    #: their lease regrant budgets were exhausted -- and the merged
    #: artefacts cover only the surviving shards' machines.  ``partial``
    #: is the explicit flag consumers must check before treating the
    #: output as roster-complete.
    partial: bool = False
    lost_shards: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, run_dir: Union[str, Path], *, config_digest: str,
              plan) -> "CampaignManifest":
        """Manifest for a brand-new campaign over ``plan``'s shards."""
        rows = [
            {"index": spec.index, "labs": list(spec.labs),
             "n_machines": spec.n_machines}
            for spec in plan.specs
        ]
        shards = {
            spec.index: ShardStatus(
                index=spec.index,
                dir=shard_dir(run_dir, spec.index).name,
            )
            for spec in plan.specs
        }
        return cls(config_digest=config_digest, n_shards=len(plan.specs),
                   plan=rows, shards=shards)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "n_shards": self.n_shards,
            "state": self.state,
            "merge_watermark": self.merge_watermark,
            "partial": self.partial,
            "lost_shards": sorted(self.lost_shards),
            "plan": self.plan,
            "shards": {str(k): asdict(v)
                       for k, v in sorted(self.shards.items())},
        }

    def write(self, run_dir: Union[str, Path]) -> Path:
        """Atomically rewrite the manifest under ``run_dir``."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        blob = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(run_dir)
        return path

    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "CampaignManifest":
        """Load and validate ``run_dir``'s manifest.

        Raises :class:`~repro.errors.CheckpointError` when the file is
        missing, unreadable or schema-incompatible -- resuming a
        campaign the manifest cannot describe would silently diverge.
        """
        path = Path(run_dir) / MANIFEST_NAME
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CheckpointError(
                f"{run_dir} holds no campaign manifest ({MANIFEST_NAME}); "
                "it is not a sharded campaign directory"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"campaign manifest {path} is unreadable: {exc}"
            ) from exc
        try:
            version = int(raw["version"])
            if version != MANIFEST_VERSION:
                raise CheckpointError(
                    f"campaign manifest {path} has version {version}; "
                    f"this build reads version {MANIFEST_VERSION}"
                )
            shards = {
                int(k): ShardStatus(**v)
                for k, v in raw["shards"].items()
            }
            return cls(config_digest=raw["config_digest"],
                       n_shards=int(raw["n_shards"]),
                       plan=list(raw["plan"]),
                       shards=shards,
                       merge_watermark=int(raw["merge_watermark"]),
                       state=raw["state"],
                       version=version,
                       # Pre-networked manifests lack the degraded-merge
                       # columns; absent means roster-complete.
                       partial=bool(raw.get("partial", False)),
                       lost_shards=[int(k)
                                    for k in raw.get("lost_shards", [])])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"campaign manifest {path} does not conform to the "
                f"schema: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------
    def verify_plan(self, plan) -> None:
        """Check a rebuilt :class:`ShardPlan` matches the recorded one.

        A campaign resumed under a different lab catalog (or shard
        count) would re-partition machines across shards and silently
        diverge from every shard's journal; refuse instead.
        """
        rebuilt = [
            {"index": spec.index, "labs": list(spec.labs),
             "n_machines": spec.n_machines}
            for spec in plan.specs
        ]
        if rebuilt != self.plan:
            raise CheckpointError(
                "the rebuilt shard plan does not match the campaign "
                "manifest's: the lab catalog or shard count changed "
                "between crash and resume"
            )

    def refresh_watermark(self) -> int:
        """Recompute the merge watermark from the per-shard statuses."""
        if self.shards:
            self.merge_watermark = min(
                s.last_iteration for s in self.shards.values()
            )
        return self.merge_watermark


def is_campaign_dir(run_dir: Union[str, Path]) -> bool:
    """Whether ``run_dir`` holds a campaign manifest."""
    return (Path(run_dir) / MANIFEST_NAME).is_file()


def journal_digest(journal_dir: Union[str, Path]) -> Optional[str]:
    """Content digest of a shard's journal segment chain.

    SHA-256 over the raw bytes of every ``segment-*.jsonl`` in order,
    truncated to 16 hex chars; ``None`` when there is no journal.  The
    coordinator records it in the manifest when a shard completes, so an
    operator can later prove which journal generation a merged trace
    came from.
    """
    journal_dir = Path(journal_dir)
    segments = sorted(journal_dir.glob("segment-*.jsonl"))
    if not segments:
        return None
    h = hashlib.sha256()
    for path in segments:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def write_campaign_state(
    run_dir: Union[str, Path],
    *,
    config,
    labs: Sequence,
    faults,
    collect_nbench: bool,
    strict_postcollect: bool,
    instrument: bool,
) -> Path:
    """Pickle the cold-restart inputs next to the manifest (see module
    docstring); written once at campaign start."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / CAMPAIGN_STATE_NAME
    tmp = path.with_suffix(".pkl.tmp")
    state = {
        "config": config,
        "labs": tuple(labs),
        "faults": faults,
        "collect_nbench": collect_nbench,
        "strict_postcollect": strict_postcollect,
        "instrument": instrument,
    }
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(run_dir)
    return path


def load_campaign_state(run_dir: Union[str, Path]) -> dict:
    """Load the campaign's pickled cold-restart inputs."""
    path = Path(run_dir) / CAMPAIGN_STATE_NAME
    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
    except FileNotFoundError:
        raise CheckpointError(
            f"{run_dir} holds no {CAMPAIGN_STATE_NAME}; the campaign "
            "cannot be resumed without its pickled run inputs"
        ) from None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise CheckpointError(
            f"campaign state {path} is unreadable: {exc!r}"
        ) from exc
    required = {"config", "labs", "faults", "collect_nbench",
                "strict_postcollect", "instrument"}
    missing = required - state.keys()
    if missing:
        raise CheckpointError(
            f"campaign state {path} is missing keys: {sorted(missing)}"
        )
    return state

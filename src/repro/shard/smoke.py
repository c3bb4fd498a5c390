"""Shard-recovery chaos smoke: ``python -m repro.shard.smoke``.

CI's end-to-end exercise of the campaign coordinator with forked local
workers.  For each configured kill point it runs a sharded campaign
whose victim shard crashes at a **seed-derived** iteration, twice:

1. **auto-regrant** -- the coordinator regrants the crashed shard,
   which resumes from its own checkpoints (healthy shards keep
   running), and the merged trace is diffed fingerprint-for-fingerprint
   against an uninterrupted sequential baseline;
2. **resume** -- the same crash with a zero regrant budget fails the
   campaign, then ``resume_from=<run_dir>`` resumes the whole campaign
   and the merged trace is diffed again.

Exit code 0 means every scenario merged bit-identically.  On failure
the campaign directories (manifest, per-shard journals and checkpoints)
are left behind under ``--work-dir`` for the CI job to upload as an
artifact; one passing campaign directory is always kept so the job can
archive a real manifest.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.errors import ShardWorkerError
from repro.experiment import run_experiment
from repro.recovery.crashtest import CrashSpec, result_fingerprint
from repro.recovery.runtime import RecoveryConfig
from repro.recovery.smoke import derive_kill_iteration
from repro.shard.coordinator import CampaignPolicy

__all__ = ["main", "DEFAULT_KILL_POINTS"]

#: Kill points exercised by default: one mid-iteration (journal tail
#: replay) and one post-checkpoint (warm restart from the newest
#: checkpoint) -- the two structurally distinct recovery paths.
DEFAULT_KILL_POINTS = ("mid_iteration", "post_checkpoint")

#: Chaos-shaped coordination: tiny backoff so CI does not sleep, real
#: liveness deadlines so a wedged worker still fails the run.
_CHAOS_POLICY = CampaignPolicy(max_regrants=2, backoff_base=0.05,
                               backoff_cap=0.2)


def _campaign_recovery(run_dir: Path, kill_iteration: int, point: str,
                       victim: int) -> RecoveryConfig:
    return RecoveryConfig(run_dir=run_dir, fsync=False,
                          crash_at=CrashSpec(kill_iteration, point),
                          crash_shard=victim)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.shard.smoke",
        description="kill a shard worker mid-campaign, regrant/resume, diff",
    )
    parser.add_argument("--days", type=int, default=2,
                        help="run length in days (default 2)")
    parser.add_argument("--seed", type=int, default=2005,
                        help="experiment seed (default 2005)")
    parser.add_argument("--shards", type=int, default=2,
                        help="campaign width (default 2)")
    parser.add_argument("--work-dir", default="shard-chaos",
                        help="where campaign directories live; failures "
                        "leave theirs behind for artifact upload "
                        "(default ./shard-chaos)")
    parser.add_argument("--kill-points", nargs="*", default=None,
                        metavar="POINT",
                        help="subset to exercise (default: "
                        f"{', '.join(DEFAULT_KILL_POINTS)})")
    args = parser.parse_args(argv)

    config = ExperimentConfig(days=args.days, seed=args.seed)
    kill_iteration = derive_kill_iteration(config)
    victim = args.seed % args.shards
    points = args.kill_points or list(DEFAULT_KILL_POINTS)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    print(f"baseline: days={args.days} seed={args.seed} "
          f"shards={args.shards} victim=shard-{victim} "
          f"kill_iteration={kill_iteration}")
    t0 = time.time()
    baseline = run_experiment(config)
    fp_baseline = result_fingerprint(baseline)
    print(f"baseline fingerprint {fp_baseline[:16]}... "
          f"({time.time() - t0:.1f}s, {len(baseline.store)} samples)")

    failures = 0
    for point in points:
        # --- scenario 1: the coordinator regrants the crashed shard ---
        run_dir = work / f"restart-{point}"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        t0 = time.time()
        result = run_experiment(
            config, shards=args.shards,
            recovery=_campaign_recovery(run_dir, kill_iteration, point,
                                        victim),
            supervise=_CHAOS_POLICY,
        )
        fp = result_fingerprint(result)
        restarts = dict(result.campaign.restarts)
        others_clean = all(n == 0 for k, n in restarts.items() if k != victim)
        ok = (fp == fp_baseline and restarts.get(victim) == 1
              and others_clean)
        print(f"{'PASS' if ok else 'FAIL'} restart {point:16s} "
              f"merged={fp[:16]}... restarts={restarts} "
              f"({time.time() - t0:.1f}s)")
        if ok:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            failures += 1
            print(f"     evidence kept in {run_dir}")

        # --- scenario 2: campaign fails, then resumes from disk -------
        run_dir = work / f"resume-{point}"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        t0 = time.time()
        try:
            run_experiment(
                config, shards=args.shards,
                recovery=_campaign_recovery(run_dir, kill_iteration, point,
                                            victim),
                supervise=CampaignPolicy(max_regrants=0),
            )
            print(f"FAIL resume  {point:16s} campaign survived a "
                  "zero-regrant budget (expected ShardWorkerError)")
            failures += 1
            continue
        except ShardWorkerError as exc:
            if exc.shard_index != victim:
                print(f"FAIL resume  {point:16s} wrong victim: "
                      f"shard {exc.shard_index} died, expected {victim}")
                failures += 1
                continue
        resumed = run_experiment(resume_from=run_dir)
        fp = result_fingerprint(resumed)
        ok = fp == fp_baseline
        print(f"{'PASS' if ok else 'FAIL'} resume  {point:16s} "
              f"merged={fp[:16]}... ({time.time() - t0:.1f}s)")
        if not ok:
            failures += 1
            print(f"     evidence kept in {run_dir}")
        elif point != points[-1]:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            # Keep the final passing campaign for artifact upload.
            print(f"     campaign manifest kept in {run_dir}")

    if failures:
        print(f"{failures} chaos scenarios diverged", file=sys.stderr)
        return 1
    print(f"all {2 * len(points)} chaos scenarios merged bit-identically")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())

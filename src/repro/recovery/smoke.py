"""Crash-resume smoke check: ``python -m repro.recovery.smoke``.

CI's end-to-end exercise of the recovery subsystem.  For every kill
point the harness knows, it crashes a short monitored run at a
**seed-derived** iteration (so the covered spot drifts as CI changes the
seed, instead of fossilising one code path), resumes it from disk and
diffs the stitched-together result against an uninterrupted baseline
run, fingerprint for fingerprint and ground-truth log for log.

Exit code 0 means every kill point resumed bit-identically.  On failure
the run directories (journals, checkpoints and the quarantine ledger)
are left behind under ``--work-dir`` for the CI job to upload as an
artifact.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.recovery.crashtest import (
    ALL_KILL_POINTS,
    result_fingerprint,
    verify_crash_resume,
)

__all__ = ["main", "derive_kill_iteration"]


def derive_kill_iteration(config: ExperimentConfig) -> int:
    """Seed-derived kill spot in the middle half of the run.

    Deterministic for a given configuration, but different seeds land on
    different iterations, so repeated CI runs sweep the schedule instead
    of always killing the same place.
    """
    iterations = int(config.horizon / config.ddc.sample_period)
    quarter = max(1, iterations // 4)
    return quarter + (config.seed * 2654435761) % (2 * quarter)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.recovery.smoke",
        description="crash a run at every kill point, resume, diff",
    )
    parser.add_argument("--days", type=int, default=2,
                        help="run length in days (default 2)")
    parser.add_argument("--seed", type=int, default=2005,
                        help="experiment seed (default 2005)")
    parser.add_argument("--work-dir", default="crash-smoke",
                        help="where run directories live; failures leave "
                        "theirs behind for artifact upload (default "
                        "./crash-smoke)")
    parser.add_argument("--kill-points", nargs="*", default=None,
                        metavar="POINT",
                        help=f"subset to exercise (default: all of "
                        f"{', '.join(ALL_KILL_POINTS)})")
    args = parser.parse_args(argv)

    config = ExperimentConfig(days=args.days, seed=args.seed)
    kill_iteration = derive_kill_iteration(config)
    points = args.kill_points or list(ALL_KILL_POINTS)
    work = Path(args.work_dir)

    print(f"baseline: days={args.days} seed={args.seed} "
          f"kill_iteration={kill_iteration}")
    t0 = time.time()
    baseline = run_experiment(config)
    print(f"baseline fingerprint {result_fingerprint(baseline)[:16]}... "
          f"({time.time() - t0:.1f}s, {len(baseline.store)} samples)")

    failures = 0
    for point in points:
        run_dir = work / point
        if run_dir.exists():
            shutil.rmtree(run_dir)
        t0 = time.time()
        identical, fp_resumed, fp_baseline = verify_crash_resume(
            config, point, kill_iteration, run_dir, baseline=baseline,
        )
        verdict = "PASS" if identical else "FAIL"
        print(f"{verdict} {point:16s} resumed={fp_resumed[:16]}... "
              f"baseline={fp_baseline[:16]}... ({time.time() - t0:.1f}s)"
              + ("" if identical or fp_resumed != fp_baseline
                 else " ground truth differs"))
        if identical:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            failures += 1
            ledger = run_dir / "quarantine" / "ledger.jsonl"
            print(f"     evidence kept in {run_dir}"
                  + (f" (ledger: {ledger})" if ledger.exists() else ""))
    if failures:
        print(f"{failures}/{len(points)} kill points diverged",
              file=sys.stderr)
        return 1
    print(f"all {len(points)} kill points resumed bit-identically")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())

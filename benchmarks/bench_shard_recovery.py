"""What resuming a crashed campaign buys.

One question, one JSON artifact (``BENCH_shard_recovery.json``):
after a worker dies mid-campaign with an exhausted regrant budget,
``resume_from=`` continues every shard from its own checkpoints instead
of recomputing the whole campaign.  The resumed portion must beat
restarting from zero (target **>= 1.1x**, asserted only on hosts with
>= 4 CPUs: on smaller hosts the coordinator's threads time-slice the
workers' cores and the comparison measures the scheduler); the merged
bytes are asserted identical either way.

Every ``shards>1`` run is a campaign on the same coordinator, so there
is no uncoordinated fan-out left to measure the control plane against.

Environment knobs: ``REPRO_BENCH_DAYS`` / ``REPRO_BENCH_SEED`` as for
the rest of the harness, ``REPRO_SHARD_RECOVERY_BENCH_OUT`` for the
report path.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from benchmarks.conftest import (
    bench_days,
    bench_seed,
    show,
    write_bench_report,
)
from repro.config import paper_config
from repro.errors import ShardWorkerError
from repro.experiment import run_experiment
from repro.recovery.crashtest import CrashSpec
from repro.recovery.runtime import RecoveryConfig
from repro.recovery.smoke import derive_kill_iteration
from repro.report.tables import Table
from repro.shard.coordinator import CampaignPolicy

#: Campaign width measured (matches the chaos suite's primary case).
SHARDS = 2
#: Resuming a killed campaign must beat recomputing it from zero.
RESUME_SPEEDUP_TARGET = 1.1


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _csv(result, path):
    result.store.write_csv(path)
    return path.read_bytes()


def test_shard_recovery_costs(tmp_path):
    cpus = os.cpu_count() or 1
    cfg = paper_config(seed=bench_seed(), days=bench_days())
    rows = []
    baseline_csv = _csv(run_experiment(cfg, collect_nbench=False),
                        tmp_path / "sequential.csv")

    # Fresh journaled campaign: the restart-from-zero cost of a crash.
    fresh_dir = tmp_path / "fresh"
    fresh, fresh_s = _timed(
        lambda: run_experiment(
            cfg, collect_nbench=False, shards=SHARDS,
            recovery=RecoveryConfig(run_dir=fresh_dir, fsync=False)))
    assert _csv(fresh, tmp_path / "fresh.csv") == baseline_csv
    rows.append({"mode": "campaign_fresh", "wall_seconds": round(fresh_s, 3),
                 "samples": len(fresh.store)})

    # Kill one worker mid-campaign with no regrant budget, then resume.
    crash_dir = tmp_path / "crashed"
    with pytest.raises(ShardWorkerError):
        run_experiment(
            cfg, collect_nbench=False, shards=SHARDS,
            supervise=CampaignPolicy(max_regrants=0),
            recovery=RecoveryConfig(
                run_dir=crash_dir, fsync=False, crash_shard=0,
                crash_at=CrashSpec(derive_kill_iteration(cfg),
                                   "post_checkpoint")))
    resumed, resume_s = _timed(
        lambda: run_experiment(resume_from=crash_dir))
    assert _csv(resumed, tmp_path / "resume.csv") == baseline_csv
    resume_speedup = fresh_s / resume_s
    rows.append({"mode": "campaign_resume",
                 "wall_seconds": round(resume_s, 3),
                 "samples": len(resumed.store),
                 "speedup_vs_fresh": round(resume_speedup, 3)})

    asserted = cpus >= 4
    report = {
        "days": bench_days(),
        "seed": bench_seed(),
        "cpu_count": cpus,
        "shards": SHARDS,
        "resume_speedup_target": RESUME_SPEEDUP_TARGET,
        "target_asserted": asserted,
        "runs": rows,
    }
    write_bench_report("shard_recovery", report,
                       env_var="REPRO_SHARD_RECOVERY_BENCH_OUT")

    table = Table(["mode", "wall s", "note"], ndigits=2)
    table.add_row(["campaign fresh", fresh_s, "journaled + manifest"])
    table.add_row(["campaign resume", resume_s,
                   f"{resume_speedup:.2f}x vs fresh"])
    show("shard recovery costs", table.render())

    if asserted:
        assert resume_speedup >= RESUME_SPEEDUP_TARGET, (
            f"resume speedup {resume_speedup:.2f}x below the "
            f"{RESUME_SPEEDUP_TARGET}x target on a {cpus}-CPU host"
        )

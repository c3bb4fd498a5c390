"""Distributed-chaos smoke: ``python -m repro.shard.net.smoke``.

CI's end-to-end exercise of the campaign coordinator with TCP workers.
Every scenario runs a loopback TCP campaign (coordinator + spawned
worker processes) and diffs the merged result fingerprint-for-fingerprint
against the same campaign on forked local workers at the same seed:

1. **clean** -- shards 2 and 4, no faults: the trace CSV, merged meta,
   machine-fault ledger and merged ObsSnapshot must all be
   byte-identical to the forked-worker campaign;
2. **drop** -- the victim shard's lease holder is disconnected
   mid-run; the worker hard-stops (torn journal), reconnects, and the
   regrant resumes the shard from its own checkpoints;
3. **partition** -- the first connection is blackholed (link up,
   nothing delivered): the lease liveness deadline expires, the holder
   is fenced and the shard regranted;
4. **wire** -- message duplication, delay and a slow link together:
   the framing layer's sequence numbers and timeout discipline absorb
   all of it with zero restarts;
5. **degraded** -- every holder of the victim shard is killed until
   the regrant budget is exhausted: the campaign must *complete* with
   an explicit partial manifest (``partial: true``, the lost shard
   listed), never hang or silently truncate.

Exit code 0 means every scenario held its invariant.  Failures leave
their campaign directory under ``--work-dir`` for artifact upload; the
degraded scenario's manifest is always kept as the partial-result
evidence.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.faults.network import (
    MessageDelay,
    MessageDuplicate,
    NetworkFaultPlan,
    Partition,
    ShardHolderDrop,
    SlowLink,
)
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import FlappingHost
from repro.obs import Observer
from repro.recovery.crashtest import result_fingerprint
from repro.recovery.runtime import RecoveryConfig
from repro.shard.coordinator import CampaignPolicy
from repro.shard.net.config import NetConfig
from repro.shard.net.worker import NetWorkerPolicy

__all__ = ["main"]

#: Chaos-shaped coordination: fast liveness so a partitioned holder is
#: fenced within a second, fast worker reconnect so CI does not sleep.
_CHAOS_POLICY = CampaignPolicy(degraded_after=0.4, lease_timeout=1.0,
                               backoff_base=0.05, join_timeout=20.0,
                               max_regrants=2)
_CHAOS_WORKERS = NetWorkerPolicy(connect_attempts=40, backoff_base=0.02,
                                 backoff_cap=0.2)


def _machine_faults(seed: int) -> FaultPlan:
    """A deterministic machine-level plan for the ledger comparison.

    Built fresh per run -- plans accumulate their injection ledger.
    """
    return FaultPlan([FlappingHost(machine_ids=range(0, 24),
                                   period=1800.0, down_fraction=0.4)],
                     seed=seed)


def _sim_only_obs(path: Path) -> bytes:
    """Snapshot bytes minus wall-clock gauges.

    ``experiment.phase_seconds`` measures real elapsed time and so can
    never be identical across two runs; everything else in the snapshot
    is simulation-derived and must match byte for byte.
    """
    return b"".join(
        line for line in path.read_bytes().splitlines(keepends=True)
        if b"experiment.phase_seconds" not in line
    )


def _net(work: Path, name: str, *, workers: int = 2,
         faults: Optional[NetworkFaultPlan] = None,
         policy: CampaignPolicy = _CHAOS_POLICY) -> NetConfig:
    del work, name  # run_dir comes via recovery=; endpoint is ephemeral
    return NetConfig(spawn_workers=workers, policy=policy, faults=faults,
                     worker_policy=_CHAOS_WORKERS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.shard.net.smoke",
        description="networked campaign chaos: disconnect, partition, "
        "degrade; diff against the forked-worker campaign",
    )
    parser.add_argument("--days", type=int, default=2,
                        help="run length in days (default 2)")
    parser.add_argument("--seed", type=int, default=2005,
                        help="experiment seed (default 2005)")
    parser.add_argument("--work-dir", default="distributed-chaos",
                        help="campaign directories; failures leave theirs "
                        "behind for artifact upload "
                        "(default ./distributed-chaos)")
    args = parser.parse_args(argv)

    config = ExperimentConfig(days=args.days, seed=args.seed)
    victim = args.seed % 2
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    failures = 0

    # --- forked-worker baseline (the equivalence target) --------------
    print(f"baseline: days={args.days} seed={args.seed} "
          f"victim=shard-{victim}")
    t0 = time.time()
    obs_base = Observer()
    baseline = run_experiment(config, shards=2,
                              faults=_machine_faults(args.seed),
                              observer=obs_base)
    fp_baseline = result_fingerprint(baseline)
    baseline.store.write_csv(work / "baseline.csv")
    baseline.obs_snapshot.write_jsonl(work / "baseline-obs.jsonl")
    ledger_baseline = dict(baseline.faults.injected)
    print(f"baseline fingerprint {fp_baseline[:16]}... "
          f"({time.time() - t0:.1f}s, {len(baseline.store)} samples)")

    # --- scenario 1: clean loopback campaigns at shards 2 and 4 -------
    for n in (2, 4):
        t0 = time.time()
        obs = Observer()
        result = run_experiment(
            config, shards=n, faults=_machine_faults(args.seed),
            observer=obs, net=_net(work, f"clean-{n}", workers=n),
        )
        checks = []
        if n == 2:
            # Artifact-for-artifact against the forked 2-shard run:
            # CSV bytes, fault ledger, merged observability snapshot.
            result.store.write_csv(work / "clean-2.csv")
            result.obs_snapshot.write_jsonl(work / "clean-2-obs.jsonl")
            csv_ok = ((work / "clean-2.csv").read_bytes()
                      == (work / "baseline.csv").read_bytes())
            obs_ok = (_sim_only_obs(work / "clean-2-obs.jsonl")
                      == _sim_only_obs(work / "baseline-obs.jsonl"))
            checks = [("csv", csv_ok), ("obs", obs_ok)]
        fp = result_fingerprint(result)
        checks += [("fingerprint", fp == fp_baseline),
                   ("ledger", dict(result.faults.injected)
                    == ledger_baseline),
                   ("complete", result.degraded is None)]
        bad = [name for name, ok in checks if not ok]
        print(f"{'FAIL' if bad else 'PASS'} clean shards={n} "
              f"merged={fp[:16]}... ({time.time() - t0:.1f}s)"
              + (f" diverged: {bad}" if bad else ""))
        failures += bool(bad)

    # --- scenarios 2+3: a kill point mid-campaign, with recovery ------
    kill_points = [
        ("drop", NetworkFaultPlan(
            [ShardHolderDrop(shard=victim, after=25, times=1)],
            seed=args.seed)),
        ("partition", NetworkFaultPlan(
            [Partition(conn_id=0, start=10, length=10 ** 9)],
            seed=args.seed)),
    ]
    for name, net_faults in kill_points:
        run_dir = work / name
        if run_dir.exists():
            shutil.rmtree(run_dir)
        t0 = time.time()
        result = run_experiment(
            config, shards=2, faults=_machine_faults(args.seed),
            recovery=RecoveryConfig(run_dir=run_dir, fsync=False),
            net=_net(work, name, faults=net_faults),
        )
        fp = result_fingerprint(result)
        restarts = dict(result.campaign.restarts)
        injected = dict(net_faults.injected)
        ok = (fp == fp_baseline and sum(restarts.values()) >= 1
              and result.degraded is None and sum(injected.values()) >= 1)
        print(f"{'PASS' if ok else 'FAIL'} {name:9s} merged={fp[:16]}... "
              f"regrants={restarts} injected={injected} "
              f"({time.time() - t0:.1f}s)")
        if ok:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            failures += 1
            print(f"     evidence kept in {run_dir}")

    # --- scenario 4: benign wire chaos (dup + delay + slow link) ------
    t0 = time.time()
    net_faults = NetworkFaultPlan(
        [MessageDuplicate(every=3), MessageDelay(every=7, seconds=0.001),
         SlowLink(seconds_per_kb=0.0002)],
        seed=args.seed)
    result = run_experiment(config, shards=2,
                            faults=_machine_faults(args.seed),
                            net=_net(work, "wire", faults=net_faults))
    fp = result_fingerprint(result)
    injected = dict(net_faults.injected)
    ok = (fp == fp_baseline
          and sum(result.campaign.restarts.values()) == 0
          and injected.get("net_duplicate", 0) >= 1)
    print(f"{'PASS' if ok else 'FAIL'} wire      merged={fp[:16]}... "
          f"injected={injected} ({time.time() - t0:.1f}s)")
    failures += not ok

    # --- scenario 5: permanent loss -> explicit partial completion ----
    run_dir = work / "degraded"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    t0 = time.time()
    net_faults = NetworkFaultPlan(
        [ShardHolderDrop(shard=victim, after=15, times=None)],
        seed=args.seed)
    result = run_experiment(
        config, shards=2, faults=_machine_faults(args.seed),
        recovery=RecoveryConfig(run_dir=run_dir, fsync=False),
        net=_net(work, "degraded", faults=net_faults,
                 policy=CampaignPolicy(degraded_after=0.4,
                                       lease_timeout=1.0,
                                       backoff_base=0.05, join_timeout=20.0,
                                       max_regrants=1, allow_partial=True)),
    )
    deg = result.degraded
    manifest = json.loads((run_dir / "manifest.json").read_text())
    survivor_meta = result.store.meta
    identity_ok = (survivor_meta.iterations_run * survivor_meta.n_machines
                   == survivor_meta.attempts + survivor_meta.shed
                   + survivor_meta.breaker_skipped)
    ok = (deg is not None and list(deg.lost_shards) == [victim]
          and 0.0 < deg.coverage < 1.0
          and manifest.get("partial") is True
          and manifest.get("lost_shards") == [victim]
          and manifest.get("state") == "degraded"
          and identity_ok
          and len(result.store) < len(baseline.store))
    coverage = f"{deg.coverage:.2f}" if deg is not None else "n/a"
    print(f"{'PASS' if ok else 'FAIL'} degraded  "
          f"lost={list(deg.lost_shards) if deg else None} "
          f"coverage={coverage} "
          f"manifest(partial={manifest.get('partial')}, "
          f"state={manifest.get('state')!r}) "
          f"({time.time() - t0:.1f}s)")
    failures += not ok
    # The partial manifest is the artifact CI uploads: keep it.
    print(f"     partial-campaign manifest kept in {run_dir}")

    if failures:
        print(f"{failures} distributed-chaos scenarios diverged",
              file=sys.stderr)
        return 1
    print("all distributed-chaos scenarios held their invariants")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())

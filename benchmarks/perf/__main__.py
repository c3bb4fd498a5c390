"""Run the perf benchmark, or compare two recorded invocations.

    PYTHONPATH=src python -m benchmarks.perf [--seed 2005] [--repeats 5]
        [--workloads paper fleet10k ...] [--quick]
    PYTHONPATH=src python -m benchmarks.perf compare A B

A run prints every end-to-end metric (median, IQR, n) and the traced
layer table of each workload, appends one row per workload to
``benchmarks/perf/results/trajectory.jsonl`` (not in ``--quick`` mode)
and exits non-zero if any output check failed.  ``compare`` selects
invocations by index (``-1`` is the latest) or by id or git SHA prefix.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.perf.record import append_rows, compare
from benchmarks.perf.runner import WorkloadReport, invoke, load_bench
from benchmarks.perf.workloads import WORKLOADS


def _render(report: WorkloadReport, bench) -> str:
    w = report.workload
    lines = [f"== {w.name}: {w.machines} machines x {w.days} days, "
             f"{w.shards} shard(s){', tcp' if w.net else ''}"
             f"{', journaled' if w.journaled else ''}; seed {report.seed} "
             f"(simulated {report.sim_seed})",
             f"{'metric':<20} {'unit':<15} {'median':>12} {'IQR':>10} "
             f"{'n':>3}"]
    for name, s in report.end_to_end().items():
        unit = bench.end_to_end[name]["unit"]
        lines.append(f"{name:<20} {unit:<15} {s.median:>12.4f} "
                     f"{s.iqr:>10.4f} {s.n:>3}")
    lines.append(f"{'failed_ops_share':<20} {'ratio':<15} "
                 f"{report.failed_share:>12.4f} "
                 f"{'':>10} {report.attempted:>3}")
    layers = report.layers()
    if layers:
        # Shares of the traced wall use the parent process's self time:
        # worker layers run in parallel and are not part of that wall.
        traced = report.traced()[0]
        wall = traced["wall_s"]
        lines.append(f"{'layer (traced run)':<30} {'unit':<9} "
                     f"{'value':>14} {'of wall':>8}")
        for name, spec in bench.per_layer.items():
            own = traced["parent_s"].get(name)
            of_wall = f"{100 * own / wall:>7.1f}%" if own else ""
            lines.append(f"{name:<30} {spec['unit']:<9} "
                         f"{layers[name].median:>14.6g} {of_wall:>8}")
    lines += [f"FAILED: {e}" for e in report.errors]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    bench = load_bench()
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="python -m benchmarks.perf compare")
        ap.add_argument("a", help="baseline invocation")
        ap.add_argument("b", help="candidate invocation")
        args = ap.parse_args(argv[1:])
        print("\n".join(compare(args.a, args.b, bench)))
        return 0
    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=list(WORKLOADS))
    ap.add_argument("--quick", action="store_true",
                    help="every workload at 169 machines x 2 days; "
                         "nothing is recorded")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    reports = invoke(seed=args.seed, repeats=args.repeats,
                     names=args.workloads, quick=args.quick,
                     log=lambda msg: print(msg, file=sys.stderr))
    for report in reports:
        print(_render(report, bench) + "\n")
    if not args.quick:
        print(f"recorded invocation "
              f"{append_rows(reports, repeats=args.repeats)}")
    return 0 if all(r.failed == 0 for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())

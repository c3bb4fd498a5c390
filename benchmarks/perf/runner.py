"""Run workload executions and turn them into checked metrics.

Each execution is a fresh ``python -m benchmarks.perf.execute``
process, run one at a time.  Two entry points share this module:

- :func:`drive` is the fixed-duration contract behind
  ``BENCHMARK.json``: one workload, one seed, executions repeated for a
  given number of seconds, one JSON result line;
- :func:`invoke` is the full protocol of ``python -m benchmarks.perf``:
  one traced execution per workload (it also warms the file cache and
  is excluded from the end-to-end numbers), then ``repeats`` untraced
  executions interleaved round-robin across workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf.stats import Summary, summarize
from benchmarks.perf.workloads import WORKLOADS, Workload, select

__all__ = ["ROOT", "Bench", "ExecutionFailed", "WorkloadReport", "drive",
           "invoke", "load_bench", "load_pins", "metric_line"]

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
PINS_PATH = Path(__file__).resolve().parent / "pinned.json"
#: Per-execution scratch space (journals, checkpoints), inside the
#: checkout and deleted after every execution.
TMP_DIR = ROOT / ".perf_tmp"
#: No execution of a full invocation may outlive this.
EXECUTION_TIMEOUT_S = 150.0
#: ``run.py`` must exit within 180 s, so its executions share this.
DRIVE_DEADLINE_S = 170.0


class ExecutionFailed(RuntimeError):
    """An execution crashed, timed out or printed no result."""


@dataclass(frozen=True)
class Bench:
    """The metric catalog of ``BENCHMARK.json``, by metric name."""

    end_to_end: Dict[str, dict]
    per_layer: Dict[str, dict]


def load_bench() -> Bench:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Bench(end_to_end={m["name"]: m for m in spec["end_to_end"]},
                 per_layer={m["name"]: m for m in spec["per_layer"]})


def load_pins() -> dict:
    """Pinned ``result_fingerprint`` values: seed plus per-size tables."""
    return json.loads(PINS_PATH.read_text())


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark,
    and import the program from them (seed screening needs it)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmark: no program sources under {src}; run the "
            "benchmark from the root of a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def run_execution(workload: Workload, seed: int, *, traced: bool = False,
                  fingerprint: bool = False, check_replay: bool = False,
                  timeout: float = EXECUTION_TIMEOUT_S) -> dict:
    """Run one execution in a fresh interpreter and return its record."""
    tmp = TMP_DIR / uuid.uuid4().hex
    tmp.mkdir(parents=True)
    cmd = [sys.executable, "-m", "benchmarks.perf.execute",
           *workload.child_args(), "--seed", str(seed), "--tmp", str(tmp)]
    cmd += ["--traced"] * traced + ["--fingerprint"] * fingerprint
    cmd += ["--check-replay"] * check_replay
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One malloc arena: with per-thread arenas, where a shard outcome is
    # unpickled (pool thread or main thread) swings the parent's peak
    # RSS by about 20% from run to run.
    env["MALLOC_ARENA_MAX"] = "1"
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The session holds the execution and any shard workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ExecutionFailed(
                f"{workload.name} seed {seed}: no result within "
                f"{timeout:.0f} s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ExecutionFailed(f"{workload.name} seed {seed}: execution "
                              f"exited {proc.returncode}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def execution_metrics(record: dict) -> Dict[str, float]:
    """The end-to-end metrics of one untraced execution."""
    return {
        "wall_s": record["wall_s"],
        "machine_days_per_s": record["machine_days"] / record["collect_s"],
        "analysis_s": record["analysis_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


@dataclass
class WorkloadReport:
    """Every execution of one workload in one invocation, and verdicts."""

    workload: Workload
    #: The benchmark seed; executions receive :attr:`sim_seed`.
    seed: int
    executions: List[dict] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Unsharded twin's untraced wall times (sharded workloads only).
    sequential_walls: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sim_seed = self.workload.simulation_seed(self.seed)

    def run(self, **kwargs) -> None:
        """Run one execution and count it, failed or not."""
        self.attempted += 1
        try:
            record = run_execution(self.workload, self.sim_seed, **kwargs)
        except ExecutionFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return
        record["ok"] = True
        self.executions.append(record)
        for error in record["errors"]:
            self._fail(record, error)

    def _fail(self, record: dict, error: str) -> None:
        """Record a failed check; each execution counts as failed once."""
        self.errors.append(error)
        if record["ok"]:
            record["ok"] = False
            self.failed += 1

    @property
    def failed_share(self) -> float:
        """``failed_ops_share``: failed runs / attempted runs."""
        return self.failed / max(self.attempted, 1)

    def untraced(self) -> List[dict]:
        return [r for r in self.executions if not r["traced"]]

    def traced(self) -> List[dict]:
        return [r for r in self.executions if r["traced"]]

    def check_outputs(self, pins: dict, *, size: str,
                      reference: Optional[str]) -> None:
        """Every execution must produce the same output -- the reference
        run's, if given -- and the pinned fingerprint at the pinned seed."""
        want = reference or (self.executions[0]["digest"]
                             if self.executions else None)
        for record in self.executions:
            if record["digest"] != want:
                source = "the sequential run" if reference else "run 1"
                self._fail(record, f"{self.workload.name}: output digest "
                           f"{record['digest'][:12]} differs from "
                           f"{source}'s {want[:12]}")
        pinned = (pins.get(size, {}).get(self.workload.name)
                  if self.seed == pins.get("seed") else None)
        for record in self.executions:
            got = record.get("fingerprint")
            if pinned is not None and got is not None and got != pinned:
                self._fail(record, f"{self.workload.name}: "
                           f"result_fingerprint {got[:12]} != pinned "
                           f"{pinned[:12]} at seed {self.seed}")

    def end_to_end(self) -> Dict[str, Summary]:
        runs = [execution_metrics(r) for r in self.untraced()]
        if not runs:
            return {}
        return {name: summarize([r[name] for r in runs]) for name in runs[0]}

    def layers(self) -> Dict[str, Summary]:
        """Per-layer metrics: medians over the traced executions, plus
        the tracing overhead and the sharded speedup."""
        traced = self.traced()
        if not traced:
            return {}
        out = {name: summarize([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
        untraced = [r["wall_s"] for r in self.untraced()]
        base = summarize(untraced).median if untraced else float("nan")
        out["trace.overhead_pct"] = summarize(
            [100.0 * (r["wall_s"] / base - 1.0) for r in traced])
        out["shard.speedup_vs_seq"] = summarize(
            [summarize(self.sequential_walls).median / base]
            if self.sequential_walls else [0.0])
        return out


def attach_reference(report: WorkloadReport,
                     candidates: List[WorkloadReport] = (),
                     **run_kwargs) -> Optional[str]:
    """Output digest a sharded workload must reproduce, or ``None``.

    The reference is the unsharded twin (same fleet and days): taken
    from ``candidates`` when one of them ran it, executed once
    otherwise.  Its untraced wall times feed ``shard.speedup_vs_seq``.
    """
    if not report.workload.sharded:
        return None
    seq = report.workload.sequential()
    twin = next((r for r in candidates
                 if r.workload.shape == seq.shape and r.executions), None)
    if twin is None:
        twin = WorkloadReport(seq, report.seed)
        twin.run(**run_kwargs)
        report.attempted += twin.attempted
        report.failed += twin.failed
        report.errors += twin.errors
    if not twin.executions:
        return None
    report.sequential_walls = [r["wall_s"]
                               for r in twin.untraced() or twin.executions]
    return twin.executions[0]["digest"]


def metric_line(metrics: Dict[str, Summary],
                catalog: Dict[str, dict]) -> dict:
    """The ``metrics`` object of the result line: every catalog metric's
    median with its unit; raises ``KeyError`` if one was not measured."""
    missing = sorted(catalog.keys() - metrics.keys())
    if missing:
        raise KeyError(f"benchmark emitted no value for {missing}")
    return {name: {"value": metrics[name].median, "unit": spec["unit"]}
            for name, spec in catalog.items()}


def drive(workload_name: str, seed: int, seconds: float,
          trace: bool) -> int:
    """The ``BENCHMARK.json`` contract: measure one workload for
    ``seconds`` and print one JSON result line."""
    deadline = time.monotonic() + DRIVE_DEADLINE_S
    check_checkout()
    bench = load_bench()
    pins = load_pins()
    if workload_name not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {workload_name!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    report = WorkloadReport(workload, seed)
    want_fp = seed == pins["seed"]
    # The unsharded twin doubles as the correctness reference and the
    # denominator of shard.speedup_vs_seq; it runs before the window.
    reference = attach_reference(
        report, timeout=deadline - time.monotonic())
    start = time.perf_counter()
    durations: List[float] = []
    min_runs = 2 if trace else 1
    while len(durations) < min_runs or (
            time.perf_counter() - start + summarize(durations).median
            <= 1.1 * seconds):
        # Start another execution while it should end within the window
        # (10% grace, so three 6.7 s executions fit a 20 s window); with
        # --trace 1 at least one traced and one untraced.
        n = len(durations)
        t0 = time.perf_counter()
        report.run(traced=trace and n % 2 == 0,
                   fingerprint=want_fp and n == 0,
                   check_replay=workload.journaled and trace and n == 0,
                   timeout=max(1.0, deadline - time.monotonic()))
        durations.append(time.perf_counter() - t0)
    report.check_outputs(pins, size="full", reference=reference)
    metrics = report.layers() if trace else report.end_to_end()
    catalog = bench.per_layer if trace else bench.end_to_end
    for error in report.errors:
        print(f"benchmark: {error}", file=sys.stderr)
    try:
        line = metric_line(metrics, catalog)
    except KeyError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    correct = report.failed == 0
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": line}))
    return 0 if correct else 1


def invoke(*, seed: int, repeats: int, names, quick: bool,
           pins: Optional[dict] = None,
           log=print) -> List[WorkloadReport]:
    """The full protocol over several workloads; returns their reports."""
    check_checkout()
    pins = load_pins() if pins is None else pins
    workloads = select(names, quick=quick)
    reports = [WorkloadReport(w, seed) for w in workloads]
    for report in reports:
        log(f"[traced] {report.workload.name}")
        report.run(traced=True, fingerprint=seed == pins["seed"],
                   check_replay=report.workload.journaled)
    for i in range(repeats):
        for report in reports:
            log(f"[{i + 1}/{repeats}] {report.workload.name}")
            report.run()
    size = "quick" if quick else "full"
    for report in reports:
        reference = attach_reference(report, reports)
        report.check_outputs(pins, size=size, reference=reference)
    return reports

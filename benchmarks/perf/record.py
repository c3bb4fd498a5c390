"""The perf trajectory: one row per workload per invocation, and compare.

Rows are appended to ``benchmarks/perf/results/trajectory.jsonl``.  A
row carries every metric as median, IQR and n, the traced layer table,
and the host the numbers came from, so rows from different machines
are never compared unknowingly.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Dict, List

from benchmarks.perf.runner import ROOT, Bench, WorkloadReport

__all__ = ["TRAJECTORY", "host_fingerprint", "append_rows", "compare"]

TRAJECTORY = Path(__file__).resolve().parent / "results" / "trajectory.jsonl"

#: ``failed_ops_share`` is not in BENCHMARK.json (it must read 0); any
#: increase is a regression.
FAILED_SHARE = {"unit": "ratio", "better": "lower", "bound": 0.0}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def host_fingerprint() -> dict:
    """CPU model and count, Python and NumPy versions, git SHA + dirty."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", None
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_sha": sha,
            "git_dirty": dirty}


def append_rows(reports: List[WorkloadReport], *, repeats: int) -> str:
    """Append one row per workload; returns the invocation id."""
    host = host_fingerprint()
    now = datetime.datetime.now(datetime.timezone.utc)
    invocation = f"{now:%Y%m%dT%H%M%SZ}-{host['git_sha'][:8]}"
    TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(TRAJECTORY, "a", encoding="utf-8") as fh:
        for report in reports:
            metrics = {k: s.as_dict()
                       for k, s in report.end_to_end().items()}
            metrics["failed_ops_share"] = {
                "median": report.failed_share, "iqr": 0.0,
                "n": report.attempted}
            row = {
                "invocation": invocation,
                "time": now.isoformat(timespec="seconds"),
                "workload": report.workload.name,
                "seed": report.seed,
                "sim_seed": report.sim_seed,
                "repeats": repeats,
                "metrics": metrics,
                "layers": {k: s.median for k, s in report.layers().items()},
                "errors": report.errors,
                "host": host,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return invocation


def _load(path: Path) -> Dict[str, Dict[str, dict]]:
    """Rows grouped by invocation id, in file order."""
    runs: Dict[str, Dict[str, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["invocation"], {})[row["workload"]] = row
    return runs


def _pick(runs: Dict[str, Dict[str, dict]], selector: str) -> str:
    """An invocation by list index (``-1`` = latest) or id/SHA prefix."""
    ids = list(runs)
    try:
        return ids[int(selector)]
    except ValueError:
        pass
    except IndexError:
        raise SystemExit(f"compare: no invocation #{selector} "
                         f"({len(ids)} recorded)") from None
    hits = [i for i in ids if i.startswith(selector) or any(
        row["host"]["git_sha"].startswith(selector)
        for row in runs[i].values())]
    if not hits:
        raise SystemExit(f"compare: no invocation matches {selector!r}")
    return hits[-1]


def verdict(a: dict, b: dict, spec: dict) -> str:
    """better / worse / unchanged / unresolved for one metric, A -> B.

    Unresolved when either side's IQR exceeds the bound (as a share of
    its median): the runs cannot tell a change of that size from noise.
    """
    bound = spec["bound"]
    for side in (a, b):
        if side["median"] and side["iqr"] / abs(side["median"]) > bound:
            return "unresolved"
    if a["median"] == 0:
        change = b["median"] - a["median"]
    else:
        change = (b["median"] - a["median"]) / abs(a["median"])
    if spec["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(a_sel: str, b_sel: str, bench: Bench) -> List[str]:
    """Render the A -> B comparison, one line per workload x metric."""
    runs = _load(TRAJECTORY)
    a_id, b_id = _pick(runs, a_sel), _pick(runs, b_sel)
    specs = dict(bench.end_to_end, failed_ops_share=FAILED_SHARE)
    lines = [f"A = {a_id}", f"B = {b_id}",
             f"{'workload':<12} {'metric':<20} {'A median':>12} "
             f"{'B median':>12} {'change':>8}  verdict"]
    for workload, a_row in runs[a_id].items():
        b_row = runs[b_id].get(workload)
        if b_row is None:
            continue
        for name, spec in specs.items():
            a, b = a_row["metrics"].get(name), b_row["metrics"].get(name)
            if a is None or b is None:
                continue
            change = ((b["median"] / a["median"] - 1.0) * 100.0
                      if a["median"] else 0.0)
            lines.append(f"{workload:<12} {name:<20} {a['median']:>12.4g} "
                         f"{b['median']:>12.4g} {change:>+7.1f}%  "
                         f"{verdict(a, b, spec)}")
    return lines

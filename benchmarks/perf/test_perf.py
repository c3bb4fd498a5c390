"""Self-test of the perf benchmark in quick mode (under a minute).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py

Every workload runs at 169 machines x 2 days with 2 repeats.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from benchmarks.perf.execute import SELF_TIME_METRICS
from benchmarks.perf.runner import (
    ROOT,
    invoke,
    load_bench,
    load_pins,
    metric_line,
)
from benchmarks.perf.workloads import WORKLOADS

SEED = 2005


@pytest.fixture(scope="module")
def reports():
    return invoke(seed=SEED, repeats=2, names=list(WORKLOADS), quick=True,
                  log=lambda msg: None)


def test_every_run_passes_its_output_checks(reports):
    for report in reports:
        assert report.failed == 0, report.errors
        assert report.attempted >= 3


def test_every_benchmark_metric_is_emitted_with_its_unit(reports):
    bench = load_bench()
    for report in reports:
        for catalog, metrics in ((bench.end_to_end, report.end_to_end()),
                                 (bench.per_layer, report.layers())):
            line = metric_line(metrics, catalog)
            assert line.keys() == catalog.keys()
            for name, entry in line.items():
                assert entry["unit"] == catalog[name]["unit"]
                assert isinstance(entry["value"], float), name
        for name in bench.end_to_end:
            assert report.end_to_end()[name].median > 0, name


def test_layer_self_times_add_up_to_the_traced_wall(reports):
    for report in reports:
        traced = report.traced()[0]
        wall = traced["wall_s"]
        assert sum(traced["parent_s"].values()) == pytest.approx(wall)
        if report.workload.sharded:
            continue
        layers = traced["layers"]
        self_times = sum(layers[m] for m in SELF_TIME_METRICS.values())
        assert self_times + layers["trace.unattributed_s"] \
            == pytest.approx(wall)
        assert 0 <= layers["trace.unattributed_s"] <= 0.05 * wall


def test_tracing_leaves_the_output_unchanged(reports):
    pins = load_pins()
    for report in reports:
        digests = {r["digest"] for r in report.executions}
        assert len(digests) == 1, report.workload.name
        traced = report.traced()[0]
        assert traced["fingerprint"] == pins["quick"][report.workload.name]


def test_sharded_runs_match_the_sequential_run(reports):
    by_name = {r.workload.name: r for r in reports}
    paper = by_name["paper"].executions[0]["digest"]
    for name in ("sharded10k", "net10k"):
        assert by_name[name].executions[0]["digest"] == paper
        speedup = by_name[name].layers()["shard.speedup_vs_seq"].median
        assert speedup > 0


def test_a_tampered_pin_is_reported_as_a_failure():
    pins = load_pins()
    pins["quick"]["paper"] = "0" * 64
    (report,) = invoke(seed=SEED, repeats=1, names=["paper"], quick=True,
                       pins=pins, log=lambda msg: None)
    assert report.failed == 1
    assert any("pinned" in e for e in report.errors)


def test_the_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

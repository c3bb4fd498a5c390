"""End-to-end observability: the differential guarantee, instrumented
counters vs the coordinator's ground-truth accounting, JSONL round-trip,
the fault-ledger copy and the ``repro obs`` CLI.

The differential test is the load-bearing one: an experiment run with a
:class:`NullObserver` -- or a fully attached :class:`Observer` -- must
produce a trace whose fingerprint is bitwise-identical to an unobserved
run.  Observation never consumes experiment RNG streams and never
perturbs event ordering.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.config import ExperimentConfig
from repro.errors import SnapshotFormatError
from repro.experiment import run_experiment
from repro.faults import AccessDeniedStorm, FaultPlan, StdoutCorruption
from repro.obs import NullObserver, Observer, ObsSnapshot
from repro.report.obs import obs_fault_rows, render_obs_report
from tests.faults.helpers import fingerprint

DAYS, SEED = 1, 5


def _run(observer=None, **kwargs):
    return run_experiment(ExperimentConfig(days=DAYS, seed=SEED),
                          collect_nbench=False, observer=observer, **kwargs)


@pytest.fixture(scope="module")
def plain_run():
    return _run()


@pytest.fixture(scope="module")
def observed_run():
    return _run(observer=Observer())


@pytest.fixture(scope="module")
def snap(observed_run):
    return observed_run.observer.snapshot()


@pytest.fixture(scope="module")
def faulty_run():
    plan = FaultPlan([AccessDeniedStorm(0.05),
                      StdoutCorruption(0.02, mode="garble")], seed=SEED)
    result = _run(observer=Observer(), strict_postcollect=False, faults=plan)
    return result, plan


class TestDifferentialGuarantee:
    def test_null_observer_is_bitwise_identical(self, plain_run):
        null = _run(observer=NullObserver())
        assert fingerprint(null.store) == fingerprint(plain_run.store)

    def test_full_observer_is_bitwise_identical(self, plain_run,
                                                observed_run):
        assert (fingerprint(observed_run.store)
                == fingerprint(plain_run.store))

    def test_null_observer_records_nothing(self):
        null = _run(observer=NullObserver())
        s = null.observer.snapshot()
        assert s.metrics == [] and s.spans == [] and s.events == []


class TestInstrumentation:
    """Observer counters must agree with the layers' own accounting."""

    def test_collector_counters_match_meta(self, observed_run, snap):
        meta = observed_run.meta
        assert snap.counter_total("ddc.samples") == meta.samples_collected
        assert snap.counter_total("ddc.timeouts") == meta.timeouts
        assert snap.counter_total("ddc.access_denied") == meta.access_denied
        assert snap.counter_total("ddc.iterations_run") == meta.iterations_run
        assert snap.counter_total("ddc.retries") == meta.retries

    def test_per_lab_counters_sum_to_totals(self, snap):
        by_lab = snap.counter_by_label("ddc.samples", "lab")
        assert len(by_lab) > 1  # multiple labs actually probed
        assert sum(by_lab.values()) == snap.counter_total("ddc.samples")

    def test_engine_counters(self, observed_run, snap):
        assert snap.counter_total("sim.events_fired") > 0
        assert snap.gauge_value("sim.heap_depth_max") > 0
        # sampled event stream comes from the engine's Event records
        assert snap.events_seen == snap.counter_total("sim.events_fired")
        assert snap.events and {"time", "seq", "name"} <= set(snap.events[0])

    def test_engine_counters_include_the_behaviour_loop(self, observed_run,
                                                        snap):
        # Both engines count: the probing engine's iterations, btick
        # and sweep events, and every agent event of the behaviour loop.
        fleet = observed_run.fleet
        behaviour = fleet._backend.env.events_fired
        assert behaviour > fleet.sim.events_fired > 0
        assert (snap.counter_total("sim.events_fired")
                == fleet.sim.events_fired + behaviour)

    def test_iteration_spans_run_on_sim_clock(self, observed_run, snap):
        durations = snap.span_durations("ddc.iteration")
        assert len(durations) == observed_run.meta.iterations_run
        # a full-fleet pass takes simulated seconds, not zero and not hours
        assert all(0 < d < 3600 for d in durations)

    def test_latency_histogram_counts_answered_attempts(self, observed_run,
                                                        snap):
        # latency is observed for every powered-on attempt; only
        # unreachable machines (timeouts) never reach the histogram
        hists = snap.histograms("ddc.exec_latency_seconds")
        answered = sum(h["count"] for h in hists)
        meta = observed_run.meta
        assert answered == meta.attempts - meta.timeouts

    def test_fleet_session_counters(self, snap):
        starts = snap.counter_by_label("fleet.session_starts", "lab")
        assert sum(starts.values()) > 0
        assert snap.counter_total("fleet.boots") > 0

    def test_phase_gauges_recorded(self, observed_run, snap):
        for phase in ("build", "simulate"):
            v = snap.gauge_value("experiment.phase_seconds", phase=phase)
            assert v is not None and v >= 0
        # collect_nbench=False: no collect phase
        assert snap.gauge_value("experiment.phase_seconds",
                                phase="collect") is None


class TestSnapshotRoundTrip:
    def test_jsonl_round_trip_is_exact(self, snap, tmp_path):
        p = tmp_path / "obs.jsonl"
        snap.write_jsonl(p)
        assert ObsSnapshot.read_jsonl(p) == snap

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "broken.jsonl"
        p.write_text('{"kind": "counter", "name": "x", "labels": {}, '
                     '"value": 1}\n')
        with pytest.raises(SnapshotFormatError, match="meta header"):
            ObsSnapshot.read_jsonl(p)

    def test_unknown_kind_rejected(self, snap, tmp_path):
        p = tmp_path / "bad.jsonl"
        snap.write_jsonl(p)
        with open(p, "a") as fh:
            fh.write('{"kind": "mystery"}\n')
        with pytest.raises(SnapshotFormatError, match="unknown record kind"):
            ObsSnapshot.read_jsonl(p)

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "garbage.jsonl"
        p.write_text("not json\n")
        with pytest.raises(SnapshotFormatError, match="bad JSON"):
            ObsSnapshot.read_jsonl(p)


class TestFaultReconciliation:
    def test_ledger_copied_into_snapshot(self, faulty_run):
        result, plan = faulty_run
        s = result.observer.snapshot()
        by_cat = s.counter_by_label("faults.injected", "category")
        for category, count in plan.injected.items():
            assert by_cat.get(category, 0) == count

    def test_injected_matches_observed(self, faulty_run):
        result, plan = faulty_run
        rows = {label: (injected, observed) for label, injected, observed
                in obs_fault_rows(result.observer.snapshot())}
        injected, observed = rows["access denied"]
        assert injected == plan.injected["access_denied"] > 0
        assert observed == injected  # every storm injection is observed
        injected, observed = rows["corrupted telemetry (parse failures)"]
        assert observed == injected > 0

    def test_report_renders_reconciliation(self, faulty_run):
        result, _ = faulty_run
        text = render_obs_report(result.observer.snapshot())
        assert "Fault injection: injected vs observed" in text
        assert "access denied" in text


class TestGoldenRunSnapshot:
    """The golden 3-day fixture runs fully instrumented (see conftest);
    export its snapshot so CI can upload it as a workflow artifact."""

    def test_export_golden_snapshot(self, small_result, tmp_path):
        out = os.environ.get("REPRO_OBS_SNAPSHOT",
                             str(tmp_path / "obs_snapshot.jsonl"))
        snapshot = small_result.observer.snapshot()
        snapshot.write_jsonl(out)
        back = ObsSnapshot.read_jsonl(out)
        assert back.counter_total("ddc.samples") > 0
        assert back.metric_names() == snapshot.metric_names()

    def test_golden_run_phases_complete(self, small_result, small_trace):
        del small_trace  # forces the columnarise phase to have run
        s = small_result.observer.snapshot()
        for phase in ("build", "simulate", "collect", "columnarise"):
            assert s.gauge_value("experiment.phase_seconds",
                                 phase=phase) is not None


class TestCli:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli")
        trace, snap_path = d / "trace.csv", d / "obs.jsonl"
        rc = main(["run", "--days", "1", "--seed", "5",
                   "--out", str(trace), "--obs-out", str(snap_path)])
        assert rc == 0
        return trace, snap_path

    def test_run_writes_trace_and_snapshot(self, exported):
        trace, snap_path = exported
        assert trace.exists() and snap_path.exists()

    def test_obs_renders_tables(self, exported, capsys):
        _, snap_path = exported
        assert main(["obs", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-lab iteration pass durations" in out
        assert "timeouts" in out

    def test_obs_json_digest(self, exported, capsys):
        _, snap_path = exported
        assert main(["obs", str(snap_path), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["counters"]["ddc.samples"] > 0

    def test_obs_missing_file(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such snapshot" in capsys.readouterr().err

    def test_obs_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main(["obs", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

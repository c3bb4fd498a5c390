"""Deterministic merge: the one pass over gathered outcomes, the meta and
store it fills, and the snapshot merge rule."""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.errors import SnapshotFormatError, TraceFormatError
from repro.experiment import run_experiment
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import StdoutCorruption
from repro.machines.hardware import TABLE1_LABS, build_fleet
from repro.obs.snapshot import ObsSnapshot
from repro.resilience import ResiliencePolicy
from repro.shard.gather import GatheredPasses
from repro.shard.merge import merge_outcomes
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, gather_shard
from repro.traces.store import TraceStore

CFG = ExperimentConfig(days=1, seed=3)
LABS = tuple(TABLE1_LABS[:3])


def gathered(config=CFG, shards=2, **task):
    """Fresh gathered outcomes of a plan over three labs (the merge
    consumes their rows)."""
    return [gather_shard(ShardTask(config=config, shard=spec, labs=LABS,
                                   **task))
            for spec in ShardPlan.build(LABS, shards).specs]


def darken(outcome, passes=None):
    """Make ``outcome`` a shard whose machines were never on, over its
    first ``passes`` recorded passes (all of them by default)."""
    rows = outcome.gathered
    outcome.gathered = dataclasses.replace(
        rows, powered=np.zeros_like(rows.powered[:passes]),
        source=rows.source[:0],
        fields={name: col[:0] for name, col in rows.fields.items()},
        usernames=[])


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


class TestTraceMetaMerged:
    """The merged meta: the parent's one pass fills it over every
    shard's machines, on the schedule the shards recorded."""

    def test_sums_counters_and_requires_agreement(self):
        """Counters cover every shard's machines, as the sequential
        run's do, under the resilience control plane and retries."""
        cfg = CFG.replace(ddc=dataclasses.replace(
            CFG.ddc, resilience=ResiliencePolicy(), retry_limit=2))
        outcomes = gathered(cfg)
        owned = sum(o.gathered.owned.size for o in outcomes)
        meta = merge_outcomes(outcomes)[0].meta
        seq = run_experiment(cfg, labs=LABS).meta
        assert meta.n_machines == owned == seq.n_machines
        for name in ("iterations_scheduled", "iterations_run", "attempts",
                     "timeouts", "samples_collected", "retries",
                     "retries_recovered", "shed", "breaker_skipped",
                     "hedges", "hedge_wins"):
            assert getattr(meta, name) == getattr(seq, name), name
        assert meta.attempts > 0
        assert (meta.attempts + meta.shed + meta.breaker_skipped
                == meta.iterations_run * meta.n_machines)

    def test_rejects_disagreeing_schedule(self):
        outcomes = gathered()
        rows = outcomes[1].gathered
        kept = rows.powered[:-1]
        outcomes[1].gathered = dataclasses.replace(
            rows, powered=kept, source=rows.source[:int(kept.sum())])
        with pytest.raises(TraceFormatError,
                           match=r"recorded \[\d+, \d+\] passes"):
            merge_outcomes(outcomes)

    def test_rejects_empty(self):
        """Shards that recorded no pass at all have no schedule to
        fill a meta with."""
        outcomes = gathered()
        for outcome in outcomes:
            darken(outcome, passes=0)
        with pytest.raises(TraceFormatError, match=r"recorded \[0\] passes"):
            merge_outcomes(outcomes)

    def test_statics_combine_but_must_not_overlap(self):
        outcomes = gathered()
        owned = [set(o.gathered.owned.tolist()) for o in outcomes]
        statics = merge_outcomes(outcomes)[0].meta.statics
        assert set(statics) == set(run_experiment(CFG, labs=LABS)
                                   .meta.statics)
        assert all(set(statics) & ids for ids in owned)
        outcomes = gathered()
        rows = outcomes[1].gathered
        claimed = rows.owned.copy()
        claimed[0] = outcomes[0].gathered.owned[0]
        outcomes[1].gathered = dataclasses.replace(rows, owned=claimed)
        with pytest.raises(TraceFormatError, match="overlap"):
            merge_outcomes(outcomes)


class TestTraceStoreMerge:
    """The merged store: the one pass over every shard's rows
    (:class:`~repro.shard.gather.GatheredPasses`), in the sequential
    run's ``(iteration, machine_id)`` order."""

    def test_reorders_by_iteration_then_machine(self):
        outcomes = gathered()
        owned = [set(o.gathered.owned.tolist()) for o in outcomes]
        store, _, _ = merge_outcomes(outcomes[::-1])
        order = [(s.iteration, s.machine_id) for s in store.samples()]
        assert order == sorted(order)
        first = {m for k, m in order if k == order[0][0]}
        assert all(first & ids for ids in owned)
        assert store.meta.n_machines == sum(lab.n_machines for lab in LABS)

    def test_single_store_merge_is_identity(self, tmp_path):
        """A one-shard plan's pass is the sequential run."""
        store, _, _ = merge_outcomes(gathered(shards=1))
        seq = run_experiment(CFG, labs=LABS)
        assert (csv_bytes(store, tmp_path / "sh.csv")
                == csv_bytes(seq.store, tmp_path / "seq.csv"))

    def test_rejects_zero_stores(self):
        with pytest.raises(TraceFormatError, match="recorded no passes"):
            GatheredPasses(build_fleet(LABS), [])

    def test_rejects_overlapping_machines(self):
        twins = [gathered()[0].gathered for _ in range(2)]
        with pytest.raises(TraceFormatError, match="overlap"):
            GatheredPasses(build_fleet(LABS), twins)

    def test_rejects_mixed_meta_presence(self):
        """A shard shipping a fault plan beside one shipping none is
        refused: the pass would run one shard's plan as the run's."""
        outcomes = gathered()
        outcomes[0].gathered.faults = FaultPlan([StdoutCorruption(0.05)],
                                                seed=3)
        with pytest.raises(TraceFormatError, match="pass settings"):
            merge_outcomes(outcomes)

    def test_merged_store_round_trips_csv_and_jsonl(self, tmp_path):
        """A merged store survives both interchange formats."""
        merged, _, _ = merge_outcomes(gathered())
        assert any(s.has_session for s in merged.samples())

        csv_path = tmp_path / "merged.csv"
        merged.write_csv(csv_path)
        back = TraceStore.read_csv(csv_path)
        csv_again = tmp_path / "again.csv"
        back.write_csv(csv_again)
        assert csv_again.read_bytes() == csv_path.read_bytes()

        jsonl_path = tmp_path / "merged.jsonl"
        merged.write_jsonl(jsonl_path)
        got = list(TraceStore.read_jsonl(jsonl_path).samples())
        want = list(merged.samples())
        # NaN session_start defeats == on the one free-machine field
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.machine_id, g.iteration, g.t, g.username) == (
                w.machine_id, w.iteration, w.t, w.username)
            assert math.isnan(g.session_start) == math.isnan(w.session_start)

    def test_empty_stores_merge_to_empty(self):
        """Shards whose machines were never on merge to no row, with
        every machine's attempts timed out."""
        outcomes = gathered()
        for outcome in outcomes:
            darken(outcome)
        store, _, _ = merge_outcomes(outcomes)
        meta = store.meta
        assert len(store) == 0
        assert meta.n_machines == sum(lab.n_machines for lab in LABS)
        assert meta.attempts == meta.iterations_run * meta.n_machines > 0
        assert meta.timeouts == meta.attempts


class TestMergeOutcomes:
    """Edge cases of the outcome-level merge (the one pass)."""

    def test_outcomes_merge_in_shard_index_order(self, tmp_path):
        store, faults, snapshot = merge_outcomes(gathered()[::-1])
        seq = run_experiment(CFG, labs=LABS)
        assert (csv_bytes(store, tmp_path / "sh.csv")
                == csv_bytes(seq.store, tmp_path / "seq.csv"))
        assert faults is None and snapshot is None

    def test_zero_row_shard_merges_cleanly(self):
        """A shard whose machines were never on contributes no row but
        still counts its machines' attempts."""
        outcomes = gathered()
        dark_ids = set(outcomes[1].gathered.owned.tolist())
        darken(outcomes[1])
        store, _, _ = merge_outcomes(outcomes)
        meta = store.meta
        assert len(store) > 0
        assert not {s.machine_id for s in store.samples()} & dark_ids
        assert meta.n_machines == sum(lab.n_machines for lab in LABS)
        assert meta.attempts == meta.iterations_run * meta.n_machines
        assert meta.timeouts == meta.attempts - len(store)

    def test_returns_the_plan_the_pass_ran_with(self):
        """Workers ship the pristine plan; the parent's pass fills its
        ledger, once."""
        plan = FaultPlan([StdoutCorruption(0.05)], seed=3)
        outcomes = gathered(faults=plan, strict_postcollect=False)
        shipped = outcomes[0].gathered.faults
        assert not shipped.injected
        store, faults, _ = merge_outcomes(outcomes)
        assert faults is shipped
        seq = run_experiment(CFG, labs=LABS, strict_postcollect=False,
                             faults=FaultPlan([StdoutCorruption(0.05)],
                                              seed=3))
        assert dict(faults.injected) == dict(seq.faults.injected)
        assert faults.injected["corruption"] > 0
        assert store.meta.parse_failures == seq.meta.parse_failures

    def test_broken_accounting_identity_raises(self, monkeypatch):
        import repro.shard.merge as merge_mod

        original = merge_mod.collect_gathered

        def lose_an_attempt(outcomes, **kwargs):
            store = original(outcomes, **kwargs)
            store.meta.attempts -= 1
            return store

        monkeypatch.setattr(merge_mod, "collect_gathered", lose_an_attempt)
        with pytest.raises(TraceFormatError, match="accounting identity"):
            merge_outcomes(gathered())

    def test_disagreeing_fault_ledgers_raise(self):
        """Every shard ships the task's plan; ledgers that disagree mean
        the shards did not run one task."""
        plan_a, plan_b = FaultPlan(seed=1), FaultPlan(seed=1)
        plan_a.injected["machine_crash"] = 3
        plan_b.injected["machine_crash"] = 2
        outcomes = gathered()
        outcomes[0].gathered.faults = plan_a
        outcomes[1].gathered.faults = plan_b
        with pytest.raises(TraceFormatError, match="fault plan"):
            merge_outcomes(outcomes)

    def test_mixed_instrumentation_rejected(self):
        outcomes = gathered()
        outcomes[0].snapshot = ObsSnapshot(metrics=[])
        with pytest.raises(TraceFormatError, match="uniform"):
            merge_outcomes(outcomes)

    def test_zero_outcomes_rejected(self):
        with pytest.raises(TraceFormatError, match="zero"):
            merge_outcomes([])


class TestObsSnapshotMerge:
    """Snapshots of one run's processes merge by metric kind."""

    def counter_row(self, name, value, **labels):
        return {"kind": "counter", "name": name,
                "labels": {k: str(v) for k, v in labels.items()},
                "value": value}

    def gauge_row(self, name, value, **labels):
        return {"kind": "gauge", "name": name,
                "labels": {k: str(v) for k, v in labels.items()},
                "value": value}

    def hist_row(self, name, counts, total, **labels):
        return {"kind": "histogram", "name": name,
                "labels": {k: str(v) for k, v in labels.items()},
                "edges": [1.0, 2.0], "counts": counts,
                "count": sum(counts), "total": total,
                "min": 0.5 if sum(counts) else None,
                "max": 1.5 if sum(counts) else None}

    def span(self, name, start):
        return {"name": name, "start": start, "end": start + 1.0,
                "depth": 0, "seq": 0, "labels": {}}

    def test_rejects_empty(self):
        with pytest.raises(SnapshotFormatError):
            ObsSnapshot.merge([])

    def test_sum_max_and_first_policies(self):
        """Counters sum, gauges take the maximum, and the event
        sampling rate is the first snapshot's."""
        a = ObsSnapshot(metrics=[
            self.counter_row("ddc.samples", 10, lab="L01"),
            self.counter_row("sim.events_fired", 500),
            self.gauge_row("sim.heap_depth_max", 40),
            self.gauge_row("experiment.phase_seconds", 2.0, phase="simulate"),
        ], event_sample_every=4)
        b = ObsSnapshot(metrics=[
            self.counter_row("ddc.samples", 7, lab="L01"),
            self.counter_row("ddc.samples", 3, lab="L02"),
            self.counter_row("sim.events_fired", 300),
            self.gauge_row("sim.heap_depth_max", 25),
            self.gauge_row("experiment.phase_seconds", 3.5, phase="simulate"),
        ], event_sample_every=8)
        m = ObsSnapshot.merge([a, b])
        assert m.counter_by_label("ddc.samples", "lab") == {
            "L01": 17, "L02": 3}
        # each process counted its own engine's events
        assert m.counter_total("sim.events_fired") == 800
        assert m.gauge_value("sim.heap_depth_max") == 40
        assert m.gauge_value("experiment.phase_seconds",
                             phase="simulate") == 3.5
        assert m.event_sample_every == 4

    def test_histogram_sum_merges_buckets_and_aggregates(self):
        a = ObsSnapshot(metrics=[self.hist_row("ddc.lab_pass_seconds",
                                               [2, 1], 3.5, lab="L01")])
        b = ObsSnapshot(metrics=[self.hist_row("ddc.lab_pass_seconds",
                                               [1, 4], 6.0, lab="L01")])
        m = ObsSnapshot.merge([a, b])
        (row,) = m.histograms("ddc.lab_pass_seconds")
        assert row["counts"] == [3, 5]
        assert row["count"] == 8
        assert row["total"] == 9.5

    def test_spans_and_events_concatenate_in_order(self):
        workers = [ObsSnapshot(events=[{"time": 0.0, "seq": 1, "name": "w"}],
                               events_seen=64, events_dropped=1),
                   ObsSnapshot(spans=[self.span("recovery.checkpoint", 7.0)],
                               events_seen=32)]
        parent = ObsSnapshot(spans=[self.span("ddc.iteration", 0.0),
                                    self.span("ddc.iteration", 900.0)],
                             spans_dropped=2)
        m = ObsSnapshot.merge([*workers, parent])
        assert [(s["name"], s["start"]) for s in m.spans] == [
            ("recovery.checkpoint", 7.0), ("ddc.iteration", 0.0),
            ("ddc.iteration", 900.0)]
        assert m.events == workers[0].events
        assert (m.events_seen, m.events_dropped, m.spans_dropped) == (96, 1, 2)

    def test_merge_does_not_mutate_inputs(self):
        a = ObsSnapshot(metrics=[self.hist_row("h", [1, 1], 2.0, lab="L01")])
        b = ObsSnapshot(metrics=[self.hist_row("h", [2, 2], 4.0, lab="L01")])
        before = [dict(r, counts=list(r["counts"])) for r in a.metrics]
        ObsSnapshot.merge([a, b])
        assert [dict(r, counts=list(r["counts"])) for r in a.metrics] == before

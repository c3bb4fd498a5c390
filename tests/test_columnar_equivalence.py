"""Golden-trace equivalence of the columnar probing kernel.

The contract from docs/columnar.md: a run with ``kernel="columnar"``
produces **byte-identical** exported traces and an equal
:class:`~repro.traces.records.TraceMeta` to the per-object path -- and
``kernel="auto"`` (the default) silently falls back to the object pass
whenever a run carries hooks the vectorised pass does not replicate
(faults, resilience, observers, retries).

Four configurations are pinned here, mirroring the shard-equivalence
suite: the plain paper roster, the fault+resilience config of
``tests/shard/test_equivalence.py``, shard counts {1, 2}, and
crash-safe runs, whose journals must not depend on the kernel.
"""

import dataclasses

import pytest

from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.faults.scenarios import paper_like_plan
from repro.obs.observer import Observer
from repro.recovery import RecoveryConfig, shard_dir
from repro.recovery.crashtest import result_fingerprint
from repro.resilience.policy import ResiliencePolicy

#: TraceMeta accounting fields that must agree across kernels.
META_FIELDS = ("n_machines", "attempts", "timeouts", "access_denied",
               "samples_collected", "iterations_scheduled", "iterations_run")


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def object_run(tmp_path_factory):
    """The per-object reference run (days=1, the paper's 169 machines)."""
    cfg = ExperimentConfig(days=1, seed=11, kernel="object")
    result = run_experiment(cfg)
    path = tmp_path_factory.mktemp("obj") / "trace.csv"
    return cfg, result, csv_bytes(result.store, path)


@pytest.fixture(scope="module")
def columnar_run(object_run, tmp_path_factory):
    cfg = object_run[0].replace(kernel="columnar")
    result = run_experiment(cfg)
    path = tmp_path_factory.mktemp("col") / "trace.csv"
    return result, csv_bytes(result.store, path)


class TestPlainEquivalence:
    def test_columnar_kernel_really_engaged(self, columnar_run):
        result, _ = columnar_run
        assert result.coordinator._cols is not None

    def test_csv_byte_identical(self, object_run, columnar_run):
        assert columnar_run[1] == object_run[2]

    def test_meta_equal(self, object_run, columnar_run):
        obj_meta = object_run[1].meta
        col_meta = columnar_run[0].meta
        for name in META_FIELDS:
            assert getattr(col_meta, name) == getattr(obj_meta, name), name
        assert col_meta.statics == obj_meta.statics

    def test_iteration_schedule_identical(self, object_run, columnar_run):
        # Pass durations feed the next iteration's scheduling; they must
        # match draw for draw or later samples would drift in time.
        obj = object_run[1].coordinator.iteration_durations
        col = columnar_run[0].coordinator.iteration_durations
        assert col == obj

    def test_auto_picks_columnar_on_plain_runs(self, object_run, tmp_path):
        cfg = object_run[0].replace(kernel="auto")
        result = run_experiment(cfg)
        assert result.coordinator._cols is not None
        assert csv_bytes(result.store, tmp_path / "auto.csv") == object_run[2]


class TestFaultResilienceEquivalence:
    """Hooked runs are columnar-ineligible; auto must fall back exactly."""

    def make(self):
        cfg = ExperimentConfig(days=1, seed=17)
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, resilience=ResiliencePolicy(), retry_limit=2))
        return cfg, paper_like_plan(cfg.horizon, labs=("L03",), seed=99)

    def test_auto_equals_object_under_faults(self, tmp_path):
        cfg, plan = self.make()
        auto = run_experiment(cfg, faults=plan, strict_postcollect=False,
                              observer=Observer())
        assert auto.coordinator._cols is None  # fell back
        assert auto.meta.retries > 0

        cfg2, plan2 = self.make()
        obj = run_experiment(cfg2.replace(kernel="object"), faults=plan2,
                             strict_postcollect=False, observer=Observer())
        assert (csv_bytes(auto.store, tmp_path / "auto.csv")
                == csv_bytes(obj.store, tmp_path / "obj.csv"))
        for name in META_FIELDS + ("shed", "breaker_skipped", "retries"):
            assert getattr(auto.meta, name) == getattr(obj.meta, name), name

    def test_requesting_columnar_raises_with_reason(self):
        cfg, plan = self.make()
        with pytest.raises(ValueError, match="ineligible"):
            run_experiment(cfg.replace(kernel="columnar"), faults=plan,
                           strict_postcollect=False)

    def test_ineligibility_reasons_are_reported(self, object_run):
        # The object run's coordinator is hook-free, hence eligible; each
        # hook toggled on it must surface a human-readable reason, and
        # enable_columnar must refuse while any is present.
        from repro.sim.kernel import FleetColumns

        coordinator = object_run[1].coordinator
        assert coordinator.columnar_ineligibility() is None

        for attr, value, fragment in (
            ("faults", object(), "fault plan"),
            ("resilience", ResiliencePolicy(), "resilience"),
        ):
            saved = getattr(coordinator, attr)
            setattr(coordinator, attr, value)
            try:
                reason = coordinator.columnar_ineligibility()
                assert reason is not None and fragment in reason, attr
                with pytest.raises(ValueError, match="ineligible"):
                    coordinator.enable_columnar(
                        FleetColumns(coordinator.machines))
            finally:
                setattr(coordinator, attr, saved)

        saved = coordinator.params
        coordinator.params = dataclasses.replace(saved, retry_limit=2)
        try:
            assert "retries" in coordinator.columnar_ineligibility()
        finally:
            coordinator.params = saved
        assert coordinator.columnar_ineligibility() is None

    def test_mirror_size_mismatch_rejected(self, object_run):
        from repro.sim.kernel import FleetColumns

        coordinator = object_run[1].coordinator
        with pytest.raises(ValueError, match="roster"):
            coordinator.enable_columnar(
                FleetColumns(coordinator.machines[:5]))


class TestShardEquivalence:
    def test_columnar_equals_two_shard_merge(self, object_run, tmp_path):
        cfg, _, obj_csv = object_run
        sharded = run_experiment(cfg.replace(kernel="auto"), shards=2)
        assert csv_bytes(sharded.store, tmp_path / "sh2.csv") == obj_csv

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_columnar_shard_merge_byte_identical(
        self, object_run, tmp_path, n_shards
    ):
        # The lifted exclusivity: kernel="columnar" composes with shards.
        # Every worker draws the full roster (cursor chain and "ddc"
        # stream replicated exactly) and materialises its owned slice, so
        # the merge is byte-identical to the sequential object run.
        cfg, _, obj_csv = object_run
        sharded = run_experiment(cfg.replace(kernel="columnar"),
                                 shards=n_shards)
        path = tmp_path / f"col{n_shards}.csv"
        assert csv_bytes(sharded.store, path) == obj_csv

    def test_sharded_coordinator_is_columnar_eligible(self):
        # A single owned-labs shard, run in-process, must really engage
        # the columnar pass (no silent object-path shadowing).
        from repro.shard.plan import ShardPlan
        from repro.shard.worker import ShardTask, run_shard

        from repro.machines.hardware import TABLE1_LABS

        cfg = ExperimentConfig(days=1, seed=11, kernel="columnar")
        plan = ShardPlan.build(TABLE1_LABS, 2)
        outcome = run_shard(ShardTask(config=cfg, shard=plan.specs[0],
                                      labs=tuple(TABLE1_LABS)))
        assert outcome.coordinator._cols is not None
        assert outcome.coordinator.owned_labs is not None

    def test_multi_day_sweep_tie_equivalence(self, tmp_path):
        # Closing-staff sweeps land on the tick grid (04:00 is a
        # multiple of the 900s sample period).  A behavioural event
        # clamped to closing time ties with the sweep instant, and on
        # the flat heap the sweep (scheduled at fleet start) fires
        # first; the tick backend must preserve that ordering via its
        # half-open advance.  Seed 2005 hits such a tie at the day-2
        # sweep -- a one-day run never sees it.
        cfg = ExperimentConfig(days=2, seed=2005, kernel="object")
        obj = run_experiment(cfg, collect_nbench=False)
        col = run_experiment(cfg.replace(kernel="columnar"),
                             collect_nbench=False)
        assert col.coordinator._cols is not None
        assert (csv_bytes(col.store, tmp_path / "c.csv")
                == csv_bytes(obj.store, tmp_path / "o.csv"))

    def test_observer_run_falls_back(self, object_run, tmp_path):
        cfg, _, obj_csv = object_run
        result = run_experiment(cfg.replace(kernel="auto"),
                                observer=Observer())
        assert result.coordinator._cols is None
        assert csv_bytes(result.store, tmp_path / "o.csv") == obj_csv


#: A crash-safe run of the paper roster, long enough to rotate segments.
JOURNALED = ExperimentConfig(days=2, seed=2005)


def segments(run_dir):
    """A run directory's journal segments, by file name."""
    return {p.name: p.read_bytes()
            for p in (run_dir / "journal").glob("segment-*.jsonl")}


def deltas(run_dir):
    """A run directory's checkpoint row deltas, by file name."""
    return {p.name: p.read_bytes()
            for p in (run_dir / "checkpoints").glob("delta-*.delta")}


def checkpoint_names(run_dir):
    return sorted(p.name for p in (run_dir / "checkpoints").iterdir())


@pytest.fixture(scope="module")
def journaled_runs(tmp_path_factory):
    """``kernel -> (result, run_dir)`` for one crash-safe run per kernel."""
    root = tmp_path_factory.mktemp("journaled")
    runs = {}
    for kernel in ("object", "columnar"):
        run_dir = root / kernel
        result = run_experiment(
            JOURNALED.replace(kernel=kernel),
            recovery=RecoveryConfig(run_dir, fsync=False))
        runs[kernel] = (result, run_dir)
    return runs


class TestJournalEquivalence:
    """The columnar pass journals the object pass's bytes."""

    def test_each_kernel_ran_its_own_pass(self, journaled_runs):
        assert journaled_runs["object"][0].coordinator._cols is None
        assert journaled_runs["columnar"][0].coordinator._cols is not None

    def test_journal_segments_byte_identical(self, journaled_runs):
        obj = segments(journaled_runs["object"][1])
        col = segments(journaled_runs["columnar"][1])
        assert len(obj) > 1  # rotation is covered
        assert col.keys() == obj.keys()
        for name in obj:
            assert col[name] == obj[name], name

    def test_result_fingerprint_equal(self, journaled_runs):
        assert (result_fingerprint(journaled_runs["columnar"][0])
                == result_fingerprint(journaled_runs["object"][0]))

    def test_recovery_counters_equal(self, journaled_runs):
        obj = dataclasses.asdict(journaled_runs["object"][0].recovery)
        col = dataclasses.asdict(journaled_runs["columnar"][0].recovery)
        assert obj.pop("run_dir") != col.pop("run_dir")
        assert col == obj
        assert col["samples_journaled"] == len(
            journaled_runs["columnar"][0].store)

    def test_checkpoint_names_equal(self, journaled_runs):
        obj = checkpoint_names(journaled_runs["object"][1])
        assert obj
        assert checkpoint_names(journaled_runs["columnar"][1]) == obj

    def test_checkpoint_deltas_byte_identical(self, journaled_runs):
        obj = deltas(journaled_runs["object"][1])
        col = deltas(journaled_runs["columnar"][1])
        assert len(obj) > 1
        assert col == obj

    def test_period_inference_stops_at_second_marker(self, journaled_runs,
                                                     monkeypatch):
        """Replay infers the sample period from the first two iteration
        markers without decoding the rest of the journal."""
        import repro.recovery.journal as journal

        from repro.live.replay import infer_sample_period

        decode = journal.decode_line
        calls = []

        def counting(line):
            calls.append(line)
            return decode(line)

        monkeypatch.setattr(journal, "decode_line", counting)
        run_dir = journaled_runs["columnar"][1]
        assert infer_sample_period(run_dir / "journal") == 900.0
        assert 0 < len(calls) < RecoveryConfig(run_dir).segment_records

    def test_two_shard_campaign_journals_byte_identical(self, tmp_path):
        results = {}
        for kernel in ("object", "columnar"):
            results[kernel] = run_experiment(
                JOURNALED.replace(kernel=kernel), shards=2,
                recovery=RecoveryConfig(tmp_path / kernel, fsync=False))
        assert (result_fingerprint(results["columnar"])
                == result_fingerprint(results["object"]))
        for k in range(2):
            obj = segments(shard_dir(tmp_path / "object", k))
            col = segments(shard_dir(tmp_path / "columnar", k))
            assert obj and col.keys() == obj.keys(), k
            for name in obj:
                assert col[name] == obj[name], (k, name)
            assert (checkpoint_names(shard_dir(tmp_path / "columnar", k))
                    == checkpoint_names(shard_dir(tmp_path / "object", k)))

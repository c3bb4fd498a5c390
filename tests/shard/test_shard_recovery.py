"""Chaos differential for campaigns on forked local workers.

The pinned tentpole guarantee: ``resume(kill_worker(run))`` is
byte-identical to the uninterrupted run -- merged CSV, TraceMeta
counters, fault ledger and RNG-driven sample values (all folded into
:func:`~repro.recovery.crashtest.result_fingerprint`) -- for shard
counts 2 and 4 at structurally distinct kill points, and the healthy
shards are **never** regranted.  ``python -m repro.shard.smoke``
re-checks the same differential at days=2 in CI's
``shard-recovery-chaos`` job; here the runs stay short enough for the
tier-1 suite.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.config import ExperimentConfig
from repro.errors import CampaignStopped, CheckpointError, ShardWorkerError
from repro.experiment import run_experiment
from repro.machines.hardware import TABLE1_LABS
from repro.obs import health
from repro.recovery.checkpoint import config_digest
from repro.recovery.crashtest import CrashSpec, result_fingerprint
from repro.recovery.manifest import (
    MANIFEST_VERSION,
    CampaignManifest,
    write_campaign_state,
)
from repro.recovery.runtime import CRASH_POINTS, RecoveryConfig, shard_dir
from repro.recovery.smoke import derive_kill_iteration
from repro.report.recovery import recovery_status
from repro.shard.coordinator import CampaignCoordinator, CampaignPolicy
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask

CFG = ExperimentConfig(days=1, seed=23)

#: Chaos-shaped coordination: instant regrants, real liveness deadlines.
CHAOS = CampaignPolicy(max_regrants=2, backoff_base=0.01, backoff_cap=0.05)

#: No regrant budget: the first worker failure fails the campaign.
NO_REGRANTS = CampaignPolicy(max_regrants=0)


def csv_bytes(store, path):
    store.write_csv(path)
    return path.read_bytes()


def chaos_recovery(run_dir, point, victim):
    """A campaign recovery config that kills ``victim`` at ``point``."""
    return RecoveryConfig(
        run_dir=run_dir, fsync=False,
        crash_at=CrashSpec(derive_kill_iteration(CFG), point),
        crash_shard=victim,
    )


def _kill_worker(monkeypatch, shard, marker=None):
    """Make the forked worker of ``shard`` exit before it runs anything:
    every time, or only until ``marker`` exists."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork so children inherit the patched entry")
    import repro.shard.net.worker as worker_mod

    real_execute = worker_mod.execute_shard_task

    def die(task, **kwargs):
        if task.shard.index == shard and (
                marker is None or not marker.exists()):
            if marker is not None:
                marker.touch()
            os._exit(1)
        return real_execute(task, **kwargs)

    monkeypatch.setattr(worker_mod, "execute_shard_task", die)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted sequential run: the differential's ground truth."""
    result = run_experiment(CFG)
    path = tmp_path_factory.mktemp("base") / "trace.csv"
    return result, csv_bytes(result.store, path), result_fingerprint(result)


class TestKilledWorkerRestart:
    """The victim's shard is regranted; everything merges identically."""

    @pytest.mark.parametrize("shards,victim", [(2, 1), (4, 2)])
    @pytest.mark.parametrize("point", ["mid_iteration", "post_checkpoint"])
    def test_restart_merges_byte_identically(self, baseline, tmp_path,
                                             shards, victim, point):
        _, base_csv, base_fp = baseline
        rcfg = chaos_recovery(tmp_path / "camp", point, victim)
        result = run_experiment(CFG, shards=shards, recovery=rcfg,
                                supervise=CHAOS)
        assert csv_bytes(result.store, tmp_path / "merged.csv") == base_csv
        assert result_fingerprint(result) == base_fp
        report = result.campaign
        assert report.restarts[victim] == 1
        # The healthy shards were never restarted -- per-shard recovery
        # means a crash stays local to its shard.
        assert all(n == 0 for k, n in report.restarts.items()
                   if k != victim), report.restarts
        assert set(report.states.values()) == {health.DONE}
        manifest = CampaignManifest.load(rcfg.run_dir)
        assert manifest.state == "merged"
        # the watermark is the last iteration *index* every shard passed
        assert manifest.merge_watermark == result.meta.iterations_scheduled - 1
        assert manifest.shards[victim].restarts == 1

    def test_restart_with_faults_keeps_the_ledger(self, tmp_path):
        """One shard resumed mid-plan, the others not: ledgers agree."""
        from repro.faults.scenarios import paper_like_plan

        def make_plan():
            return paper_like_plan(CFG.horizon, labs=("L03",), seed=99)

        seq = run_experiment(CFG, faults=make_plan(),
                             strict_postcollect=False)
        seq_csv = csv_bytes(seq.store, tmp_path / "seq.csv")

        rcfg = chaos_recovery(tmp_path / "camp", "post_checkpoint", 0)
        sharded = run_experiment(CFG, shards=2, recovery=rcfg,
                                 supervise=CHAOS, faults=make_plan(),
                                 strict_postcollect=False)
        assert csv_bytes(sharded.store, tmp_path / "sh.csv") == seq_csv
        assert dict(sharded.faults.injected) == dict(seq.faults.injected)
        assert sharded.campaign.restarts == {0: 1, 1: 0}

    def test_hard_killed_worker_is_replaced(self, baseline, tmp_path,
                                            monkeypatch):
        """A worker process that dies outright, with no Failure report
        and no outcome, surfaces as EOF; its shard is regranted."""
        _, base_csv, _ = baseline
        victim = 1
        marker = tmp_path / "killed-once"
        _kill_worker(monkeypatch, victim, marker)
        result = run_experiment(
            CFG, shards=2, supervise=CHAOS,
            recovery=RecoveryConfig(run_dir=tmp_path / "camp", fsync=False))
        assert marker.exists()
        assert csv_bytes(result.store, tmp_path / "merged.csv") == base_csv
        assert result.campaign.restarts == {victim: 1, 1 - victim: 0}
        assert set(result.campaign.states.values()) == {health.DONE}


class TestExhaustedBudgetAndResume:
    """A zero-regrant campaign fails typed and loud -- then resumes."""

    def test_failure_is_typed_and_resume_completes(self, baseline,
                                                   tmp_path):
        _, base_csv, base_fp = baseline
        rcfg = chaos_recovery(tmp_path / "camp", "mid_iteration", 0)
        with pytest.raises(ShardWorkerError) as ei:
            run_experiment(CFG, shards=2, recovery=rcfg,
                           supervise=NO_REGRANTS)
        err = ei.value
        assert err.shard_index == 0
        assert err.restarts == 0
        assert err.last_iteration >= -1
        assert err.last_heartbeat is not None
        assert "resumable" in str(err)
        assert CampaignManifest.load(rcfg.run_dir).state == "failed"

        resumed = run_experiment(resume_from=rcfg.run_dir)
        assert csv_bytes(resumed.store, tmp_path / "res.csv") == base_csv
        assert result_fingerprint(resumed) == base_fp
        manifest = CampaignManifest.load(rcfg.run_dir)
        assert manifest.state == "merged"
        assert all(s.completed for s in manifest.shards.values())


class TestGatheredCrashSafety:
    """Crash safety per shard: a campaign worker journals the pass
    inputs it records and checkpoints its own labs' fleet, so every
    kill point resumes warm from the shard's own checkpoint."""

    #: Checkpoints fall at iterations 7, 15, 23, ...: every kill point
    #: at iteration 20 resumes from 15.
    KILL = 20

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_kill_point_resumes_warm(self, baseline, tmp_path, point):
        _, _, base_fp = baseline
        rcfg = RecoveryConfig(run_dir=tmp_path / "camp", fsync=False,
                              crash_at=CrashSpec(self.KILL, point),
                              crash_shard=1)
        result = run_experiment(CFG, shards=2, recovery=rcfg,
                                supervise=CHAOS)
        assert result_fingerprint(result) == base_fp
        assert result.campaign.restarts == {0: 0, 1: 1}
        info = result.campaign.recovery[1]
        assert not info.cold_restart
        assert info.resumed_from_iteration == 15
        assert info.replay_verified >= self.KILL - 16
        assert info.replay_divergences == 0

    def test_missing_input_record_cold_restarts(self, baseline, tmp_path):
        """A journal that lost a record below the checkpoint cannot
        refill the revived recorder: the shard cold-restarts, verified
        against every surviving record, to the same bytes."""
        _, base_csv, base_fp = baseline
        rcfg = RecoveryConfig(run_dir=tmp_path / "camp", fsync=False,
                              segment_records=512,
                              crash_at=CrashSpec(60, "post_checkpoint"),
                              crash_shard=1)
        with pytest.raises(ShardWorkerError):
            run_experiment(CFG, shards=2, recovery=rcfg,
                           supervise=NO_REGRANTS)
        journal = shard_dir(rcfg.run_dir, 1) / "journal"
        first = sorted(journal.glob("segment-*.jsonl"))[0]
        lines = first.read_text().splitlines(keepends=True)
        assert '"kind":"gather"' in lines[4] and '"k":3,' in lines[4]
        del lines[4]  # instant 3's record (line 0 is the head)
        first.write_text("".join(lines))
        resumed = run_experiment(resume_from=rcfg.run_dir)
        assert csv_bytes(resumed.store, tmp_path / "res.csv") == base_csv
        assert result_fingerprint(resumed) == base_fp
        info = resumed.campaign.recovery[1]
        assert info.cold_restart
        assert info.replay_verified > 0 and info.replay_divergences == 0
        assert [e["reason"] for e in info.quarantine_entries] == ["bad_seal"]


class TestManifestVersion:
    def test_full_replay_campaign_refused_before_anything_moves(
            self, tmp_path, capsys):
        """A version-1 directory's shards checkpointed coordinator and
        store; resuming one is refused, by the API and the CLI, with
        every file left as it was."""
        rcfg = chaos_recovery(tmp_path / "camp", "post_checkpoint", 0)
        with pytest.raises(ShardWorkerError):
            run_experiment(CFG, shards=2, recovery=rcfg,
                           supervise=NO_REGRANTS)
        path = rcfg.run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        path.write_text(json.dumps(manifest))
        tree = {p: p.read_bytes() for p in sorted(rcfg.run_dir.rglob("*"))
                if p.is_file()}
        want = f"version 1; this build reads version {MANIFEST_VERSION}"
        with pytest.raises(CheckpointError, match=want):
            run_experiment(resume_from=rcfg.run_dir)
        assert cli_main(["run", "--resume", "--recover-dir",
                         str(rcfg.run_dir), "--out",
                         str(tmp_path / "t.csv")]) == 2
        assert want in capsys.readouterr().err
        assert cli_main(["recovery", str(rcfg.run_dir)]) == 2
        assert want in capsys.readouterr().err
        assert {p: p.read_bytes() for p in sorted(rcfg.run_dir.rglob("*"))
                if p.is_file()} == tree


@pytest.fixture(scope="module")
def gathered_campaign(tmp_path_factory):
    """A finished 2-shard recovery campaign directory."""
    run_dir = tmp_path_factory.mktemp("gathered") / "camp"
    run_experiment(CFG, shards=2,
                   recovery=RecoveryConfig(run_dir=run_dir, fsync=False))
    return run_dir


class TestInputJournalReaders:
    """A campaign shard's journal holds ``gather`` records: pass inputs,
    not trace rows."""

    def test_live_replay_refuses_an_input_journal(self, gathered_campaign,
                                                  tmp_path, capsys):
        out = tmp_path / "rollups.json"
        code = cli_main(["live", "--replay",
                         str(shard_dir(gathered_campaign, 0) / "journal"),
                         "--rollups-out", str(out)])
        assert code == 2
        assert "'gather' records" in capsys.readouterr().err
        assert not out.exists()

    def test_status_counts_input_records_as_iterations(self,
                                                       gathered_campaign):
        status = recovery_status(gathered_campaign)
        instants = CFG.horizon / CFG.ddc.sample_period
        for index in ("0", "1"):
            shard = status["shards"][index]
            assert sum(s["iterations"] for s in shard["segments"]) \
                == instants
            assert shard["samples_journaled"] == 0
            assert shard["inputs_journaled"] > 0


class TestSupervisedWithoutRecovery:
    def test_supervise_flag_matches_sequential(self, baseline, tmp_path):
        """A plain fan-out is a campaign: deterministic re-runs."""
        _, base_csv, _ = baseline
        result = run_experiment(CFG, shards=2)
        assert csv_bytes(result.store, tmp_path / "sup.csv") == base_csv
        assert result.campaign.total_restarts == 0
        assert result.campaign.run_dir is None


class TestPlainFanOutWorkerDeath:
    """A plain ``shards>1`` run survives a dead worker the way a
    campaign does: the shard re-runs from scratch on a new child."""

    def test_dead_worker_is_regranted(self, baseline, tmp_path,
                                      monkeypatch):
        _, base_csv, _ = baseline
        marker = tmp_path / "killed-once"
        _kill_worker(monkeypatch, 1, marker)
        result = run_experiment(CFG, shards=2)
        assert marker.exists()
        assert csv_bytes(result.store, tmp_path / "merged.csv") == base_csv
        assert result.campaign.restarts == {0: 0, 1: 1}
        assert set(result.campaign.states.values()) == {health.DONE}

    def test_exhausted_budget_names_the_shard(self, monkeypatch):
        _kill_worker(monkeypatch, 1)
        with pytest.raises(ShardWorkerError) as ei:
            run_experiment(CFG, shards=2, supervise=NO_REGRANTS)
        assert ei.value.shard_index == 1
        assert ei.value.last_heartbeat is not None
        assert ei.value.restarts == 0

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_supervise_is_a_type_error(self, flag):
        with pytest.raises(TypeError, match="campaign coordinator"):
            run_experiment(CFG, shards=2, supervise=flag)


def _manual_campaign(run_dir, shards):
    """Build manifest + campaign state + tasks the way run_experiment
    does, so a coordinator can be driven directly (steering needs the
    handle)."""
    plan = ShardPlan.build(TABLE1_LABS, shards)
    rcfg = RecoveryConfig(run_dir=run_dir, fsync=False)
    manifest = CampaignManifest.fresh(
        run_dir, config_digest=config_digest(CFG), plan=plan
    )
    manifest.write(run_dir)
    write_campaign_state(
        run_dir, config=CFG, labs=tuple(TABLE1_LABS), faults=None,
        collect_nbench=True, strict_postcollect=True, instrument=False,
    )
    tasks = [
        ShardTask(config=CFG, shard=spec, labs=tuple(TABLE1_LABS),
                  recovery=rcfg.for_shard(spec.index))
        for spec in plan.specs
    ]
    return manifest, tasks


def _await(predicate, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestSteering:
    """PAUSE / RESUME / STOP are honoured at iteration boundaries."""

    def test_pause_resume_stop_roundtrip(self, tmp_path):
        manifest, tasks = _manual_campaign(tmp_path / "camp", 2)
        coordinator = CampaignCoordinator(tasks, policy=CHAOS,
                                          manifest=manifest,
                                          run_dir=tmp_path / "camp")
        box = {}

        def drive():
            try:
                box["outcomes"] = coordinator.run()
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc

        t = threading.Thread(target=drive)
        t.start()
        try:
            running = lambda: (set(coordinator.states().values())
                               == {health.RUNNING})
            assert _await(running), coordinator.states()
            coordinator.pause()
            paused = lambda: (set(coordinator.states().values())
                              == {health.PAUSED})
            assert _await(paused), coordinator.states()
            coordinator.resume()
            assert _await(running), coordinator.states()
            coordinator.stop()
        finally:
            t.join(timeout=60)
        assert not t.is_alive()
        err = box.get("error")
        assert isinstance(err, CampaignStopped), box
        assert err.run_dir == tmp_path / "camp"
        assert set(err.last_iterations) == {0, 1}
        assert CampaignManifest.load(tmp_path / "camp").state == "stopped"

    def test_stopped_campaign_resumes_to_the_same_bytes(self, baseline,
                                                        tmp_path):
        _, base_csv, base_fp = baseline
        manifest, tasks = _manual_campaign(tmp_path / "camp", 2)
        coordinator = CampaignCoordinator(tasks, policy=CHAOS,
                                          manifest=manifest,
                                          run_dir=tmp_path / "camp")
        box = {}

        def drive():
            try:
                coordinator.run()
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc

        t = threading.Thread(target=drive)
        t.start()
        try:
            heartbeated = lambda: all(
                n > 0 for n in coordinator.report().heartbeats.values()
            )
            assert _await(heartbeated)
            coordinator.stop()
        finally:
            t.join(timeout=60)
        assert isinstance(box.get("error"), CampaignStopped)

        resumed = run_experiment(resume_from=tmp_path / "camp")
        assert csv_bytes(resumed.store, tmp_path / "res.csv") == base_csv
        assert result_fingerprint(resumed) == base_fp


class TestCampaignGuards:
    def test_crash_shard_out_of_range_rejected(self, tmp_path):
        rcfg = RecoveryConfig(run_dir=tmp_path / "camp", fsync=False,
                              crash_at=CrashSpec(10, "mid_iteration"),
                              crash_shard=7)
        with pytest.raises(ValueError, match="crash_shard"):
            run_experiment(CFG, shards=2, recovery=rcfg)

    def test_existing_campaign_dir_refused_without_resume(self, tmp_path):
        manifest, _ = _manual_campaign(tmp_path / "camp", 2)
        rcfg = RecoveryConfig(run_dir=tmp_path / "camp", fsync=False)
        with pytest.raises(CheckpointError, match="resume_from"):
            run_experiment(CFG, shards=2, recovery=rcfg)

    def test_resume_shard_count_must_match_manifest(self, tmp_path):
        rcfg = chaos_recovery(tmp_path / "camp", "mid_iteration", 0)
        with pytest.raises(ShardWorkerError):
            run_experiment(CFG, shards=2, recovery=rcfg,
                           supervise=NO_REGRANTS)
        with pytest.raises(CheckpointError, match="2 shards"):
            run_experiment(resume_from=rcfg.run_dir, shards=4)

    def test_resume_rejects_foreign_config(self, tmp_path):
        rcfg = chaos_recovery(tmp_path / "camp", "mid_iteration", 0)
        with pytest.raises(ShardWorkerError):
            run_experiment(CFG, shards=2, recovery=rcfg,
                           supervise=NO_REGRANTS)
        with pytest.raises(CheckpointError, match="digest"):
            run_experiment(ExperimentConfig(days=1, seed=99),
                           resume_from=rcfg.run_dir)

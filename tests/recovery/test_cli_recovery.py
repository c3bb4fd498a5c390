"""CLI, status report and smoke-check coverage for the recovery layer."""

import json
import shutil

import pytest

from repro.cli import build_parser, main
from repro.config import ExperimentConfig
from repro.errors import InjectedCrash
from repro.experiment import run_experiment
from repro.recovery import RecoveryConfig
from repro.recovery.runtime import CrashSpec
from repro.report.recovery import recovery_status, render_recovery_report


class TestParser:
    def test_run_recovery_flags(self):
        args = build_parser().parse_args(
            ["run", "--recover-dir", "rd", "--checkpoint-every", "4",
             "--resume"]
        )
        assert args.recover_dir == "rd"
        assert args.checkpoint_every == 4
        assert args.resume

    def test_recovery_subcommand(self):
        args = build_parser().parse_args(["recovery", "rd", "--json"])
        assert args.run_dir == "rd" and args.json


class TestRunCommand:
    def test_resume_needs_recover_dir(self, capsys):
        assert main(["run", "--resume"]) == 2
        assert "--recover-dir" in capsys.readouterr().err

    def test_crash_safe_run_and_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "rd"
        rc = main(["run", "--days", "1", "--seed", "4",
                   "--out", str(tmp_path / "a.csv"),
                   "--recover-dir", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovery:" in out and "checkpoints" in out
        rc = main(["run", "--days", "1", "--seed", "4",
                   "--out", str(tmp_path / "b.csv"),
                   "--recover-dir", str(run_dir), "--resume"])
        assert rc == 0
        assert "resumed from iteration" in capsys.readouterr().out
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_resume_with_empty_dir_cold_restarts(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        rc = main(["run", "--days", "1", "--seed", "4",
                   "--out", str(tmp_path / "t.csv"),
                   "--recover-dir", str(run_dir), "--resume"])
        assert rc == 0
        assert "cold restart" in capsys.readouterr().out


@pytest.fixture(scope="module")
def crashed_run_dir(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("crashed") / "run"
    rcfg = RecoveryConfig(
        run_dir=run_dir, checkpoint_every=8, fsync=False,
        crash_at=CrashSpec(iteration=40, point="mid_iteration"),
    )
    with pytest.raises(InjectedCrash):
        run_experiment(ExperimentConfig(days=1, seed=4), recovery=rcfg)
    return run_dir


class TestStatusReport:
    def test_status_of_crashed_run(self, crashed_run_dir):
        status = recovery_status(crashed_run_dir)
        assert status["latest_checkpoint"]["iteration"] == 39
        assert status["resumable"]
        # the journal holds every row the crashed run collected: the
        # crash tore the first pass after the checkpoint at iteration 39
        assert status["samples_journaled"] == \
            status["latest_checkpoint"]["rows"] > 0
        assert any(s["status"] in ("torn", "open")
                   for s in status["segments"])

    def test_status_is_read_only(self, crashed_run_dir):
        before = sorted(p.name for p in crashed_run_dir.rglob("*"))
        recovery_status(crashed_run_dir)
        render_recovery_report(crashed_run_dir)
        assert sorted(p.name for p in crashed_run_dir.rglob("*")) == before

    def test_render_mentions_resume_point(self, crashed_run_dir):
        text = render_recovery_report(crashed_run_dir)
        assert "resumable from iteration 39" in text
        assert "checkpoints" in text and "journal" in text

    def test_cli_recovery_text_and_json(self, crashed_run_dir, capsys):
        assert main(["recovery", str(crashed_run_dir)]) == 0
        assert "recovery status" in capsys.readouterr().out
        assert main(["recovery", str(crashed_run_dir), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["resumable"]

    def test_cli_recovery_missing_dir(self, capsys):
        assert main(["recovery", "/nonexistent/run"]) == 2
        assert "no such run directory" in capsys.readouterr().err


def flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestStatusReportDeltas:
    """The report lists deltas and trusts a checkpoint only with its chain."""

    def test_deltas_listed(self, crashed_run_dir, capsys):
        status = recovery_status(crashed_run_dir)
        assert [d["file"] for d in status["deltas"]] == [
            f"delta-{k:08d}.delta" for k in range(7, 40, 8)]
        assert all(d["status"] == "ok" for d in status["deltas"])
        assert status["deltas"][0]["start"] == 0
        for prev, nxt in zip(status["deltas"], status["deltas"][1:]):
            assert nxt["start"] == prev["stop"]
            assert nxt["link"] == prev["iteration"]
        assert status["deltas"][0]["link"] == -1
        assert [(c["iteration"], c["status"])
                for c in status["checkpoints"]] == [(31, "ok"), (39, "ok")]
        assert status["checkpoints"][1]["rows"] == status["deltas"][-1]["stop"]
        assert "delta-00000039.delta" in render_recovery_report(
            crashed_run_dir)
        assert main(["recovery", str(crashed_run_dir), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["deltas"]) == 5

    def test_damaged_newest_delta_moves_resume_point(self, crashed_run_dir,
                                                     tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(crashed_run_dir, run_dir)
        flip_last_byte(run_dir / "checkpoints" / "delta-00000039.delta")
        status = recovery_status(run_dir)
        assert status["deltas"][-1]["status"] == "corrupt"
        assert [c["status"] for c in status["checkpoints"]] == [
            "ok", "broken_chain"]
        assert status["latest_checkpoint"]["iteration"] == 31
        assert status["resumable"]
        assert "resumable from iteration 31" in render_recovery_report(run_dir)
        resumed = run_experiment(ExperimentConfig(days=1, seed=4),
                                 resume_from=run_dir)
        assert resumed.recovery.resumed_from_iteration == 31

    def test_delta_every_checkpoint_needs(self, crashed_run_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(crashed_run_dir, run_dir)
        flip_last_byte(run_dir / "checkpoints" / "delta-00000007.delta")
        status = recovery_status(run_dir)
        assert [c["status"] for c in status["checkpoints"]] == [
            "broken_chain", "broken_chain"]
        assert status["latest_checkpoint"] is None
        assert status["resumable"]  # the journal still supports a cold restart
        assert "resume would cold-restart" in render_recovery_report(run_dir)
        resumed = run_experiment(ExperimentConfig(days=1, seed=4),
                                 resume_from=run_dir)
        assert resumed.recovery.cold_restart


class TestSmoke:
    def test_smoke_single_point(self, tmp_path, capsys):
        from repro.recovery.smoke import main as smoke_main

        rc = smoke_main(["--days", "1", "--seed", "4",
                         "--work-dir", str(tmp_path / "wd"),
                         "--kill-points", "post_checkpoint"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS post_checkpoint" in out
        # passing runs clean up their evidence
        assert not (tmp_path / "wd" / "post_checkpoint").exists()

    def test_derived_kill_iteration_in_range(self):
        from repro.recovery.smoke import derive_kill_iteration

        for seed in (1, 2005, 999983):
            cfg = ExperimentConfig(days=2, seed=seed)
            k = derive_kill_iteration(cfg)
            assert 0 < k < int(cfg.horizon / cfg.ddc.sample_period)

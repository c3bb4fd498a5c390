"""Checkpoint row deltas: damage tolerance, crash residue and linear bytes.

A checkpoint holds the experiment graph without the trace store's rows;
each one writes a CRC-guarded delta with the rows added since the
previous one.  These tests crash a 1-day run, damage its deltas on disk
and resume, asserting the resumed run is bit-identical to the
uninterrupted one and that the damage is quarantined and explained --
the pattern of ``test_quarantine.py``.
"""

import pytest

from repro.config import ExperimentConfig
from repro.errors import CheckpointError, InjectedCrash
from repro.experiment import run_experiment
from repro.recovery import (
    KEEP_CHECKPOINTS,
    RecoveryConfig,
    fresh_runtime,
    run_dir_in_use,
)
from repro.recovery.crashtest import result_fingerprint
from repro.recovery.runtime import CrashSpec

CFG = ExperimentConfig(days=1, seed=13)

#: With checkpoint_every=8, a crash at iteration 60 leaves checkpoints
#: 7, 15, ..., 55 behind, of which the newest two are retained.
KILL = 60
RETAINED = (47, 55)


def crash_run(run_dir, point="mid_iteration"):
    """Run until an injected crash at ``KILL``; returns the config."""
    rcfg = RecoveryConfig(run_dir=run_dir, fsync=False,
                          crash_at=CrashSpec(iteration=KILL, point=point))
    with pytest.raises(InjectedCrash):
        run_experiment(CFG, recovery=rcfg)
    return rcfg


def names(directory, pattern):
    return sorted(p.name for p in directory.glob(pattern))


def flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # inside the payload: the CRC must catch it
    path.write_bytes(bytes(raw))


def reasons(result):
    return [e["reason"] for e in result.recovery.quarantine_entries]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """``(fingerprint, run_dir)`` of the uninterrupted crash-safe run."""
    run_dir = tmp_path_factory.mktemp("clean") / "run"
    result = run_experiment(CFG, recovery=RecoveryConfig(run_dir, fsync=False))
    return result_fingerprint(result), run_dir


def test_crash_leaves_two_checkpoints_and_every_delta(tmp_path):
    rcfg = crash_run(tmp_path / "run")
    ckpts = rcfg.checkpoint_dir
    assert names(ckpts, "ckpt-*.ckpt") == [
        f"ckpt-{k:08d}.ckpt" for k in RETAINED]
    assert names(ckpts, "delta-*.delta") == [
        f"delta-{k:08d}.delta" for k in range(7, KILL, 8)]


def test_flipped_newest_delta_falls_back_to_older_checkpoint(tmp_path,
                                                             clean):
    rcfg = crash_run(tmp_path / "run")
    flip_last_byte(rcfg.checkpoint_dir / "delta-00000055.delta")
    result = run_experiment(CFG, resume_from=tmp_path / "run")
    assert result_fingerprint(result) == clean[0]
    assert result.recovery.resumed_from_iteration == RETAINED[0]
    assert "bad_delta" in reasons(result)
    assert "broken_chain" in reasons(result)  # ckpt-55 needs that delta
    assert (tmp_path / "run" / "quarantine" / "delta-00000055.delta").exists()


def test_delta_both_checkpoints_need_forces_cold_restart(tmp_path, clean):
    rcfg = crash_run(tmp_path / "run")
    flip_last_byte(rcfg.checkpoint_dir / "delta-00000007.delta")
    result = run_experiment(CFG, resume_from=tmp_path / "run")
    assert result_fingerprint(result) == clean[0]
    assert result.recovery.cold_restart
    assert result.recovery.resumed_from_iteration is None
    assert reasons(result).count("broken_chain") == len(RETAINED)
    # the cold-restarted run rebuilt the ladder it lost
    assert names(rcfg.checkpoint_dir, "ckpt-*.ckpt") == names(
        clean[1] / "checkpoints", "ckpt-*.ckpt")


def test_stale_delta_tmp_is_swept(tmp_path, clean):
    rcfg = crash_run(tmp_path / "run")
    stale = rcfg.checkpoint_dir / "delta-00000063.tmp"
    stale.write_bytes(b'{"v": 2, "iteration": 63}\n\x00\x01')
    result = run_experiment(CFG, resume_from=tmp_path / "run")
    assert result_fingerprint(result) == clean[0]
    assert result.recovery.resumed_from_iteration == RETAINED[1]
    swept = [e for e in result.recovery.quarantine_entries
             if e["reason"] == "stale_checkpoint_tmp"]
    assert [e["file"] for e in swept] == [stale.name]


def test_delta_past_newest_checkpoint_is_ignored_then_overwritten(tmp_path,
                                                                  clean):
    # mid_checkpoint at 60 dies in the next checkpoint (63): its delta is
    # renamed into place, the checkpoint itself stays a staged .tmp.
    rcfg = crash_run(tmp_path / "run", point="mid_checkpoint")
    orphan = rcfg.checkpoint_dir / "delta-00000063.delta"
    assert orphan.exists()
    assert not (rcfg.checkpoint_dir / "ckpt-00000063.ckpt").exists()
    inode = orphan.stat().st_ino
    result = run_experiment(CFG, resume_from=tmp_path / "run")
    assert result_fingerprint(result) == clean[0]
    assert result.recovery.resumed_from_iteration == RETAINED[1]
    assert reasons(result) == ["stale_checkpoint_tmp"]
    assert orphan.stat().st_ino != inode  # rewritten by the resumed run
    assert orphan.read_bytes() == (
        clean[1] / "checkpoints" / orphan.name).read_bytes()


def test_checkpoint_bytes_grow_linearly(tmp_path):
    """Doubling the horizon no more than ~doubles the checkpoint bytes
    (re-pickling the whole store at every checkpoint, and keeping every
    checkpoint, made them grow ~4x)."""
    sizes = {}
    for days in (2, 4):
        run_dir = tmp_path / f"d{days}"
        run_experiment(ExperimentConfig(days=days, seed=2005),
                       recovery=RecoveryConfig(run_dir, fsync=False),
                       collect_nbench=False)
        ckpts = run_dir / "checkpoints"
        assert len(names(ckpts, "ckpt-*.ckpt")) == KEEP_CHECKPOINTS == 2
        sizes[days] = sum(p.stat().st_size for p in ckpts.iterdir())
    assert sizes[4] < 2.5 * sizes[2], sizes


class TestUsedRunDir:
    """A directory holding only deltas is a used run directory."""

    @pytest.fixture()
    def deltas_only(self, tmp_path, clean):
        rcfg = RecoveryConfig(run_dir=tmp_path / "run", fsync=False)
        rcfg.checkpoint_dir.mkdir(parents=True)
        delta = clean[1] / "checkpoints" / "delta-00000007.delta"
        (rcfg.checkpoint_dir / delta.name).write_bytes(delta.read_bytes())
        return rcfg

    def test_helper_sees_deltas(self, deltas_only, tmp_path):
        assert run_dir_in_use(deltas_only)
        assert not run_dir_in_use(RecoveryConfig(tmp_path / "fresh"))

    def test_fresh_run_refuses(self, deltas_only):
        with pytest.raises(CheckpointError, match="resume_from"):
            fresh_runtime(deltas_only)

    def test_campaign_refuses(self, deltas_only):
        with pytest.raises(CheckpointError, match="sequential run"):
            run_experiment(CFG, shards=2, recovery=deltas_only)
        assert not (deltas_only.run_dir / "manifest.json").exists()

"""The tentpole property: resume(crash(run)) == run, bit for bit.

Every kill point is exercised against the golden 3-day fixture
(``small_result``, the session-scoped run the analysis and golden-number
suites consume): the crashed-and-resumed run must produce a
:class:`MonitoringResult` whose fingerprint -- every sample, every
accounting counter, every static record including NBench indexes --
equals the fixture's exactly.

Each kill point runs under both kernels.  ``kernel="auto"`` takes the
columnar pass on a crash-safe run; ``kernel="object"`` keeps the
per-object pass covered.  ``iteration_start`` kills through a fault
plan, which keeps the object pass under either kernel.
"""

import pytest

from repro.config import ExperimentConfig
from repro.errors import CheckpointError, InjectedCrash, RecoveryError
from repro.experiment import run_experiment
from repro.recovery import CrashSpec, RecoveryConfig
from repro.recovery.crashtest import (
    ALL_KILL_POINTS,
    KillAtIteration,
    crash_and_resume,
    result_fingerprint,
)
from repro.recovery.smoke import derive_kill_iteration

#: The golden fixture's configuration (tests/conftest.py).
GOLDEN_CONFIG = ExperimentConfig(days=3, seed=11)


def runs_columnar(kill_point, kernel):
    """Whether a crash-safe run killed at ``kill_point`` probes columnar."""
    return kernel == "auto" and kill_point != "iteration_start"


@pytest.mark.parametrize("kill_point,kernel", [
    # The default kernel keeps the bare kill-point id.
    pytest.param(point, kernel,
                 id=point if kernel == "auto" else f"{point}-{kernel}")
    for kernel in ("auto", "object") for point in ALL_KILL_POINTS
])
def test_resume_equals_uninterrupted_run(kill_point, kernel, small_result,
                                         tmp_path):
    kill_iteration = derive_kill_iteration(GOLDEN_CONFIG)
    resumed = crash_and_resume(
        GOLDEN_CONFIG.replace(kernel=kernel), kill_point, kill_iteration,
        tmp_path / "run",
    )
    assert result_fingerprint(resumed) == result_fingerprint(small_result)
    # The resumed graph is the checkpointed one: its pass is the one the
    # crashed run took.
    assert ((resumed.coordinator._cols is not None)
            == runs_columnar(kill_point, kernel))
    info = resumed.recovery
    assert info is not None
    if kill_point == "mid_iteration":
        # the torn write is the crash's signature; it must be ledgered
        assert any(e["reason"] == "torn_tail"
                   for e in info.quarantine_entries)
    if info.resumed_from_iteration is not None:
        assert info.replay_verified > 0
        assert info.replay_divergences == 0


def test_recovery_layer_is_differentially_inert(small_result, tmp_path):
    """A journaled+checkpointed run leaves the trace bitwise untouched."""
    result = run_experiment(
        GOLDEN_CONFIG,
        recovery=RecoveryConfig(run_dir=tmp_path / "run", fsync=False),
    )
    assert result_fingerprint(result) == result_fingerprint(small_result)
    assert result.recovery.checkpoints_written > 0
    assert result.recovery.samples_journaled == len(result.store)


def test_resume_of_completed_run(tmp_path):
    cfg = ExperimentConfig(days=1, seed=5)
    # 10 does not divide the 96 iterations, so the last checkpoint (k=89)
    # leaves a journaled tail for the resume to re-verify.
    first = run_experiment(
        cfg, recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                     checkpoint_every=10, fsync=False),
    )
    again = run_experiment(cfg, resume_from=tmp_path / "run")
    assert result_fingerprint(again) == result_fingerprint(first)
    assert again.recovery.replay_verified > 0


def test_fresh_run_refuses_used_run_dir(tmp_path):
    cfg = ExperimentConfig(days=1, seed=5)
    rcfg = RecoveryConfig(run_dir=tmp_path / "run", fsync=False)
    run_experiment(cfg, recovery=rcfg)
    with pytest.raises(CheckpointError, match="resume_from"):
        run_experiment(cfg, recovery=rcfg)


def test_resume_rejects_config_mismatch(tmp_path):
    cfg = ExperimentConfig(days=1, seed=5)
    rcfg = RecoveryConfig(run_dir=tmp_path / "run",
                          crash_at=None, fsync=False)
    from repro.faults.plan import FaultPlan

    crashed = FaultPlan([KillAtIteration(40)])
    with pytest.raises(InjectedCrash):
        run_experiment(cfg, faults=crashed, recovery=rcfg)
    with pytest.raises(CheckpointError, match="digest"):
        run_experiment(ExperimentConfig(days=1, seed=6),
                       resume_from=tmp_path / "run")


def test_recovery_and_resume_are_mutually_exclusive(tmp_path):
    with pytest.raises(CheckpointError, match="not both"):
        run_experiment(
            ExperimentConfig(days=1, seed=5),
            recovery=RecoveryConfig(run_dir=tmp_path / "a"),
            resume_from=tmp_path / "b",
        )


def test_unreachable_kill_point_raises(tmp_path):
    with pytest.raises(RecoveryError, match="never fired"):
        crash_and_resume(ExperimentConfig(days=1, seed=5),
                         "iteration_start", 10_000, tmp_path / "run")


def test_cold_restart_without_checkpoint(tmp_path):
    """A crash before the first checkpoint resumes from iteration 0."""
    cfg = ExperimentConfig(days=1, seed=5)
    resumed = crash_and_resume(
        cfg, "iteration_start", 4, tmp_path / "run", checkpoint_every=50,
    )
    baseline = run_experiment(cfg)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)
    assert resumed.recovery.cold_restart
    assert resumed.recovery.replay_verified > 0
    # The crashed run carried the kill plan; the regenerated one does
    # not, so it probes columnar.
    assert resumed.coordinator._cols is not None


@pytest.mark.parametrize("kernel", ["object", "auto"])
def test_cold_restart_after_a_mid_iteration_crash(kernel, tmp_path):
    """A runtime crash point before the first checkpoint, both kernels."""
    cfg = ExperimentConfig(days=1, seed=5, kernel=kernel)
    resumed = crash_and_resume(
        cfg, "mid_iteration", 4, tmp_path / "run", checkpoint_every=50,
    )
    baseline = run_experiment(ExperimentConfig(days=1, seed=5))
    assert result_fingerprint(resumed) == result_fingerprint(baseline)
    assert resumed.recovery.cold_restart
    assert resumed.recovery.replay_verified > 0
    assert ((resumed.coordinator._cols is not None)
            == runs_columnar("mid_iteration", kernel))


def test_mid_iteration_crash_leaves_the_same_bytes_under_both_kernels(
        tmp_path):
    """The torn segment and the quarantine ledger do not name the kernel."""
    cfg = ExperimentConfig(days=1, seed=5)
    crash = CrashSpec(iteration=20, point="mid_iteration")
    left = {}
    for kernel in ("object", "columnar"):
        run_dir = tmp_path / kernel
        config = cfg.replace(kernel=kernel)
        with pytest.raises(InjectedCrash):
            run_experiment(config, collect_nbench=False,
                           recovery=RecoveryConfig(run_dir, crash_at=crash,
                                                   fsync=False))
        # retro_seal rewrites the torn segment on resume: read it first
        segments = {p.name: p.read_bytes()
                    for p in (run_dir / "journal").glob("segment-*.jsonl")}
        resumed = run_experiment(config, collect_nbench=False,
                                 resume_from=RecoveryConfig(run_dir,
                                                            fsync=False))
        assert (resumed.coordinator._cols is not None) == (
            kernel == "columnar")
        ledger = (run_dir / "quarantine" / "ledger.jsonl").read_bytes()
        left[kernel] = (segments, ledger, result_fingerprint(resumed))
    assert left["object"] == left["columnar"]
    segments, ledger, _ = left["columnar"]
    assert segments[max(segments)].endswith(b'{"crc":"dead')
    assert b'"torn_tail"' in ledger


def test_killed_scenario_disarms_on_pickle():
    import pickle

    k = KillAtIteration(7)
    assert k.armed
    revived = pickle.loads(pickle.dumps(k))
    assert not revived.armed
    # a disarmed scenario never fires
    assert revived.coordinator_down(0.0, 7, None) is False

"""Live driver lifecycle: pacing, stop, sealing, and engine stop flag."""

from __future__ import annotations

import time

import pytest

from repro.config import ExperimentConfig
from repro.errors import LiveError
from repro.experiment import run_experiment
from repro.live.config import LiveConfig
from repro.live.driver import LiveDriver
from repro.live.replay import batch_snapshot, replay_snapshot
from repro.recovery import RecoveryConfig
from repro.sim.engine import Simulator


class TestEngineStopFlag:
    def test_run_until_honours_stop_request(self):
        sim = Simulator()
        fired = []

        def cb(i):
            fired.append(i)
            if i == 2:
                sim.request_stop()

        for i in range(6):
            sim.schedule(float(i), cb, i)
        sim.run_until(10.0)
        # events after the stop boundary never fired and the clock sits
        # at the last fired event, not at the requested horizon
        assert fired == [0, 1, 2]
        assert sim.now == 2.0
        assert not sim.stop_requested  # consumed, not sticky

    def test_resumable_after_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.request_stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]
        sim.run_until(5.0)
        assert fired == [1, 2]
        assert sim.now == 5.0


class TestDriverLifecycle:
    def test_terminal_run_reports_progress(self, finished_run):
        d = finished_run.driver
        assert d.state == "terminal"
        assert d.done
        prog = d.progress()
        assert prog["state"] == "terminal"
        assert prog["sim_now"] == pytest.approx(prog["horizon"])
        assert prog["wall_seconds"] > 0
        assert prog["effective_rate"] > 0
        assert prog["rate"] is None  # the fixture runs unpaced

    def test_double_start_raises(self, finished_run):
        with pytest.raises(LiveError):
            finished_run.driver.start()

    def test_stop_seals_a_replayable_journal(self, tmp_path):
        # paced slowly enough that the run is mid-flight when stopped
        driver = LiveDriver(LiveConfig(
            run_dir=tmp_path, days=1, seed=7, machines=6,
            rate=4000.0, port=0,
        ))
        driver.start()
        deadline = time.monotonic() + 60.0
        while driver.sim_now < 1800.0:  # let two iterations land
            assert time.monotonic() < deadline, "driver made no progress"
            assert not driver.done, driver.error
            time.sleep(0.05)
        driver.stop()
        assert driver.join(60.0)
        assert driver.state == "stopped"
        assert driver.error is None
        assert driver.sim_now < driver.progress()["horizon"]
        # the interrupted journal is sealed: replay and batch agree on it
        assert replay_snapshot(driver.journal_dir) == batch_snapshot(
            driver.journal_dir
        )

    def test_stop_before_start_is_safe(self, tmp_path):
        driver = LiveDriver(LiveConfig(
            run_dir=tmp_path, days=1, seed=7, machines=6, port=0,
        ))
        driver.stop()  # no thread yet: must not raise
        assert driver.state == "idle"


class TestSameGraphAsBatch:
    def test_live_journal_equals_the_batch_runs(self, tmp_path):
        # Seed 900101 ties a forgotten logout with the 04:00 pass of
        # day 1, so the segments agree only when the live graph is the
        # one ``repro run --recover-dir`` builds.
        driver = LiveDriver(LiveConfig(
            run_dir=tmp_path / "live", days=2, seed=900101, rate=None,
            port=0, checkpoint_every=8,
        ))
        driver.start()
        assert driver.join(300.0), "driver did not finish"
        assert driver.error is None and driver.state == "terminal"
        assert driver.coordinator._cols is not None
        assert all(a.sim is driver.fleet._backend.env
                   for a in driver.fleet.agents)
        run_experiment(ExperimentConfig(days=2, seed=900101),
                       recovery=RecoveryConfig(tmp_path / "batch",
                                               checkpoint_every=8,
                                               fsync=False))
        live = sorted((tmp_path / "live" / "journal").glob("segment-*"))
        batch = sorted((tmp_path / "batch" / "journal").glob("segment-*"))
        assert live and [p.name for p in live] == [p.name for p in batch]
        for mine, theirs in zip(live, batch):
            assert mine.read_bytes() == theirs.read_bytes(), mine.name

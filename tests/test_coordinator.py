"""Integration tests for the DDC coordinator."""

import numpy as np
import pytest

from repro.config import DdcParams, ExperimentConfig
from repro.ddc.coordinator import DdcCoordinator
from repro.ddc.postcollect import SamplePostCollector
from repro.ddc.remote import Credentials
from repro.ddc.w32probe import W32Probe
from repro.machines.hardware import TABLE1_LABS, build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
from repro.sim.calendar import DAY
from repro.sim.engine import Simulator
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore


def _mini_fleet(n=5):
    machines = []
    for spec in build_fleet()[:n]:
        machines.append(
            SimMachine(spec, SmartDisk(spec.disk_serial, spec.disk_bytes),
                       base_disk_used_bytes=int(10e9))
        )
    return machines


def _coordinator(machines, sim, horizon, availability=1.0, store=None):
    params = DdcParams(coordinator_availability=availability)
    store = store or TraceStore(
        TraceMeta(n_machines=len(machines), sample_period=params.sample_period,
                  horizon=horizon)
    )
    post = SamplePostCollector(store)
    rng = np.random.Generator(np.random.PCG64(0))
    coord = DdcCoordinator(machines, sim, params, W32Probe(), post, rng,
                           horizon=horizon)
    return coord, store


class TestIterations:
    def test_iteration_count(self):
        sim = Simulator()
        machines = _mini_fleet()
        coord, _ = _coordinator(machines, sim, horizon=DAY)
        coord.start()
        sim.run_until(DAY)
        assert coord.iterations_scheduled == 96  # 24h / 15min

    def test_off_machines_only_produce_timeouts(self):
        sim = Simulator()
        machines = _mini_fleet()
        coord, store = _coordinator(machines, sim, horizon=3600.0)
        coord.start()
        sim.run_until(3600.0)
        assert coord.timeouts == coord.attempts
        assert len(store) == 0

    def test_on_machines_produce_samples(self):
        sim = Simulator()
        machines = _mini_fleet()
        for m in machines[:3]:
            m.boot(0.0)
        coord, store = _coordinator(machines, sim, horizon=3600.0)
        coord.start()
        sim.run_until(3600.0)
        assert coord.samples_collected == 4 * 3  # 4 iterations x 3 on
        assert len(store) == coord.samples_collected
        assert coord.response_rate == pytest.approx(3 / 5)

    def test_availability_drops_iterations(self):
        sim = Simulator()
        machines = _mini_fleet()
        coord, _ = _coordinator(machines, sim, horizon=10 * DAY, availability=0.5)
        coord.start()
        sim.run_until(10 * DAY)
        assert coord.iterations_run < coord.iterations_scheduled
        frac = coord.iterations_run / coord.iterations_scheduled
        assert frac == pytest.approx(0.5, abs=0.1)

    def test_sequential_collection_times_increase(self):
        sim = Simulator()
        machines = _mini_fleet()
        for m in machines:
            m.boot(0.0)
        coord, store = _coordinator(machines, sim, horizon=1000.0)
        coord.start()
        sim.run_until(1000.0)
        ts = [store.sample_at(i).t for i in range(5)]
        assert ts == sorted(ts)
        assert len(set(ts)) == 5  # strictly staggered

    def test_iteration_durations_recorded(self):
        sim = Simulator()
        machines = _mini_fleet()
        coord, _ = _coordinator(machines, sim, horizon=1000.0)
        coord.start()
        sim.run_until(1000.0)
        assert len(coord.iteration_durations) == coord.iterations_run
        # 5 off machines x 1.5 s timeout each
        assert coord.iteration_durations[0] == pytest.approx(7.5)

    def test_finalize_meta(self):
        sim = Simulator()
        machines = _mini_fleet()
        coord, store = _coordinator(machines, sim, horizon=3600.0)
        coord.start()
        sim.run_until(3600.0)
        meta = coord.finalize_meta(store.meta)
        assert meta.attempts == coord.attempts
        assert meta.iterations_run == coord.iterations_run
        assert meta.timeouts == coord.timeouts
        assert meta.access_denied == coord.access_denied
        assert meta.samples_collected == coord.samples_collected
        assert meta.parse_failures == coord.parse_failures
        assert meta.retries == coord.retries
        assert meta.retries_recovered == coord.retries_recovered

    def test_finalize_meta_copies_nonzero_denials_and_samples(self):
        # half the fleet on and answering, plus rejected credentials on
        # a second coordinator sharing the roster: both counters must
        # survive into the trace metadata (they used to be dropped).
        sim = Simulator()
        machines = _mini_fleet()
        for m in machines[:3]:
            m.boot(0.0)
        coord, store = _coordinator(machines, sim, horizon=3600.0)
        coord.credentials = Credentials.create("DDC\\collector", "wrong")
        coord.start()
        sim.run_until(3600.0)
        meta = coord.finalize_meta(store.meta)
        assert meta.access_denied == coord.access_denied == 4 * 3
        assert meta.samples_collected == coord.samples_collected == 0
        coord2, store2 = _coordinator(machines, Simulator(), horizon=3600.0)
        sim2 = coord2.sim
        coord2.start()
        sim2.run_until(3600.0)
        meta2 = coord2.finalize_meta(store2.meta)
        assert meta2.samples_collected == coord2.samples_collected == 4 * 3
        assert meta2.sample_rate == pytest.approx(3 / 5)

    def test_start_is_idempotent(self):
        sim = Simulator()
        coord, _ = _coordinator(_mini_fleet(), sim, horizon=3600.0)
        coord.start()
        coord.start()
        sim.run_until(3600.0)
        assert coord.iterations_scheduled == 4

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            _coordinator(_mini_fleet(), Simulator(), horizon=0.0)


class TestPaperScaleAccounting:
    def test_response_rate_in_full_run(self, small_result):
        coord = small_result.coordinator
        # 3 weekdays: machines are on roughly half to two-thirds of the time
        assert 0.3 < coord.response_rate < 0.8
        assert coord.attempts == coord.iterations_run * 169

    def test_iterations_match_availability(self, small_result):
        coord = small_result.coordinator
        cfg = small_result.config
        scheduled = int(cfg.horizon / cfg.ddc.sample_period)
        assert coord.iterations_scheduled == scheduled
        assert coord.iterations_run <= scheduled
        frac = coord.iterations_run / scheduled
        assert frac == pytest.approx(cfg.ddc.coordinator_availability, abs=0.05)

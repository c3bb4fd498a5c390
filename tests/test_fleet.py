"""Integration tests for the fleet simulator (ground-truth level)."""

import copy

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.machines.machine import SimMachine
from repro.sim.calendar import DAY, HOUR
from repro.sim.fleet import FleetSimulator
from repro.sim.workload import WorkloadModel


@pytest.fixture(scope="module")
def fleet_2d():
    fs = FleetSimulator(ExperimentConfig(days=2, seed=31))
    fs.run()
    return fs


class TestConstruction:
    def test_builds_full_fleet(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        assert len(fs.machines) == 169
        assert len(fs.agents) == 169

    def test_machine_lookup(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        m = fs.machine_by_hostname("L03-M07")
        assert m.spec.lab == "L03"

    def test_all_machines_start_off(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        assert fs.powered_count() == 0

    def test_lab_demand_correlates_with_hardware(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        # P4 labs must, in expectation terms, attract demand boosts; the
        # attraction factor of the fastest lab exceeds the slowest one's.
        assert set(fs.lab_demand) == {f"L{i:02d}" for i in range(1, 12)}


class TestGroundTruth:
    def test_sessions_happen(self, fleet_2d):
        total = sum(len(m.session_log) for m in fleet_2d.machines)
        assert total > 100

    def test_boots_happen(self, fleet_2d):
        total = sum(len(m.boot_log) for m in fleet_2d.machines)
        assert total > 100

    def test_sessions_lie_within_boot_sessions(self, fleet_2d):
        for m in fleet_2d.machines:
            intervals = [(b.boot_time, b.shutdown_time) for b in m.boot_log]
            if m.powered:
                intervals.append((m.boot_time, float("inf")))
            for s in m.session_log:
                assert any(b0 <= s.start and s.end <= b1 for b0, b1 in intervals), (
                    m.spec.hostname, s)

    def test_sessions_do_not_overlap_per_machine(self, fleet_2d):
        for m in fleet_2d.machines:
            log = sorted(m.session_log, key=lambda s: s.start)
            for a, b in zip(log, log[1:]):
                assert a.end <= b.start + 1e-6

    def test_boot_sessions_do_not_overlap(self, fleet_2d):
        for m in fleet_2d.machines:
            log = sorted(m.boot_log, key=lambda b: b.boot_time)
            for a, b in zip(log, log[1:]):
                assert a.shutdown_time <= b.boot_time + 1e-6

    def test_smart_cycles_match_boot_counts(self, fleet_2d):
        for m in fleet_2d.machines:
            boots = len(m.boot_log) + (1 if m.powered else 0)
            # disk history predates the run: only the delta must match
            # (initial cycles unknown); cycles grow monotonically.
            assert m.disk.power_cycles >= boots

    def test_no_activity_before_open(self, fleet_2d):
        clock = fleet_2d.calendar.clock
        for m in fleet_2d.machines:
            for s in m.session_log:
                sod = clock.second_of_day(s.start)
                wd = clock.weekday(s.start)
                open_ok = (
                    sod >= 8 * HOUR - 1e-6
                    or sod < 4 * HOUR + 3700  # overnight tail + boot lag
                )
                assert open_ok or wd == 5, (m.spec.hostname, clock.label(s.start))

    def test_forgotten_sessions_exist(self, fleet_2d):
        forgotten = [
            s for m in fleet_2d.machines for s in m.session_log if s.forgotten
        ]
        assert forgotten, "the forget-to-logout behaviour must occur"
        # forgotten sessions are long: user left, session lingered
        mean_f = np.mean([s.duration for s in forgotten])
        normal = [
            s.duration for m in fleet_2d.machines for s in m.session_log
            if not s.forgotten
        ]
        assert mean_f > np.mean(normal)

    def test_snapshot_counters_consistent(self, fleet_2d):
        assert fleet_2d.powered_count() == (
            fleet_2d.occupied_count() + fleet_2d.free_count()
        )


class TestBehaviourLoop:
    """Every agent runs on the fleet's tick backend, and two rules order
    its events against the probing engine's (:mod:`repro.sim.backend`)."""

    #: Day 1 (a Tuesday) 04:00: a closing sweep and iteration 112.
    CLOSE = DAY + 4 * HOUR

    @staticmethod
    def chain_passes(fs, visit):
        """Chain one stand-in probing pass per sampling period onto the
        probing engine, each scheduling the next, as DdcCoordinator's
        iterations do; ``visit(t)`` runs at each."""
        period = fs.config.ddc.sample_period

        def run_pass(k):
            visit(fs.sim.now)
            fs.sim.schedule((k + 1) * period, run_pass, k + 1)

        fs.sim.schedule(0.0, run_pass, 0)

    @staticmethod
    def watch_sweep(agent, visit):
        sweep = agent.sweep

        def watched():
            visit()
            sweep()

        agent.sweep = watched

    def test_sweep_then_behaviour_then_pass_at_a_closing_instant(self):
        fs = FleetSimulator(ExperimentConfig(days=2, seed=1))
        order = []
        fs.start()
        self.watch_sweep(fs.agents[0], lambda: order.append("sweep"))
        fs._backend.env.schedule(self.CLOSE, order.append, "behaviour")
        self.chain_passes(
            fs, lambda t: t == self.CLOSE and order.append("pass"))
        fs.run(self.CLOSE)
        assert order == ["sweep", "behaviour", "pass"]

    def test_witness_a_forgotten_logout_at_closing_time(self):
        # Seed 900101, machine 129 (L09-M02): session al1290002 opened at
        # 03:52 and its use ends with a forgotten logout clamped to
        # 04:00.  Rule 2: the 04:00 sweep still finds the student at
        # work.  Rule 1: the 04:00 pass, whose probe reads the machine
        # after 04:00, finds the session forgotten and the machine back
        # at its background load.
        fs = FleetSimulator(ExperimentConfig(days=2, seed=900101))
        machine = fs.machine_by_hostname("L09-M02")
        (agent,) = [a for a in fs.agents if a.machine is machine]
        seen = {}

        def state():
            s = machine.session
            return s.username, s.start, s.forgotten, machine.cpu_busy

        fs.start()
        self.watch_sweep(agent, lambda: seen.setdefault("sweep", state()))
        self.chain_passes(fs, lambda t: t == self.CLOSE
                          and seen.setdefault("pass", state()))
        fs.run(self.CLOSE)
        user, start, forgotten, busy = seen["sweep"]
        assert user == "al1290002" and not forgotten
        assert self.CLOSE - 8 * 60 <= start < self.CLOSE
        assert busy > agent.personality.background_busy
        assert seen["pass"] == (user, start, True,
                                agent.personality.background_busy)

    def test_run_off_the_tick_grid_shows_that_instant(self):
        # 36 h + 123 s lies between two ticks: run() advances the
        # behaviour loop to it, so the sessions that ended since the
        # last tick show (the figures are the single-heap fleet's).
        fs = FleetSimulator(ExperimentConfig(days=2, seed=31))
        fs.run(36 * HOUR + 123.0)
        assert (fs.powered_count(), fs.occupied_count()) == (95, 48)
        assert sum(len(m.session_log) for m in fs.machines) == 429


class TestDeterminism:
    def test_same_seed_same_truth(self):
        def run(seed):
            fs = FleetSimulator(ExperimentConfig(days=1, seed=seed))
            fs.run()
            return [
                (len(m.boot_log), len(m.session_log)) for m in fs.machines
            ]

        assert run(77) == run(77)
        assert run(77) != run(78)

    def test_run_is_idempotent_on_start(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=3))
        fs.start()
        fs.start()  # idempotent
        fs.run()
        events_once = fs.sim.events_fired
        assert events_once > 0


class TestWorkloadModelUse:
    def test_agents_draw_activity_through_the_model(self, monkeypatch):
        # A workload_factory model's redraw_busy and net_rates are what
        # every login and every intra-session re-draw calls.
        class Counting(WorkloadModel):
            sessions = busy_calls = occupied_net_calls = 0

            def session_workload(self, spec, rng, *, heavy=False):
                self.sessions += 1
                return super().session_workload(spec, rng, heavy=heavy)

            def redraw_busy(self, session, rng):
                self.busy_calls += 1
                return super().redraw_busy(session, rng)

            def net_rates(self, rng, *, occupied):
                self.occupied_net_calls += occupied
                return super().net_rates(rng, occupied=occupied)

        # Writes of the CPU level while a user is at the machine: one per
        # login and one per re-draw.
        occupied_writes = []
        set_cpu_busy = SimMachine.set_cpu_busy

        def counting_set_cpu_busy(machine, now, busy_frac):
            s = machine.session
            if s is not None and not s.forgotten:
                occupied_writes.append(now)
            set_cpu_busy(machine, now, busy_frac)

        monkeypatch.setattr(SimMachine, "set_cpu_busy", counting_set_cpu_busy)
        cfg = ExperimentConfig(days=1, seed=7)
        fs = FleetSimulator(
            cfg, workload_factory=lambda _fs: Counting(cfg.workload)
        )
        fs.run()
        model = fs.workload
        logins = sum(
            len(m.session_log) + (m.session is not None) for m in fs.machines
        )
        assert model.sessions == logins > 0
        assert len(occupied_writes) > logins  # re-draws happened
        assert model.busy_calls == len(occupied_writes)
        assert model.occupied_net_calls == len(occupied_writes)

    def test_run_leaves_the_shared_model_unchanged(self):
        # Every agent shares the model and every checkpoint pickles it,
        # so nothing may accumulate on it per session.
        fs = FleetSimulator(ExperimentConfig(days=2, seed=31))
        before = copy.deepcopy(vars(fs.workload))
        fs.run()
        assert sum(len(m.session_log) for m in fs.machines) > 0
        assert vars(fs.workload) == before

"""Fleet simulator: 169 machines living through 77 days.

:class:`FleetSimulator` wires together the substrate layers:

- builds the Table-1 fleet (:mod:`repro.machines.hardware`) with
  SMART-history-seeded disks,
- gives each machine a :class:`MachineAgent` that executes the behaviour
  plan (:mod:`repro.sim.behavior`) under the power policy
  (:mod:`repro.sim.power`) with the workload model
  (:mod:`repro.sim.workload`),
- schedules the daily planning and the closing staff sweeps.

The DDC coordinator (:mod:`repro.ddc.coordinator`) runs *inside the same
simulator*, probing machines as they live -- the same architecture as the
real experiment, where monitoring shared the wall clock with the users.

Event budget: one machine-day costs O(uses + redraws) events; a full
77-day x 169-machine run fires about 220 thousand events and completes
in seconds (see DESIGN.md section 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

from repro.config import ExperimentConfig
from repro.machines.hardware import TABLE1_LABS, LabSpec, MachineSpec, build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
from repro.sim.behavior import BehaviorModel, PlannedUse
from repro.sim.calendar import DAY, HOUR, AcademicCalendar
from repro.sim.engine import Simulator
from repro.sim.power import MachinePowerTraits, PowerPolicy
from repro.sim.random import RandomStreams
from repro.sim.workload import MachinePersonality, SessionWorkload, WorkloadModel

__all__ = ["MachineAgent", "FleetSimulator"]


class MachineAgent:
    """Drives one machine through boots, logins, workload and shutdowns.

    The agent is a small state machine keyed by the machine's power and
    session state.  Stale events (an activity re-draw scheduled before the
    session ended, a short-cycle shutdown scheduled before a student
    grabbed the machine) are invalidated with generation counters rather
    than by cancelling heap entries, which keeps bookkeeping O(1).
    """

    def __init__(
        self,
        machine: SimMachine,
        sim: Simulator,
        calendar: AcademicCalendar,
        behavior: BehaviorModel,
        power: PowerPolicy,
        workload: WorkloadModel,
        rng: np.random.Generator,
        horizon_days: int,
        lab_demand: float = 1.0,
        observer: Optional["Observer"] = None,
    ):
        self.machine = machine
        self.sim = sim
        self.calendar = calendar
        self.behavior = behavior
        self.power = power
        self.workload = workload
        self.rng = rng
        self.horizon_days = horizon_days
        self.popularity = behavior.machine_popularity(lab_demand, rng)
        self.personality: MachinePersonality = workload.personality(machine.spec, rng)
        self.traits: MachinePowerTraits = power.traits(rng)
        # expose the personality's disk footprint on the machine
        machine._base_disk_used = self.personality.base_disk_used_bytes  # noqa: SLF001
        self._session_wl: Optional[SessionWorkload] = None
        self._activity_gen = 0   # invalidates pending activity re-draws
        self._power_gen = 0      # invalidates pending short-cycle shutdowns
        self._user_seq = 0
        obs = observer if observer is not None and observer.enabled else None
        self._obs = obs
        if obs is not None:
            lab = machine.spec.lab
            self._c_sessions = obs.metrics.counter("fleet.session_starts", lab=lab)
            self._c_boots = obs.metrics.counter("fleet.boots", lab=lab)
            self._c_shutdowns = obs.metrics.counter("fleet.shutdowns", lab=lab)

    # ------------------------------------------------------------------
    # scheduling entry points
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule day-0 planning.  Called once by the fleet simulator."""
        self.sim.schedule(0.0, self._plan_day, 0, name="plan")

    def warm_start(self) -> None:
        """Possibly power the machine on at t=0.

        The experiment starts Monday 00:00 in an environment that has
        been running for years: machines left on over the weekend are
        still up.  Without this, the first morning's samples would come
        exclusively from freshly-booted, actively-used machines -- a
        cold-start artefact that distorts Monday's weekly profile.
        """
        p = self.power.params
        prob = p.initial_on_owl if self.traits.night_owl else p.initial_on_other
        if self.rng.random() < prob and not self.machine.powered:
            self._boot(self.sim.now)

    def _plan_day(self, day: int) -> None:
        if day >= self.horizon_days:
            return
        uses = self.behavior.plan_day(
            self.machine.spec, day, self.rng, popularity=self.popularity
        )
        for use in uses:
            self.sim.schedule(use.start, self._begin_use, use, name="use")
        for start, uptime in self.power.plan_short_cycles(day, self.rng):
            self.sim.schedule(start, self._short_cycle, uptime, name="cycle")
        self.sim.schedule(self.calendar.clock.day_start(day + 1), self._plan_day, day + 1)

    # ------------------------------------------------------------------
    # machine usage lifecycle
    # ------------------------------------------------------------------
    def _begin_use(self, use: PlannedUse) -> None:
        now = self.sim.now
        m = self.machine
        if m.powered and m.session is not None:
            if not m.session.forgotten:
                return  # machine genuinely occupied; the student walks on
            # A forgotten session from a previous user: the newcomer logs
            # the ghost out (the paper's labs auto-cleaned on next logon).
            m.logout(now)
            self._end_session_state(now)
        if not m.powered:
            self._boot(now)
            self.sim.schedule(
                now + self.power.boot_duration(), self._login, use, name="login"
            )
        else:
            self._login(use)

    def _login(self, use: PlannedUse) -> None:
        now = self.sim.now
        m = self.machine
        if not m.powered or m.session is not None:
            return  # lost a race with a sweep or another user
        self._user_seq += 1
        username = f"al{self.machine.spec.machine_id:03d}{self._user_seq:04d}"
        m.login(now, username)
        if self._obs is not None:
            self._c_sessions.inc()
        wl = self.workload.session_workload(m.spec, self.rng, heavy=use.heavy)
        self._session_wl = wl
        m.set_temp_disk_used(min(wl.temp_disk_bytes, self.workload.temp_quota(m.spec)))
        mem, swap = self.workload.memory_loads(m.spec, self.personality, wl)
        m.set_memory_load(now, mem, swap)
        m.set_cpu_busy(now, self.workload.redraw_busy(wl, self.rng))
        m.set_net_rates(now, *self.workload.net_rates(self.rng, occupied=True))
        self._activity_gen += 1
        gen = self._activity_gen
        self.sim.schedule(
            now + self.workload.params.activity_redraw_period,
            self._redraw_activity,
            gen,
            name="redraw",
        )
        self.sim.schedule(now + use.duration, self._end_use, use, name="end_use")

    def _redraw_activity(self, gen: int) -> None:
        if gen != self._activity_gen:
            return  # the session this re-draw belonged to is gone
        m = self.machine
        if not m.powered or m.session is None or self._session_wl is None:
            return
        now = self.sim.now
        m.set_cpu_busy(now, self.workload.redraw_busy(self._session_wl, self.rng))
        m.set_net_rates(now, *self.workload.net_rates(self.rng, occupied=True))
        self.sim.schedule(
            now + self.workload.params.activity_redraw_period,
            self._redraw_activity,
            gen,
        )

    def _end_use(self, use: PlannedUse) -> None:
        now = self.sim.now
        m = self.machine
        if not m.powered or m.session is None:
            return  # session already ended (swept, ghost-logged-out)
        if use.forget:
            # The user walks away: the session stays open but the machine
            # falls back to background workload with the apps still
            # resident in memory.
            m.mark_forgotten()
            self._activity_gen += 1
            m.set_cpu_busy(now, self.personality.background_busy)
            m.set_net_rates(now, *self.workload.net_rates(self.rng, occupied=False))
            # memory keeps the session's working set; swap likewise
            return
        m.logout(now)
        self._end_session_state(now)
        if self.power.off_after_use(now, self.traits, self.rng):
            self._shutdown(now)

    def _end_session_state(self, now: float) -> None:
        """Return the machine to unattended workload levels."""
        m = self.machine
        self._session_wl = None
        self._activity_gen += 1
        mem, swap = self.workload.memory_loads(m.spec, self.personality, None)
        m.set_memory_load(now, mem, swap)
        m.set_cpu_busy(now, self.personality.background_busy)
        m.set_net_rates(now, *self.workload.net_rates(self.rng, occupied=False))

    # ------------------------------------------------------------------
    # power transitions
    # ------------------------------------------------------------------
    def _boot(self, now: float) -> None:
        m = self.machine
        m.boot(now)
        self._power_gen += 1
        if self._obs is not None:
            self._c_boots.inc()
        mem, swap = self.workload.memory_loads(m.spec, self.personality, None)
        m.set_memory_load(now, mem, swap)
        m.set_cpu_busy(now, self.personality.background_busy)
        m.set_net_rates(now, *self.workload.net_rates(self.rng, occupied=False))

    def _shutdown(self, now: float) -> None:
        if self.machine.session is not None:
            self._end_session_state(now)  # closing a forgotten session
        self.machine.shutdown(now)
        self._power_gen += 1
        if self._obs is not None:
            self._c_shutdowns.inc()

    def _short_cycle(self, uptime: float) -> None:
        """A short power cycle: boot, sit a few minutes, power off."""
        if self.machine.powered:
            return  # someone is using the machine; no quick cycle
        now = self.sim.now
        self._boot(now)
        gen = self._power_gen
        self.sim.schedule(now + uptime, self._short_cycle_off, gen, name="cycle_off")

    def _short_cycle_off(self, gen: int) -> None:
        m = self.machine
        if gen != self._power_gen or not m.powered or m.session is not None:
            return  # a student grabbed the machine meanwhile; leave it be
        self._shutdown(self.sim.now)

    def sweep(self) -> None:
        """Closing staff sweep: power off unattended machines."""
        m = self.machine
        if not m.powered:
            return
        if m.session is not None and not m.session.forgotten:
            return  # never pull the plug on a working student
        forgotten = m.session is not None
        if self.power.off_at_close(self.traits, self.rng,
                                   forgotten_session=forgotten):
            self._shutdown(self.sim.now)


class FleetSimulator:
    """Builds and runs the whole classroom environment.

    Parameters
    ----------
    config:
        The experiment configuration (see :func:`repro.config.paper_config`).
    labs:
        Lab catalog; defaults to the paper's Table 1.
    observer:
        Optional :class:`repro.obs.Observer`.  It is handed to the
        engine (event/heap accounting), bound to the simulation clock
        for spans, and given to every agent (per-lab session-start and
        power-transition counters).  Absent or disabled observers cost
        nothing.

    Examples
    --------
    >>> from repro.config import ExperimentConfig
    >>> fs = FleetSimulator(ExperimentConfig(days=1, seed=7))
    >>> fs.run()
    >>> len(fs.machines)
    169
    """

    def __init__(
        self,
        config: ExperimentConfig,
        labs: Sequence[LabSpec] = TABLE1_LABS,
        *,
        behavior_factory: Optional[Callable[["FleetSimulator"], BehaviorModel]] = None,
        power_factory: Optional[Callable[["FleetSimulator"], PowerPolicy]] = None,
        workload_factory: Optional[Callable[["FleetSimulator"], WorkloadModel]] = None,
        observer: Optional["Observer"] = None,
    ):
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.sim = Simulator(observer=observer)
        if observer is not None and observer.enabled:
            observer.bind_clock(self.sim)
        self.calendar = AcademicCalendar(
            [lab.name for lab in labs],
            self.streams.stream("calendar"),
            class_density=config.behavior.class_density,
            saturday_density=config.behavior.saturday_density,
            cpu_heavy_labs=config.behavior.cpu_heavy_labs,
        )
        behavior = (
            behavior_factory(self) if behavior_factory
            else BehaviorModel(config.behavior, self.calendar)
        )
        power = (
            power_factory(self) if power_factory
            else PowerPolicy(config.power, self.calendar)
        )
        workload = (
            workload_factory(self) if workload_factory
            else WorkloadModel(config.workload)
        )
        self.behavior = behavior
        self.power = power
        self.workload = workload
        self.specs: List[MachineSpec] = build_fleet(tuple(labs))
        self.machines: List[SimMachine] = []
        self.agents: List[MachineAgent] = []
        # Students prefer the labs with newer, faster machines, so lab
        # demand correlates with hardware: attraction ~ sqrt(perf index),
        # normalised to fleet mean 1.  This correlation is what lifts the
        # performance-weighted Fig-6 ratio slightly above uptime x idleness
        # in the paper (0.51 vs 0.502 x 0.979).
        mean_perf = float(np.mean([lab.perf_index for lab in labs]))
        attraction = {
            lab.name: float(np.sqrt(lab.perf_index / mean_perf)) for lab in labs
        }
        mean_attraction = float(np.mean(list(attraction.values())))
        self.lab_demand: Dict[str, float] = {
            lab.name: behavior.lab_demand_multiplier(
                self.streams.stream(f"lab_demand/{lab.name}")
            )
            * attraction[lab.name]
            / mean_attraction
            for lab in labs
        }
        # Behavioural backend selection (docs/columnar.md, "Phase 2").
        # The *statistical* vectorised engine replaces per-machine agents
        # wholesale; it is opted into explicitly and only engages above
        # the equivalence threshold, with the stock models and no
        # observer (agents carry the per-lab instrumentation).
        use_vector = (
            config.kernel == "columnar"
            and config.behavioural_equivalence == "statistical"
            and len(self.specs) > config.behavioural_threshold
            and behavior_factory is None
            and power_factory is None
            and workload_factory is None
            and (observer is None or not observer.enabled)
        )
        for spec in self.specs:
            disk = SmartDisk.with_history(
                spec.disk_serial,
                spec.disk_bytes,
                self.streams.stream(f"smart/{spec.hostname}"),
                age_years_range=config.smart.age_years_range,
                uptime_per_cycle_mean_h=config.smart.uptime_per_cycle_mean_h,
                uptime_per_cycle_std_h=config.smart.uptime_per_cycle_std_h,
                daily_cycles_mean=config.smart.daily_cycles_mean,
            )
            machine = SimMachine(spec, disk)
            self.machines.append(machine)
            if use_vector:
                continue
            agent = MachineAgent(
                machine,
                self.sim,
                self.calendar,
                behavior,
                power,
                workload,
                self.streams.stream(f"agent/{spec.hostname}"),
                config.days,
                lab_demand=self.lab_demand[spec.lab],
                observer=observer,
            )
            self.agents.append(agent)
        self._by_hostname: Dict[str, SimMachine] = {
            m.spec.hostname: m for m in self.machines
        }
        self._cols = None
        self._backend = None
        self._vector = None
        if use_vector:
            from repro.sim.vector import VectorBehaviour

            self._vector = VectorBehaviour(self)
        self._started = False

    # ------------------------------------------------------------------
    def machine_by_hostname(self, hostname: str) -> SimMachine:
        """Look a machine up by its ``Lnn-Mnn`` hostname."""
        return self._by_hostname[hostname]

    # ------------------------------------------------------------------
    # columnar behavioural backends (docs/columnar.md, "Phase 2")
    # ------------------------------------------------------------------
    def ensure_columns(self):
        """The fleet's :class:`~repro.sim.kernel.FleetColumns` mirror,
        built lazily so the coordinator's columnar pass and the
        behavioural backends share one write-through view."""
        if self._cols is None:
            from repro.sim.kernel import FleetColumns

            self._cols = FleetColumns(self.machines)
        return self._cols

    @property
    def behavioural_backend(self) -> str:
        """Which behavioural backend drives this fleet:
        ``"object"``, ``"tick"`` (exact batches) or ``"vector"``
        (statistical columnar dynamics)."""
        if self._vector is not None:
            return "vector"
        if self._backend is not None:
            return "tick"
        return "object"

    def enable_tick_backend(self) -> None:
        """Move behavioural events onto the exact per-tick backend.

        Must run before :meth:`start`; idempotent, and a no-op when the
        statistical engine already owns the behavioural loop.
        """
        if self._vector is not None or self._backend is not None:
            return
        if self._started:
            raise RuntimeError(
                "enable_tick_backend must be called before the fleet starts"
            )
        from repro.sim.backend import TickBackend

        self._backend = TickBackend(
            self.sim, self.config.ddc.sample_period, self.config.horizon
        )
        for agent in self.agents:
            agent.sim = self._backend.env

    def activate_columnar_behaviour(self) -> None:
        """Hook for the kernel resolver: once the coordinator's columnar
        pass is enabled, drive the behavioural loop columnar too --
        the statistical engine when the config opted in (selected at
        construction), the exact tick backend otherwise."""
        if self._vector is None:
            self.enable_tick_backend()

    def start(self) -> None:
        """Schedule all agents and staff sweeps (idempotent)."""
        if self._started:
            return
        self._started = True
        if self._vector is not None:
            self._vector.start()
        else:
            for agent in self.agents:
                agent.start()
                agent.warm_start()
            if self._backend is not None:
                self._backend.start()
        self._schedule_sweeps()

    def _schedule_sweeps(self) -> None:
        clock = self.calendar.clock
        for day in range(self.config.days + 1):
            wd = (day + clock.epoch_weekday) % 7
            # 04:00 closure applies after weekday opening periods
            # (including Friday night -> Saturday 04:00).
            prev_wd = (wd - 1) % 7
            if prev_wd <= 4:
                t = clock.at(day, self.calendar.CLOSE_HOUR)
                if t <= self.config.horizon:
                    self.sim.schedule(t, self._sweep, name="sweep")
            if wd == 5:
                t = clock.at(day, self.calendar.SATURDAY_CLOSE_HOUR)
                if t <= self.config.horizon:
                    self.sim.schedule(t, self._sweep, name="sweep")

    def _sweep(self) -> None:
        now = self.sim.now
        if self._vector is not None:
            # advance the columnar dynamics through the sweep instant
            # first: sessions ending before closing time must have ended
            # before staff walk the room.
            self._vector.advance_to(now)
            self._vector.sweep(now)
            return
        if self._backend is not None:
            # Half-open advance: on the flat heap the sweep (scheduled
            # at fleet start, lowest seq at its instant) fires before
            # any behavioural event sharing its timestamp; those
            # boundary events fold in the btick right after this sweep.
            self._backend.advance_before(now)
        for agent in self.agents:
            agent.sweep()

    def run(self, until: Optional[float] = None) -> None:
        """Run the fleet to ``until`` (default: the configured horizon)."""
        self.start()
        self.sim.run_until(self.config.horizon if until is None else until)

    # ------------------------------------------------------------------
    # live snapshots (used by tests and examples)
    # ------------------------------------------------------------------
    def powered_count(self) -> int:
        """Machines currently powered on."""
        if self._vector is not None:
            return int(np.count_nonzero(self._cols.powered))
        return sum(1 for m in self.machines if m.powered)

    def occupied_count(self) -> int:
        """Machines currently powered on with an open session."""
        if self._vector is not None:
            cols = self._cols
            return int(np.count_nonzero(cols.powered & cols.has_session))
        return sum(1 for m in self.machines if m.powered and m.session is not None)

    def free_count(self) -> int:
        """Machines powered on without any open session."""
        if self._vector is not None:
            cols = self._cols
            return int(np.count_nonzero(cols.powered & ~cols.has_session))
        return sum(1 for m in self.machines if m.powered and m.session is None)

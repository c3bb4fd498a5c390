"""Free-running driver: the simulation graph on a wall-clock leash.

:class:`LiveDriver` builds the graph ``repro run --recover-dir`` runs,
through the same :func:`~repro.shard.worker.build_graph` --
:class:`~repro.sim.fleet.FleetSimulator`,
:class:`~repro.ddc.coordinator.DdcCoordinator` on the kernel the
config picks, :class:`~repro.recovery.runtime.RecoveryRuntime` -- and
advances it on a background thread in ``sample_period`` chunks.  With
a finite ``rate`` the driver sleeps between chunks so that simulated
time tracks ``rate x`` wall time; ``rate=None`` runs unpaced
(``--rate max``).

Every iteration's pass record -- the rows its pass added -- is
journaled and flushed by the recovery runtime before the chunk returns,
which is what makes the journal a live feed: the
:class:`~repro.live.ingest.LiveIngestor` tails it concurrently.
Stopping is cooperative --
:meth:`~repro.sim.engine.Simulator.request_stop` drains the current
event and returns -- and both the clean and the stopped path seal the
journal through :meth:`RecoveryRuntime.finish`, so a stopped live run is
resumable / replayable like any crashed batch run.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional

from repro.config import ExperimentConfig
from repro.errors import LiveError
from repro.live.config import LiveConfig
from repro.machines.hardware import TABLE1_LABS, scaled_labs
from repro.recovery.runtime import RecoveryConfig, RecoveryInfo, RecoveryRuntime
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, build_graph

__all__ = ["LiveDriver"]

#: Longest single sleep while pacing, so stop requests stay responsive.
_PACING_SLICE = 0.2


class LiveDriver:
    """Drive one journaled experiment on a background thread.

    States (:attr:`state`): ``idle`` -> ``running`` -> ``sealing`` ->
    ``terminal`` (reached the horizon) / ``stopped`` (stop requested,
    journal still sealed) / ``failed`` (:attr:`error` holds the cause).
    """

    _DONE_STATES = frozenset({"terminal", "stopped", "failed"})

    def __init__(self, config: LiveConfig):
        self.config = config
        self.experiment = ExperimentConfig(days=config.days, seed=config.seed)
        labs = tuple(
            TABLE1_LABS
            if config.machines is None
            else scaled_labs(config.machines)
        )
        recovery = RecoveryConfig(
            run_dir=config.run_dir,
            checkpoint_every=config.checkpoint_every,
            segment_records=config.segment_records,
            fsync=config.fsync,
        )
        self.journal_dir: Path = recovery.journal_dir
        cfg = self.experiment
        self.runtime = RecoveryRuntime(recovery)
        graph = build_graph(
            ShardTask(config=cfg, shard=ShardPlan.build(labs, 1).specs[0],
                      labs=labs),
            runtime=self.runtime,
        )
        self.fleet = graph["fleet"]
        self.coordinator = graph["coordinator"]
        self.store = graph["store"]
        self.horizon: float = cfg.horizon
        self.sample_period: float = cfg.ddc.sample_period
        self.state: str = "idle"
        self.error: Optional[BaseException] = None
        self.recovery_info: Optional[RecoveryInfo] = None
        self.wall_started: Optional[float] = None
        self.wall_finished: Optional[float] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="live-driver", daemon=True
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.state != "idle":
            raise LiveError(f"driver already started (state={self.state!r})")
        self.state = "running"
        self._thread.start()

    def stop(self) -> None:
        """Request a cooperative stop; the journal is still sealed."""
        self._stop.set()
        # Interrupt an in-flight run_until chunk between events.
        self.fleet.sim.request_stop()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the driver thread; returns True once it finished."""
        if self._thread.ident is not None:
            self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def done(self) -> bool:
        return self.state in self._DONE_STATES

    @property
    def sim_now(self) -> float:
        return self.fleet.sim.now

    def progress(self) -> dict:
        """Coordinator counters plus driver pacing, for ``/health``."""
        out = self.coordinator.progress()
        out["sim_now"] = self.fleet.sim.now
        out["horizon"] = self.horizon
        out["state"] = self.state
        out["rate"] = self.config.rate
        if self.wall_started is not None:
            end = self.wall_finished or time.monotonic()
            wall = end - self.wall_started
            out["wall_seconds"] = wall
            out["effective_rate"] = (
                self.fleet.sim.now / wall if wall > 0 else None
            )
        return out

    # ------------------------------------------------------------------
    # Driver thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        sim = self.fleet.sim
        rate = self.config.rate
        self.wall_started = time.monotonic()
        try:
            self.fleet.start()
            self.coordinator.start()
            target = 0.0
            while sim.now < self.horizon and not self._stop.is_set():
                target = min(self.horizon, target + self.sample_period)
                if rate is not None:
                    self._pace(target / rate)
                    if self._stop.is_set():
                        break
                sim.run_until(target)
            self.coordinator.finalize_meta(self.store.meta)
            self.state = "sealing"
            self.recovery_info = self.runtime.finish()
            self.state = (
                "terminal" if sim.now >= self.horizon else "stopped"
            )
        except BaseException as exc:  # surfaced via self.error / /health
            self.error = exc
            try:
                self.runtime.hard_stop()
            finally:
                self.state = "failed"
        finally:
            self.wall_finished = time.monotonic()

    def _pace(self, wall_offset: float) -> None:
        """Sleep until ``wall_started + wall_offset``, stop-aware."""
        deadline = self.wall_started + wall_offset
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(remaining, _PACING_SLICE))

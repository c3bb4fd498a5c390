"""Per-layer self time, measured from outside the program.

The benchmark does not instrument ``src/``: it wraps the entry points
of each layer from here, for the lifetime of one execution process.
A span's *self time* is its duration minus the time spent in wrapped
calls nested inside it, so the layers partition the wall time they
cover and ``trace.unattributed_s`` is what no layer claims.

Two wrapper sets exist:

- the **setup** set (graph build, shard fan-out hooks, merge) costs
  O(1) calls per run and stays installed in timed runs, because
  ``setup_s`` is an end-to-end metric;
- the **traced** set adds the per-batch, per-pass and per-sample entry
  points and is installed only for the traced run, whose end-to-end
  numbers are never reported.

The outer engine's ``Simulator.run_until`` is re-entrant through the
tick backend's private engine, so a class-level span would count the
behavioural batches twice; the wrapper therefore times only engines
owned by a :class:`~repro.sim.fleet.FleetSimulator` built in this
process.

Shard workers are forked from the execution process, so they inherit
the wrappers.  Each worker resets the tracer when its task starts and
ships its layer totals back on the outcome object; the parent collects
them when it merges.  Worker layers run in parallel with each other,
so they are reported summed across workers and are not part of the
parent's wall-time identity.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

__all__ = ["Tracer"]

#: Attribute a traced shard worker sets on its ``ShardOutcome``.
WORKER_EXPORT_ATTR = "perf_layers"


class Tracer:
    """Accumulates self time and call counts per layer name."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every measurement (a forked worker starts clean)."""
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[float] = []
        #: Fleets and tick backends built in this process.
        self.fleets: list = []
        self.backends: list = []
        #: Coordinators that switched to the columnar pass.
        self.columnar_enabled = 0
        #: Layer exports shipped back by shard workers.
        self.worker_exports: List[dict] = []

    def add(self, layer: str, seconds: float) -> None:
        """Account time measured outside a wrapped call."""
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` and charge its self time to ``layer``."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dt - child
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if stack:
                stack[-1] += dt

    def export(self) -> dict:
        """Plain-data totals of this process (picklable, JSON-safe)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "engine_events": sum(f.sim.events_fired for f in self.fleets),
            "behaviour_events": sum(b.env.events_fired
                                    for b in self.backends),
            "columnar_enabled": self.columnar_enabled,
        }

    # ------------------------------------------------------------------
    # wrapper installation
    # ------------------------------------------------------------------
    @staticmethod
    def _replace(owner, attr: str, make: Callable) -> None:
        # functools.wraps keeps __name__, so bound methods scheduled on
        # the engine heap still pickle into checkpoints by name.
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _wrap(self, owner, attr: str, layer: str) -> None:
        span = self.span
        self._replace(owner, attr, lambda original: (
            lambda *a, **k: span(layer, original, *a, **k)))

    def install(self, *, traced: bool) -> None:
        """Install the setup wrappers, plus the traced set if asked."""
        import repro.experiment
        import repro.shard.net.worker
        import repro.shard.worker
        from repro.ddc.coordinator import DdcCoordinator
        from repro.sim.fleet import FleetSimulator
        from repro.sim.kernel import FleetColumns

        tracer = self

        def fleet_init(original):
            def init(fleet, *args, **kwargs):
                tracer.span("setup.build", original, fleet, *args, **kwargs)
                tracer.fleets.append(fleet)
            return init

        def worker_task(original):
            def execute(task, **kwargs):
                tracer.reset()
                outcome = original(task, **kwargs)
                setattr(outcome, WORKER_EXPORT_ATTR, tracer.export())
                return outcome
            return execute

        def merge(original):
            def merge_outcomes(outcomes):
                tracer.worker_exports = [
                    getattr(o, WORKER_EXPORT_ATTR) for o in outcomes
                    if hasattr(o, WORKER_EXPORT_ATTR)
                ]
                return tracer.span("shard.merge", original, outcomes)
            return merge_outcomes

        self._replace(FleetSimulator, "__init__", fleet_init)
        self._wrap(DdcCoordinator, "__init__", "setup.build")
        self._wrap(FleetColumns, "__init__", "setup.build")
        self._replace(repro.shard.worker, "execute_shard_task", worker_task)
        self._replace(repro.shard.net.worker, "execute_shard_task",
                      worker_task)
        self._replace(repro.experiment, "merge_outcomes", merge)
        if traced:
            self._install_traced()

    def _install_traced(self) -> None:
        import repro.recovery.runtime
        import repro.shard.worker
        from repro.ddc.coordinator import DdcCoordinator
        from repro.ddc.postcollect import SamplePostCollector
        from repro.live.rollup import LiveRollups
        from repro.recovery.journal import JournalTailReader
        from repro.recovery.runtime import RecoveryRuntime
        from repro.sim.backend import TickBackend
        from repro.sim.engine import Simulator
        from repro.traces.columnar import ColumnarTrace
        from repro.traces.store import TraceStore

        tracer = self

        def run_until(original):
            def run(sim, end):
                if any(sim is f.sim for f in tracer.fleets):
                    return tracer.span("sim.engine", original, sim, end)
                return original(sim, end)
            return run

        def backend_init(original):
            def init(backend, *args, **kwargs):
                original(backend, *args, **kwargs)
                tracer.backends.append(backend)
            return init

        def enable_columnar(original):
            def enable(coordinator, columns):
                original(coordinator, columns)
                tracer.columnar_enabled += 1
            return enable

        self._replace(Simulator, "run_until", run_until)
        self._replace(TickBackend, "__init__", backend_init)
        self._replace(DdcCoordinator, "enable_columnar", enable_columnar)
        self._wrap(TickBackend, "advance_to", "sim.behaviour")
        self._wrap(TickBackend, "advance_before", "sim.behaviour")
        self._wrap(DdcCoordinator, "_iteration", "ddc.pass")
        self._wrap(SamplePostCollector, "__call__", "ddc.postcollect")
        self._wrap(TraceStore, "add", "traces.store")
        self._wrap(TraceStore, "extend_columns", "traces.store")
        self._wrap(RecoveryRuntime, "on_sample", "recovery.journal")
        self._wrap(RecoveryRuntime, "on_iteration_end", "recovery.journal")
        self._wrap(repro.recovery.runtime, "write_checkpoint",
                   "recovery.checkpoint")
        self._wrap(repro.shard.worker, "attach_nbench_indexes", "nbench")
        self._wrap(ColumnarTrace, "__init__", "traces.columnar")
        self._wrap(JournalTailReader, "poll", "live.ingest.read")
        self._wrap(LiveRollups, "ingest_records", "live.ingest.rollup")

"""Tick backend: the fleet's one behaviour loop.

Every :class:`~repro.sim.fleet.FleetSimulator` runs its agents -- boots,
logins, workload redraws, shutdowns -- on a private engine,
:attr:`TickBackend.env`, which the outer (probing) engine advances in
batches: one ``btick`` event per DDC sampling period.  Agents schedule
on the inner :class:`~repro.sim.engine.Simulator` with the engine's
usual contract (same callbacks, per-machine RNG streams, event times
and FIFO tie-break), and the inner clock sits at each event's time
while its callback runs.

Two rules order behaviour against the outer engine's events:

1. At a tick instant ``t``, every behavioural event due at or before
   ``t`` fires before the probing pass at ``t``.  The ``btick`` at
   ``t`` precedes the DDC iteration at ``t``: the first one is
   scheduled first (``FleetSimulator.start`` runs before
   ``DdcCoordinator.start``), and each chain schedules its next event
   in the same order.  This is the physical order: the pass probes one
   machine after another from ``t``, each at ``cursor + latency > t``,
   so every probe sees what happened at ``t`` -- a student who walked
   away at 04:00 is gone.
2. A closing sweep at ``t`` fires before the behavioural events due at
   ``t``.  The sweep advances the inner engine half-open
   (:meth:`TickBackend.advance_before`) and the ``btick`` at ``t``
   folds the events at ``t`` after it: the sweeps are scheduled at
   fleet start, ahead of every ``btick`` but the first.

Across machines the interleaving at equal timestamps is unobservable:
agents touch only their own machine and draw only from their own
stream.  ``docs/columnar.md`` ("The tick backend") carries the
argument; ``tests/test_columnar_equivalence.py`` pins both rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["TickBackend"]


class TickBackend:
    """Drive behavioural events in per-tick batches on a private engine.

    Parameters
    ----------
    sim:
        The outer (probing) engine; one ``btick`` event per ``tick``
        seconds is chained onto it.
    tick:
        Batch period in seconds -- the DDC sampling period, so each
        probing pass observes a fully advanced fleet.
    horizon:
        End of the run; the chain stops there, firing a final batch at
        the horizon itself.
    observer:
        Optional :class:`repro.obs.Observer`, handed to the private
        engine so its events count in ``sim.events_fired``.
    """

    def __init__(self, sim: Simulator, tick: float, horizon: float,
                 observer: Optional["Observer"] = None):
        if tick <= 0:
            raise ValueError(f"tick period must be positive, got {tick!r}")
        self.sim = sim
        self.tick = float(tick)
        self.horizon = float(horizon)
        #: The agents' scheduling environment: a private engine with the
        #: same ``schedule``/``now`` contract as the outer one.
        self.env = Simulator(start=sim.now, observer=observer)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Chain the first batch event onto the outer engine.

        Must run before the coordinator schedules its first iteration so
        the batch at each shared instant keeps the lower sequence number
        (rule 1).
        """
        self.sim.schedule(self.sim.now, self._btick, name="btick")

    def advance_to(self, t: float) -> None:
        """Fire every behavioural event with ``time <= t`` (inclusive)."""
        self.env.run_until(t)

    def advance_before(self, t: float) -> None:
        """Fire events with ``time < t``, leaving ``t`` itself queued.

        The closing-staff sweep's half-open advance (rule 2): events due
        at the sweep's instant fold in the ``btick`` that follows it.
        """
        self.env.run_before(t)

    def _btick(self) -> None:
        now = self.sim.now
        self.advance_to(now)
        nxt = min(now + self.tick, self.horizon)
        if nxt > now:
            self.sim.schedule(nxt, self._btick, name="btick")

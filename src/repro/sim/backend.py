"""Tick backend: how the per-machine event loop is driven in batches.

Phase 1 of the columnar kernel vectorised the DDC probing pass; the
behavioural event loop -- boots, logins, workload redraws, sweeps --
stayed one engine event per machine transition on the shared heap.  This
module is phase 2: the behavioural events move off the probing engine's
heap onto a private micro-engine that is advanced in 15-minute batches,
one outer ``btick`` event per DDC sampling period.

:class:`TickBackend` is deliberately draw-for-draw exact:

- Agents schedule on the inner :class:`~repro.sim.engine.Simulator`
  unchanged -- same callbacks, same per-machine RNG streams, same
  event times.  The inner clock is advanced to each event's scheduled
  time before its callback runs, so every accumulator fold sees the
  same ``now`` as the flat single-heap run.
- ``btick`` at ``t = k * tick`` fires *before* the DDC iteration at the
  same instant (it is scheduled earlier, by ``FleetSimulator.start``
  running before ``DdcCoordinator.start``, and the chain preserves that
  seq ordering inductively), so every behavioural event with
  ``time <= t`` has folded into the columnar mirror before the pass
  reads it -- exactly the state a flat run presents at that instant.
- Within one machine, events keep their relative (time, scheduling
  order) -- the inner engine's FIFO tie-break mirrors the outer one.
  *Across* machines the interleaving at equal timestamps can differ
  from the flat run, which is unobservable: agents touch only their own
  machine and draw only from their own stream.

The one deviation: a behavioural event due at *exactly* a tick
boundary fires inside the boundary's batch, before that instant's DDC
pass, even when it was scheduled after the pass's iteration event and
so fires after the pass on the flat heap.  Most behavioural event times
are continuous draws (boots at ``start + U``, session ends at
``start + lognormal``) and rarely tie a boundary, but a session end
clamped to the 04:00 or Saturday 21:00 closing time lands on one by
construction, so these ties are systematic: the probe then reads the
post-event state and one sample differs from the object pass.  The
midnight planning events keep their ordering against the pass.  This
is the "Known defect" paragraph of ``docs/columnar.md`` ("Phase 2").

``docs/columnar.md`` ("Phase 2") carries the full equivalence argument;
``tests/test_columnar_equivalence.py`` pins it byte-for-byte.
"""

from __future__ import annotations

from repro.sim.engine import Simulator

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
        probing pass observes a fully advanced mirror.
    horizon:
        End of the run; the chain stops there (firing a final batch at
        the horizon itself so per-stream RNG cursors match the flat
        run's exactly).
    """

    def __init__(self, sim: Simulator, tick: float, horizon: float):
        if tick <= 0:
            raise ValueError(f"tick period must be positive, got {tick!r}")
        self.sim = sim
        self.tick = float(tick)
        self.horizon = float(horizon)
        #: The agents' scheduling environment: a private engine with the
        #: same ``schedule``/``now`` contract as the outer one.
        self.env = Simulator(start=sim.now)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Chain the first batch event onto the outer engine (idempotent).

        Must run before the coordinator schedules its first iteration so
        the batch at each shared instant keeps the lower sequence number.
        """
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.sim.now, self._btick, name="btick")

    def advance_to(self, t: float) -> None:
        """Fire every behavioural event with ``time <= t`` (inclusive)."""
        self.env.run_until(t)

    def advance_before(self, t: float) -> None:
        """Fire events with ``time < t``, leaving ``t`` itself queued.

        The closing-staff sweep needs this half-open advance: on the
        flat heap the sweep (scheduled at fleet start, hence with the
        lowest sequence number at its instant) fires *before* any
        behavioural event sharing its timestamp -- a session end clamped
        to closing time, say.  The boundary events then fold in the
        ``btick`` that follows the sweep at the same instant, before the
        probing pass reads the mirror, exactly as they do flat.
        """
        self.env.run_before(t)

    def _btick(self) -> None:
        now = self.sim.now
        self.advance_to(now)
        nxt = min(now + self.tick, self.horizon)
        if nxt > now:
            self.sim.schedule(nxt, self._btick, name="btick")

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Entries still queued on the private engine (tests/debugging)."""
        return len(self.env)

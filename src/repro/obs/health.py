"""Worker-health vocabulary and metric exports for campaign shards.

The campaign coordinator (:mod:`repro.shard.coordinator`) tracks one
health state per shard lease and mirrors it into the campaign's
:class:`~repro.obs.metrics.MetricsRegistry` so an exported snapshot is
self-describing:

- ``shard.worker_state{shard=k}`` gauge -- the state's ordinal in
  :data:`WORKER_STATES` (stable, so dashboards can threshold on it);
- ``shard.heartbeats{shard=k}`` counter -- heartbeats received;
- ``shard.restarts{shard=k}`` counter -- lease regrants burned;
- ``shard.last_iteration{shard=k}`` gauge -- last iteration the worker
  reported complete.

States
------
``STARTING``
    Lease granted, no heartbeat yet.
``RUNNING``
    Heartbeats arriving within the liveness deadline.
``DEGRADED``
    Last heartbeat is older than ``degraded_after`` -- the worker may
    be stuck in a long iteration or dying; no action yet.
``PAUSED``
    The worker acknowledged a PAUSE steering command at an iteration
    boundary and is idling (still heartbeating).
``DEAD``
    Liveness deadline blown, or the worker failed, died or
    disconnected without delivering an outcome; the lease is revoked
    and the coordinator regrants it after backoff (or gives up).
``STOPPED``
    The worker acknowledged STOP and exited cleanly mid-run.
``DONE``
    The worker delivered its shard outcome.
``LOST``
    With ``allow_partial``: the shard's lease regrant budget is
    exhausted and the campaign settled it through the degraded merge
    (``docs/distributed.md``).

The coordinator additionally exports wire-level metrics for both
worker sources through :func:`record_net_connect`,
:func:`record_net_disconnect`, :func:`record_net_message`,
:func:`record_lease_grant` and :func:`record_lease_expiry`.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "STARTING",
    "RUNNING",
    "DEGRADED",
    "PAUSED",
    "DEAD",
    "STOPPED",
    "DONE",
    "LOST",
    "WORKER_STATES",
    "worker_state_code",
    "record_worker_state",
    "record_worker_heartbeat",
    "record_worker_restart",
    "record_net_connect",
    "record_net_disconnect",
    "record_net_message",
    "record_lease_grant",
    "record_lease_expiry",
]

STARTING = "starting"
RUNNING = "running"
DEGRADED = "degraded"
PAUSED = "paused"
DEAD = "dead"
STOPPED = "stopped"
DONE = "done"
LOST = "lost"

#: All states, in ordinal order (the gauge encoding).  New states are
#: only ever appended so existing ordinals stay stable.
WORKER_STATES = (STARTING, RUNNING, DEGRADED, PAUSED, DEAD, STOPPED, DONE,
                 LOST)

_STATE_CODES = {name: code for code, name in enumerate(WORKER_STATES)}


def worker_state_code(state: str) -> int:
    """Stable ordinal of a worker state (for the gauge encoding)."""
    try:
        return _STATE_CODES[state]
    except KeyError:
        raise ValueError(
            f"unknown worker state {state!r}; expected one of "
            f"{WORKER_STATES}"
        ) from None


def record_worker_state(metrics: Optional[MetricsRegistry], shard: int,
                        state: str) -> None:
    """Mirror a worker's health state into the campaign metrics."""
    code = worker_state_code(state)  # validate even when unobserved
    if metrics is None:
        return
    metrics.gauge("shard.worker_state", shard=str(shard)).set(code)


def record_worker_heartbeat(metrics: Optional[MetricsRegistry], shard: int,
                            iteration: int) -> None:
    """Count a heartbeat and advance the shard's iteration gauge."""
    if metrics is None:
        return
    metrics.counter("shard.heartbeats", shard=str(shard)).inc()
    metrics.gauge("shard.last_iteration", shard=str(shard)).set(iteration)


def record_worker_restart(metrics: Optional[MetricsRegistry],
                          shard: int) -> None:
    """Count one lease regrant of a shard."""
    if metrics is None:
        return
    metrics.counter("shard.restarts", shard=str(shard)).inc()


# ----------------------------------------------------------------------
# Wire-level health of the networked control plane (repro.shard.net)
# ----------------------------------------------------------------------

def record_net_connect(metrics: Optional[MetricsRegistry],
                       connected: int) -> None:
    """Count one accepted worker connection; gauge the connected pool."""
    if metrics is None:
        return
    metrics.counter("net.connects").inc()
    metrics.gauge("net.workers_connected").set(connected)


def record_net_disconnect(metrics: Optional[MetricsRegistry],
                          connected: int) -> None:
    """Count one lost worker connection; gauge the connected pool."""
    if metrics is None:
        return
    metrics.counter("net.disconnects").inc()
    metrics.gauge("net.workers_connected").set(connected)


def record_net_message(metrics: Optional[MetricsRegistry],
                       direction: str) -> None:
    """Count one protocol message moved (``direction``: sent/received)."""
    if metrics is None:
        return
    metrics.counter("net.messages", direction=direction).inc()


def record_lease_grant(metrics: Optional[MetricsRegistry],
                       shard: int) -> None:
    """Count one lease grant (first grant and every regrant) of a shard."""
    if metrics is None:
        return
    metrics.counter("net.lease_grants", shard=str(shard)).inc()


def record_lease_expiry(metrics: Optional[MetricsRegistry],
                        shard: int) -> None:
    """Count one liveness-deadline lease expiry of a shard."""
    if metrics is None:
        return
    metrics.counter("net.lease_expiries", shard=str(shard)).inc()

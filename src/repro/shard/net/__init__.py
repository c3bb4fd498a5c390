"""The wire layer of the campaign control plane.

Every campaign worker -- a TCP peer or a child the coordinator forked
over a socketpair -- talks to :class:`repro.shard.coordinator
.CampaignCoordinator` through these layers: it receives shard tasks as
revocable *leases*, streams framed heartbeats back, and returns its
:class:`~repro.shard.worker.ShardOutcome` as a frame.  Over TCP the
coordinator also absorbs the failure modes only sockets have:
disconnects, partitions, slow links, duplicated messages.

Layers, bottom up:

- :mod:`~repro.shard.net.framing` -- length-prefixed CRC-checked frames
  over a socket, with deterministic fault injection hooks;
- :mod:`~repro.shard.net.protocol` -- the message vocabulary;
- :mod:`~repro.shard.net.lease` -- revocable shard leases with epochs
  and regrant budgets;
- :mod:`~repro.shard.net.registry` -- connected-worker registry scored
  by :class:`~repro.resilience.health.HealthTracker`;
- :mod:`~repro.shard.net.worker` -- the worker loop (hello, lease, run,
  report; TCP workers reconnect-with-resume);
- :mod:`~repro.shard.net.config` -- endpoint parsing and the
  :class:`NetConfig` knob bundle consumed by ``run_experiment(net=)``.

Frames are pickles: a TCP endpoint must be reachable only from trusted
hosts.  See ``docs/distributed.md`` for the protocol walk-through and
the failure matrix.
"""

from repro.shard.net.config import NetConfig, parse_endpoint
from repro.shard.net.framing import FramedChannel
from repro.shard.net.lease import Lease, LeaseTable
from repro.shard.net.registry import WorkerEntry, WorkerRegistry
from repro.shard.net.worker import NetWorkerPolicy, run_worker, spawn_local_workers

__all__ = [
    "NetConfig",
    "parse_endpoint",
    "FramedChannel",
    "Lease",
    "LeaseTable",
    "WorkerEntry",
    "WorkerRegistry",
    "NetWorkerPolicy",
    "run_worker",
    "spawn_local_workers",
]

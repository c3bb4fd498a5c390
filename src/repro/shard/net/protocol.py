"""Message vocabulary of the coordinator/worker wire protocol.

Every message is a frozen dataclass carried by
:class:`~repro.shard.net.framing.FramedChannel` as one frame, or as
several when its pickle exceeds the frame ceiling (a large
``Outcome``).  The conversation::

    worker                         coordinator
      | -- Hello ------------------->  |   register / score
      | <------------------ Welcome -- |   (or Reject)
      | <------------------- Assign -- |   lease grant (epoch, task)
      | -- Heartbeat (xN) ---------->  |   liveness + progress
      | <------------------ Command -- |   pause / resume / stop / revoke
      | -- Ack --------------------->  |   command acknowledged
      | -- Outcome  or  Failure ---->  |   lease settles
      | <--------------------- Wait -- |   nothing grantable right now
      | <---------------------- Bye -- |   campaign over, disconnect

Every lease-scoped message carries the lease *epoch*; the coordinator
ignores messages from stale epochs (a zombie worker that lost its lease
during a partition) and answers them with ``Command("revoke")``.

Messages cross a pickle boundary, so they must stay plain data: no
sockets, no locks, no open files.  ``Assign.task`` is a
:class:`~repro.shard.worker.ShardTask`, picklable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "Hello",
    "Welcome",
    "Reject",
    "Assign",
    "Wait",
    "Bye",
    "Command",
    "Heartbeat",
    "Ack",
    "Outcome",
    "Failure",
    "COMMAND_VERBS",
]

#: Bumped on any incompatible wire change; ``Hello``/``Welcome`` check it.
#: Version 2 splits a message above the frame ceiling into several
#: frames (:data:`repro.shard.net.framing.MORE`).
PROTOCOL_VERSION = 2

#: Verbs a :class:`Command` may carry.
COMMAND_VERBS = ("pause", "resume", "stop", "revoke")


# -- worker -> coordinator ----------------------------------------------

@dataclass(frozen=True)
class Hello:
    """First message on every connection: identify and offer capacity."""

    worker_id: str
    pid: int
    host: str
    protocol: int = PROTOCOL_VERSION
    capabilities: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Heartbeat:
    """Per-iteration liveness beacon from a leased worker."""

    shard: int
    epoch: int
    iteration: int
    sim_time: float


@dataclass(frozen=True)
class Ack:
    """Acknowledgement of a steering command at an iteration boundary."""

    kind: str  # the verb being acknowledged: "pause" | "resume" | "stop"
    shard: int
    epoch: int
    iteration: int


@dataclass(frozen=True)
class Outcome:
    """A completed shard: the worker's ``ShardOutcome``, wire-slimmed."""

    shard: int
    epoch: int
    outcome: Any


@dataclass(frozen=True)
class Failure:
    """The shard task raised; the worker survives and awaits a regrant."""

    shard: int
    epoch: int
    message: str
    iteration: int = -1


# -- coordinator -> worker ----------------------------------------------

@dataclass(frozen=True)
class Welcome:
    """Registration accepted; campaign parameters the worker needs."""

    campaign_id: str
    n_shards: int
    heartbeat_every: int
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Reject:
    """Registration refused (protocol mismatch, duplicate id, ...)."""

    reason: str


@dataclass(frozen=True)
class Assign:
    """A lease grant: run this task under this epoch."""

    epoch: int
    task: Any  # ShardTask; typed loosely to keep the wire layer thin


@dataclass(frozen=True)
class Wait:
    """Nothing grantable; ask again after roughly ``seconds``."""

    seconds: float


@dataclass(frozen=True)
class Command:
    """Steering: pause/resume/stop the leased run, or revoke the lease."""

    verb: str

    def __post_init__(self) -> None:
        if self.verb not in COMMAND_VERBS:
            raise ValueError(
                f"unknown command verb {self.verb!r}; "
                f"expected one of {COMMAND_VERBS}"
            )


@dataclass(frozen=True)
class Bye:
    """Campaign finished (or worker dismissed); close the connection."""

    reason: str = "campaign complete"


def lease_scoped(message: Any) -> Optional[Tuple[int, int]]:
    """``(shard, epoch)`` of a lease-scoped message, else ``None``.

    The coordinator uses this to fence stale-epoch traffic uniformly
    instead of special-casing every message type.
    """
    if isinstance(message, (Heartbeat, Ack, Outcome, Failure)):
        return message.shard, message.epoch
    return None

"""The shard worker loop: say hello, take leases, run them, report back.

A worker process is campaign-agnostic: it knows only a channel to the
campaign coordinator (:mod:`repro.shard.coordinator`) and its own
identity.  It says ``Hello`` and then does whatever the coordinator
leases to it.  The channel is either a TCP connection (:func:`run_worker`,
``repro worker``, ``--workers``) or one end of a socketpair the
coordinator forked this process with (:func:`serve_socket`, a local
campaign).  The loop survives every failure the control plane is
designed around:

- **channel loss mid-run** -- a failed heartbeat or command read raises
  through the simulation loop, so :func:`~repro.shard.worker.gather_shard`
  hard-stops the shard's recovery runtime exactly as a process crash
  would (handles dropped, journal torn, no seal); the worker then
  reconnects with bounded backoff (a local child, which has no way
  back, exits instead) and, when the coordinator regrants the shard,
  the next holder resumes from its ``shard-<k>/`` checkpoints;
- **lease revocation** -- a ``revoke`` command mid-run abandons the
  task the same hard-stop way, but keeps the connection: the lease now
  belongs to someone else and this worker idles for other work;
- **task failure** -- the shard task raising (including injected
  crashes from the chaos harness) is reported as a ``Failure`` message
  and the worker *stays up*, ready for the regrant.

Workers never carry a fault plan: all injection happens on the
coordinator's side of the wire, where the single ledger keeps the chaos
schedule deterministic.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import NetworkError
from repro.shard.net.config import parse_endpoint
from repro.shard.net.framing import FramedChannel
from repro.shard.net.protocol import (
    PROTOCOL_VERSION,
    Ack,
    Assign,
    Bye,
    Command,
    Failure,
    Heartbeat,
    Hello,
    Outcome,
    Reject,
    Wait,
    Welcome,
)
from repro.shard.worker import execute_shard_task

__all__ = ["NetWorkerPolicy", "NetWorkerControl", "run_worker",
           "local_worker_id", "serve_socket", "spawn_local_workers"]

#: Poll cadence while paused (seconds); each poll also re-heartbeats.
_PAUSE_POLL = 0.05


class _ChannelLost(Exception):
    """Internal: the coordinator connection died mid-conversation."""


class _LeaseRevoked(Exception):
    """Internal: the coordinator revoked the lease being executed."""


@dataclass(frozen=True)
class NetWorkerPolicy:
    """Worker-side networking knobs.

    ``connect_attempts`` bounds each (re)connect cycle with the control
    plane's standard capped multiplicative backoff; ``idle_timeout`` is
    how long a connected worker waits in silence before declaring the
    coordinator gone and reconnecting (the coordinator keepalives idle
    workers well inside this).
    """

    connect_attempts: int = 10
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 2.0
    io_timeout: float = 5.0
    idle_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.connect_attempts < 1:
            raise ValueError("connect_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.io_timeout <= 0 or self.idle_timeout <= 0:
            raise ValueError("timeouts must be positive")

    def connect_delay(self, attempt: int) -> float:
        """Backoff before connect ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ValueError("connect attempts are 1-based")
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_multiplier ** (attempt - 1))


class NetWorkerControl:
    """Steering endpoint of one leased run.

    Installed as the worker's :class:`~repro.shard.gather.PassRecorder`
    control hook, so it runs at every recorded instant -- after the
    recovery hook, meaning a heartbeat only ever reports *durable*
    progress.
    Heartbeats go out as framed messages, steering commands are polled
    off the same channel, PAUSE idles here (still heartbeating), STOP
    rides the engine's cooperative stop.  Channel failures and
    revocations escape as exceptions so the simulation loop's hard-stop
    discipline fires.
    """

    def __init__(self, shard_index: int, epoch: int,
                 channel: FramedChannel, *, heartbeat_every: int = 1):
        self.shard_index = shard_index
        self.epoch = epoch
        self._channel = channel
        self.heartbeat_every = max(1, heartbeat_every)
        self.last_iteration = -1
        self.paused = False
        self.stopped = False
        self._sim = None
        self._last_t = 0.0

    def bind(self, sim) -> None:
        """Attach the simulator STOP will be delivered to."""
        self._sim = sim

    # -- the coordinator hook ------------------------------------------
    def on_iteration(self, k: int, t: float, ran: bool) -> None:
        self.last_iteration = k
        self._last_t = t
        if k % self.heartbeat_every == 0:
            self._send(Heartbeat(self.shard_index, self.epoch, k, t))
        self._apply_pending()
        while self.paused and not self.stopped:
            self._idle_once()

    # -- channel plumbing ----------------------------------------------
    def _send(self, message) -> None:
        try:
            self._channel.send(message)
        except NetworkError as exc:
            raise _ChannelLost(str(exc)) from exc

    def _poll(self, timeout: float):
        try:
            return self._channel.poll(timeout)
        except NetworkError as exc:
            raise _ChannelLost(str(exc)) from exc

    def _apply_pending(self) -> None:
        while True:
            message = self._poll(0.0)
            if message is None:
                return
            self._apply(message)

    def _idle_once(self) -> None:
        message = self._poll(_PAUSE_POLL)
        if message is None:
            # Keep the lease's liveness deadline fed while idling.
            self._send(Heartbeat(self.shard_index, self.epoch,
                                 self.last_iteration, self._last_t))
            return
        self._apply(message)

    def _apply(self, message) -> None:
        if not isinstance(message, Command):
            return  # stray frame (e.g. a keepalive Wait); ignore
        if message.verb == "pause" and not self.paused:
            self.paused = True
            self._send(Ack("pause", self.shard_index, self.epoch,
                           self.last_iteration))
        elif message.verb == "resume" and self.paused:
            self.paused = False
            self._send(Ack("resume", self.shard_index, self.epoch,
                           self.last_iteration))
        elif message.verb == "stop":
            self.stopped = True
            self.paused = False
            if self._sim is not None:
                self._sim.request_stop()
            self._send(Ack("stop", self.shard_index, self.epoch,
                           self.last_iteration))
        elif message.verb == "revoke":
            raise _LeaseRevoked(
                f"shard {self.shard_index} lease epoch {self.epoch} revoked"
            )


# ----------------------------------------------------------------------
def _connect(host: str, port: int,
             policy: NetWorkerPolicy) -> Optional[FramedChannel]:
    """One bounded connect cycle; ``None`` when the budget is exhausted."""
    for attempt in range(1, policy.connect_attempts + 1):
        try:
            sock = socket.create_connection((host, port),
                                            timeout=policy.io_timeout)
            return FramedChannel(sock, io_timeout=policy.io_timeout)
        except OSError:
            if attempt < policy.connect_attempts:
                time.sleep(policy.connect_delay(attempt))
    return None


def _session(channel: FramedChannel, worker_id: str,
             policy: NetWorkerPolicy,
             capabilities: Dict[str, Any]) -> Optional[int]:
    """One connection's conversation; ``None`` means reconnect.

    Returns the process exit code when the conversation ends cleanly
    (``Bye`` -> 0, ``Reject`` -> 2); raises ``NetworkError`` /
    ``_ChannelLost`` when the connection dies, which the caller answers
    with a reconnect cycle.
    """
    channel.send(Hello(worker_id=worker_id, pid=os.getpid(),
                       host=socket.gethostname(),
                       capabilities=capabilities))
    reply = channel.recv(timeout=policy.io_timeout)
    if isinstance(reply, Reject):
        return 2
    if not isinstance(reply, Welcome):
        raise _ChannelLost(f"expected Welcome, got {type(reply).__name__}")
    heartbeat_every = reply.heartbeat_every
    while True:
        message = channel.recv(timeout=policy.idle_timeout)
        if isinstance(message, Bye):
            return 0
        if isinstance(message, (Wait, Command)):
            continue  # keepalive / steering outside a lease: nothing to do
        if not isinstance(message, Assign):
            continue
        control = NetWorkerControl(
            message.task.shard.index, message.epoch, channel,
            heartbeat_every=heartbeat_every,
        )
        try:
            outcome = execute_shard_task(message.task, control=control)
        except (_ChannelLost, NetworkError) as exc:
            # The shard already hard-stopped its recovery runtime (the
            # torn-journal crash discipline); reconnect and resume.
            raise _ChannelLost(str(exc)) from exc
        except _LeaseRevoked:
            continue  # shard belongs to someone else now; stay for work
        except Exception as exc:
            # The task itself failed (including injected chaos crashes):
            # report it and stay alive for the regrant.
            channel.send(Failure(
                control.shard_index, control.epoch,
                f"{type(exc).__name__}: {exc}", control.last_iteration,
            ))
            continue
        outcome.last_iteration = max(outcome.last_iteration,
                                     control.last_iteration)
        channel.send(Outcome(control.shard_index, control.epoch, outcome))


def run_worker(
    endpoint: str,
    *,
    worker_id: Optional[str] = None,
    policy: Optional[NetWorkerPolicy] = None,
    capabilities: Optional[Dict[str, Any]] = None,
) -> int:
    """Serve a coordinator until dismissed; returns a process exit code.

    0: dismissed cleanly (``Bye``); 1: the coordinator could not be
    (re)reached within the connect budget; 2: registration rejected.
    """
    host, port = parse_endpoint(endpoint)
    policy = policy or NetWorkerPolicy()
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    caps = dict(capabilities or {})
    caps.setdefault("protocol", PROTOCOL_VERSION)
    caps.setdefault("pid", os.getpid())
    while True:
        channel = _connect(host, port, policy)
        if channel is None:
            return 1
        try:
            code = _session(channel, worker_id, policy, caps)
        except (NetworkError, _ChannelLost):
            channel.close()
            continue  # reconnect-with-resume
        finally:
            if not channel.closed:
                channel.close()
        if code is not None:
            return code


def serve_socket(
    sock: socket.socket,
    worker_id: str,
    *,
    policy: Optional[NetWorkerPolicy] = None,
) -> int:
    """Serve the coordinator over one connected socket; no reconnect.

    The entry of a local campaign's forked children: the socketpair end
    is the only way back to the coordinator, so a lost channel ends the
    worker (exit code 1) instead of starting a reconnect cycle.
    """
    policy = policy or NetWorkerPolicy()
    channel = FramedChannel(sock, io_timeout=policy.io_timeout)
    caps = {"protocol": PROTOCOL_VERSION, "pid": os.getpid()}
    try:
        return _session(channel, worker_id, policy, caps)
    except (NetworkError, _ChannelLost):
        return 1
    finally:
        channel.close()


def _worker_entry(endpoint: str, worker_id: str, policy) -> None:
    """Child-process entry point for locally spawned workers."""
    sys.exit(run_worker(endpoint, worker_id=worker_id, policy=policy))


def local_worker_id(index: int) -> str:
    """The worker id :func:`spawn_local_workers` gives its ``index``-th
    process."""
    return f"w{index}"


def spawn_local_workers(
    endpoint: str,
    n: int,
    *,
    policy: Optional[NetWorkerPolicy] = None,
) -> List:
    """Launch ``n`` local TCP worker processes aimed at ``endpoint``.

    The ``--workers`` CLI mode and the loopback test topology: the
    campaign process is the coordinator, the shard work happens in these
    children.  Workers are daemons -- a dying campaign never leaks them.
    """
    import multiprocessing as mp

    ctx = mp.get_context()
    processes = []
    for i in range(n):
        proc = ctx.Process(
            target=_worker_entry,
            args=(endpoint, local_worker_id(i), policy),
            name=f"repro-net-worker-{i}",
            daemon=True,
        )
        proc.start()
        processes.append(proc)
    return processes

"""The campaign coordinator: the one control plane of a sharded campaign.

The paper's DDC was one coordinator that drove every probe, tolerated
dead machines and ran unattended for 77 days.  A sharded campaign has
the same shape one level up.  :class:`CampaignCoordinator` grants each
shard to a worker as an epoch-fenced *lease*
(:mod:`repro.shard.net.lease`), watches heartbeats, regrants a dead
holder's shard with capped multiplicative backoff, relays
PAUSE/RESUME/STOP steering and mirrors every shard's health into the
campaign manifest.  Workers come from one of two sources and speak the
same framed protocol (:mod:`repro.shard.net.protocol`) either way:

- **local children** (``endpoint=None``; every ``shards>1`` run
  without ``net=``, and campaign resumes): the coordinator forks one
  worker process per shard.  Each child holds one end of a
  :func:`socket.socketpair` and runs the worker loop of
  :mod:`repro.shard.net.worker`.  No port is opened: frames are
  pickles, so a local campaign must not accept connections from other
  local users.  A dead child surfaces as EOF on its socket, which
  arrives only after every frame the child sent has been read, so an
  outcome sent just before exit is never lost.  The child is reaped,
  and a replacement is forked when a shard is grantable and no child
  is idle;
- **TCP connections** (``endpoint="tcp://host:port"``; ``net=``):
  workers connect, say ``Hello`` and are leased shards.  Death is
  inferred from connection loss or a lease liveness deadline blown
  during a partition.

Either way, recovery means **regranting the lease**: the shard's
journal+checkpoint namespace (``shard-<k>/``) lives on the
worker-visible filesystem, so the next holder resumes exactly where the
last one durably left off; without recovery the shard re-runs from
scratch, which the deterministic simulation makes merge-equivalent.  A
shard whose regrant budget is exhausted fails the campaign with
:class:`~repro.errors.ShardWorkerError` (a recovery campaign stays
resumable) or, with ``allow_partial``, is settled as LOST and the
campaign concludes through the degraded merge
(:func:`repro.shard.merge.merge_degraded`) with an explicit partial
manifest -- never a hang, never silent truncation.

Threading: one reader thread per connection (and, for TCP, one
acceptor thread) pushes events into a queue; the main :meth:`run` loop
is the only writer of coordinator state and the only sender on
channels, so connections, leases, registry and manifest need no locks.
Steering calls from other threads route through the same event queue.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import queue
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import (
    CampaignStopped,
    ChannelTimeout,
    NetworkError,
    ShardWorkerError,
)
from repro.faults.network import NetworkFaultPlan
from repro.obs import health
from repro.obs.observer import Observer
from repro.recovery.manifest import CampaignManifest, journal_digest
from repro.recovery.runtime import RecoveryInfo
from repro.shard.net.config import format_endpoint, parse_endpoint
from repro.shard.net.framing import FramedChannel
from repro.shard.net.lease import ACTIVE, LOST, Lease, LeaseTable
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
    lease_scoped,
)
from repro.shard.net.registry import WorkerRegistry
from repro.shard.net.worker import NetWorkerPolicy, serve_socket
from repro.shard.worker import ShardOutcome, ShardTask

__all__ = ["CampaignPolicy", "CampaignReport", "CampaignCoordinator"]


@dataclass(frozen=True)
class CampaignPolicy:
    """Coordinator knobs: cadences, deadlines, the regrant budget.

    Parameters
    ----------
    heartbeat_every:
        Workers heartbeat every N completed iterations (shipped to them
        in ``Welcome``; the paper's 15-minute cadence makes even 1
        cheap).
    degraded_after / lease_timeout:
        Seconds of heartbeat silence before a leased shard is marked
        DEGRADED (observability only) respectively its holder is fenced
        and the lease revoked.  Measured from message *receive* times
        on the coordinator's **monotonic** clock: wall-clock time jumps
        under NTP steps and would spuriously declare workers dead.
    max_regrants:
        Regrants allowed per shard after its first grant.
    backoff_base / backoff_multiplier / backoff_cap:
        A revoked lease becomes grantable again after
        ``min(cap, base * multiplier**(n-1))`` seconds before regrant n
        -- the resilience breaker's capped multiplicative cooldown.
        The step also serves as the fence: in-flight traffic from the
        fenced holder drains and is discarded by the epoch check.
    join_timeout:
        Seconds the coordinator tolerates having unsettled shards, no
        active leases and no worker messages before failing the
        campaign -- the no-hang guarantee when workers never show up.
    poll_interval:
        Event-loop tick (seconds).
    io_timeout:
        Per-frame read/write deadline on worker channels.
    wait_hint:
        Cadence of ``Wait`` keepalives to idle workers (also the retry
        hint they carry).
    allow_partial:
        Settle budget-exhausted shards as LOST and conclude with the
        degraded merge instead of raising.  All shards lost always
        raises -- an empty campaign is a failure, not a result.
        ``NetConfig`` turns it on by default.
    """

    heartbeat_every: int = 1
    degraded_after: float = 5.0
    lease_timeout: float = 30.0
    max_regrants: int = 2
    backoff_base: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_cap: float = 5.0
    join_timeout: float = 30.0
    poll_interval: float = 0.05
    io_timeout: float = 5.0
    wait_hint: float = 0.5
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.heartbeat_every < 1:
            raise ValueError("heartbeat_every must be at least 1")
        if self.degraded_after <= 0 or self.lease_timeout <= 0:
            raise ValueError("liveness deadlines must be positive")
        if self.lease_timeout < self.degraded_after:
            raise ValueError("lease_timeout must be >= degraded_after")
        if self.max_regrants < 0:
            raise ValueError("max_regrants must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.join_timeout <= 0:
            raise ValueError("join_timeout must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.io_timeout <= 0:
            raise ValueError("io_timeout must be positive")
        if self.wait_hint <= 0:
            raise ValueError("wait_hint must be positive")

    def regrant_delay(self, n: int) -> float:
        """Backoff before regrant ``n`` (1-based), capped."""
        if n < 1:
            raise ValueError("regrants are 1-based")
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_multiplier ** (n - 1))


@dataclass
class CampaignReport:
    """What the coordinator observed across one campaign run."""

    n_shards: int
    run_dir: Optional[Path]
    #: Final :mod:`repro.obs.health` state per shard.
    states: Dict[int, str]
    #: Lease regrants burned per shard.
    restarts: Dict[int, int]
    heartbeats: Dict[int, int]
    last_iterations: Dict[int, int]
    #: Per-shard recovery summary from the final lease holder (``None``
    #: for shards run without recovery).
    recovery: Dict[int, Optional[RecoveryInfo]] = field(default_factory=dict)
    #: Shards settled as LOST past their regrant budget under
    #: ``allow_partial`` and excluded from the (degraded) merge.
    lost_shards: Tuple[int, ...] = ()

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())


@dataclass
class _Conn:
    """Coordinator-side record of one worker connection."""

    conn_id: int
    channel: FramedChannel
    worker_id: Optional[str] = None


def _child_entry(sock: socket.socket, worker_id: str,
                 policy: NetWorkerPolicy) -> None:
    """Entry point of a forked local worker."""
    sys.exit(serve_socket(sock, worker_id, policy=policy))


def _reap(process, *, grace: float) -> Optional[int]:
    """Join a local child, terminating it if it outlives ``grace``."""
    process.join(timeout=grace)
    if process.exitcode is None:
        process.terminate()
        process.join(timeout=2.0)
    return process.exitcode


class CampaignCoordinator:
    """Drive one campaign's shards to settlement (see module docstring).

    Parameters
    ----------
    tasks:
        One :class:`~repro.shard.worker.ShardTask` per shard.  Tasks
        carrying ``recovery`` are regranted as resumes; tasks without
        re-run from scratch (merge-equivalent by determinism).
    endpoint:
        ``None`` (the default) forks one local worker per shard and
        opens no port.  ``tcp://host:port`` listens there for TCP
        workers instead; port 0 binds an ephemeral port, exposed
        through :attr:`endpoint` after construction.
    policy:
        :class:`CampaignPolicy` (defaults are production-shaped; chaos
        tests shrink the deadlines and backoff).
    observer:
        Campaign-level observer for the worker-health metrics
        (:mod:`repro.obs.health`).
    manifest / run_dir:
        Campaign manifest to keep current (recovery campaigns only);
        ``run_dir`` is the campaign root it is persisted under.
    faults:
        Optional :class:`~repro.faults.network.NetworkFaultPlan`
        applied to every worker channel (coordinator side only).
    clock:
        Time source for liveness deadlines, regrant backoff and
        manifest throttling.  Must stay monotonic; injectable so
        liveness tests can drive deadlines without sleeping.
    """

    #: Seconds between manifest rewrites driven by heartbeat traffic.
    _MANIFEST_EVERY = 1.0

    def __init__(
        self,
        tasks: Sequence[ShardTask],
        *,
        endpoint: Optional[str] = None,
        policy: Optional[CampaignPolicy] = None,
        observer: Optional[Observer] = None,
        manifest: Optional[CampaignManifest] = None,
        run_dir: Optional[Union[str, Path]] = None,
        faults: Optional[NetworkFaultPlan] = None,
        clock=time.monotonic,
    ):
        if not tasks:
            raise ValueError("a coordinator needs at least one shard task")
        indexes = [t.shard.index for t in tasks]
        if len(set(indexes)) != len(indexes):
            raise ValueError("shard tasks must have distinct indexes")
        self.policy = policy or CampaignPolicy()
        self.manifest = manifest
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._metrics = (observer.metrics if observer is not None
                         and observer.enabled else None)
        self._faults = faults
        self._clock = clock
        self._tasks: Dict[int, ShardTask] = {t.shard.index: t for t in tasks}
        self.leases = LeaseTable(sorted(indexes))
        self.registry = WorkerRegistry()
        self._events: "queue.Queue" = queue.Queue()
        self._conns: Dict[int, _Conn] = {}
        self._conn_ids = itertools.count()
        #: Local children by the conn_id of their socketpair channel.
        self._children: Dict[int, multiprocessing.Process] = {}
        self._states: Dict[int, str] = {k: "pending" for k in indexes}
        self._restarts: Dict[int, int] = {k: 0 for k in indexes}
        self._heartbeats: Dict[int, int] = {k: 0 for k in indexes}
        self._outcomes: Dict[int, ShardOutcome] = {}
        self.lost_shards: List[int] = []
        #: Worker ids sent ``Bye`` at shutdown; a worker missing here held
        #: no connection then and never learns the campaign is over.
        self.dismissed: Set[str] = set()
        self._stop_requested = False
        self._paused = False
        self._ran = False
        self._closing = False
        self._manifest_written_at = -self._MANIFEST_EVERY
        self._last_activity = self._clock()
        self._last_keepalive = self._clock()
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        #: The bound TCP address (resolves port 0); ``None`` for a local
        #: campaign, which listens nowhere.
        self.endpoint: Optional[str] = None
        if endpoint is not None:
            host, port = parse_endpoint(endpoint)
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(16)
            self.endpoint = format_endpoint(
                host, self._listener.getsockname()[1])

    # ------------------------------------------------------------------
    # steering (safe to call from another thread while run() is live)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Ask every leased worker to idle at its iteration boundary."""
        self._events.put(("steer", "pause"))

    def resume(self) -> None:
        """Wake paused workers."""
        self._events.put(("steer", "resume"))

    def stop(self) -> None:
        """Stop the campaign cooperatively; run() raises CampaignStopped."""
        self._events.put(("steer", "stop"))

    def states(self) -> Dict[int, str]:
        """Current health state per shard (coordinator's view)."""
        return dict(sorted(self._states.items()))

    # ------------------------------------------------------------------
    # worker sources and per-connection readers
    # ------------------------------------------------------------------
    def _channel(self, sock: socket.socket) -> FramedChannel:
        return FramedChannel(sock, conn_id=next(self._conn_ids),
                             faults=self._faults,
                             io_timeout=self.policy.io_timeout)

    def _acceptor(self) -> None:
        # Closing a listener does NOT wake a thread blocked in accept()
        # on Linux, so the loop polls with a short timeout and re-checks
        # the shutdown flag instead of blocking indefinitely.
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # shutdown closed the listener before we started
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by shutdown
            self._events.put(("accepted", self._channel(sock)))

    def _fork_child(self) -> None:
        """Fork one local worker on a socketpair; queue the parent end."""
        parent_end, child_end = socket.socketpair()
        channel = self._channel(parent_end)
        worker_id = f"local-{channel.conn_id}"
        process = multiprocessing.get_context("fork").Process(
            target=_child_entry,
            args=(child_end, worker_id,
                  NetWorkerPolicy(io_timeout=self.policy.io_timeout)),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child holds its copy; closing ours makes the child's
        # death surface as EOF on the parent end.
        child_end.close()
        self._children[channel.conn_id] = process
        self._events.put(("accepted", channel))

    def _spare_children(self) -> int:
        """Local children holding no lease (including unregistered ones)."""
        spare = 0
        for conn_id in self._children:
            conn = self._conns.get(conn_id)
            entry = (self.registry.get(conn.worker_id)
                     if conn is not None and conn.worker_id else None)
            if entry is None or entry.shard is None:
                spare += 1
        return spare

    def _reader(self, conn: _Conn) -> None:
        while True:
            try:
                message = conn.channel.recv(timeout=1.0)
            except ChannelTimeout:
                if conn.channel.closed:
                    self._events.put(("lost", conn.conn_id, "closed"))
                    return
                continue  # idle link; keep listening
            except NetworkError as exc:
                self._events.put(("lost", conn.conn_id, str(exc)))
                return
            self._events.put(("msg", conn.conn_id, message))

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[ShardOutcome]]:
        """Drive the campaign to settlement; the campaign verb.

        Returns outcomes ordered by shard index, with ``None`` holes for
        shards settled as LOST (the degraded merge's input).  Raises
        :class:`~repro.errors.ShardWorkerError` when a shard exhausts
        its regrant budget with ``allow_partial`` off (or every shard is
        lost, or no worker speaks within ``join_timeout``), and
        :class:`~repro.errors.CampaignStopped` after STOP is honoured.
        """
        if self._ran:
            raise RuntimeError(
                "a CampaignCoordinator instance runs exactly once")
        self._ran = True
        try:
            if self._listener is None:
                for _ in self._tasks:
                    self._fork_child()
            else:
                acceptor = threading.Thread(target=self._acceptor,
                                            name="repro-net-acceptor",
                                            daemon=True)
                acceptor.start()
                self._threads.append(acceptor)
            while not self.leases.all_settled():
                if self._stop_requested and not self.leases.active():
                    break
                self._drain_events()
                now = self._clock()
                self._check_liveness(now)
                self._grant_leases(now)
                self._keepalive(now)
                self._check_stalled(now)
        except BaseException:
            self._write_manifest(state="failed", force=True)
            raise
        finally:
            self._shutdown()
        return self._conclude()

    # ------------------------------------------------------------------
    # event loop stages
    # ------------------------------------------------------------------
    def _drain_events(self) -> None:
        try:
            event = self._events.get(timeout=self.policy.poll_interval)
        except queue.Empty:
            return
        while True:
            self._apply_event(event)
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                return

    def _apply_event(self, event: tuple) -> None:
        kind = event[0]
        if kind == "steer":
            self._apply_steer(event[1])
            return
        if kind == "accepted":
            # Registration waits for Hello; the reader starts now.
            channel = event[1]
            conn = _Conn(conn_id=channel.conn_id, channel=channel)
            self._conns[conn.conn_id] = conn
            reader = threading.Thread(
                target=self._reader, args=(conn,),
                name=f"repro-net-reader-{conn.conn_id}", daemon=True)
            reader.start()
            self._threads.append(reader)
            return
        conn = self._conns.get(event[1])
        if conn is None:
            return  # connection already torn down
        if kind == "lost":
            self._on_conn_lost(conn, event[2])
            return
        self._last_activity = self._clock()
        message = event[2]
        health.record_net_message(self._metrics, "received")
        if isinstance(message, Hello):
            self._on_hello(conn, message)
            return
        if conn.worker_id is None:
            return  # protocol violation pre-Hello; ignore
        scoped = lease_scoped(message)
        if scoped is not None and not self._scope_current(conn, scoped):
            # Stale-epoch traffic from a fenced holder: tell it to
            # abandon the lease; drop the message.
            self._send(conn, Command("revoke"))
            return
        if isinstance(message, Heartbeat):
            self._on_heartbeat(conn, message)
        elif isinstance(message, Ack):
            self._on_ack(message)
        elif isinstance(message, Outcome):
            self._on_outcome(conn, message)
        elif isinstance(message, Failure):
            self._on_failure(conn, message)

    def _apply_steer(self, verb: str) -> None:
        if verb == "stop":
            self._stop_requested = True
        elif verb == "pause":
            self._paused = True
        elif verb == "resume":
            self._paused = False
        for lease in self.leases.active():
            conn = self._conn_of(lease.worker)
            if conn is not None:
                self._send(conn, Command(verb))

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _on_hello(self, conn: _Conn, hello: Hello) -> None:
        if hello.protocol != PROTOCOL_VERSION:
            self._send(conn, Reject(
                f"protocol {hello.protocol} unsupported; coordinator "
                f"speaks {PROTOCOL_VERSION}"
            ))
            self._close_conn(conn)
            return
        # A reconnecting identity supersedes its previous connection:
        # fence the old one first so its leases free up for regrant.
        for other in list(self._conns.values()):
            if (other.conn_id != conn.conn_id
                    and other.worker_id == hello.worker_id):
                self._on_conn_lost(other, "superseded by reconnect")
        self.registry.register(hello, conn.conn_id)
        conn.worker_id = hello.worker_id
        conn.channel.worker = hello.worker_id
        health.record_net_connect(self._metrics,
                                  self.registry.connected_count())
        campaign_id = (self.run_dir.name if self.run_dir is not None
                       else "campaign")
        self._send(conn, Welcome(campaign_id=campaign_id,
                                 n_shards=len(self._tasks),
                                 heartbeat_every=self.policy.heartbeat_every))

    def _scope_current(self, conn: _Conn, scoped) -> bool:
        shard, epoch = scoped
        lease = self.leases.leases.get(shard)
        return (lease is not None and lease.epoch == epoch
                and lease.state == ACTIVE
                and lease.worker == conn.worker_id)

    def _on_heartbeat(self, conn: _Conn, hb: Heartbeat) -> None:
        now = self._clock()
        lease = self.leases[hb.shard]
        lease.last_heartbeat = now
        lease.last_iteration = max(lease.last_iteration, hb.iteration)
        self.registry.heartbeat(conn.worker_id)
        self._heartbeats[hb.shard] += 1
        if self._states.get(hb.shard) in (health.STARTING, health.DEGRADED):
            self._set_state(hb.shard, health.RUNNING)
        health.record_worker_heartbeat(self._metrics, hb.shard,
                                       lease.last_iteration)
        self._note_progress(hb.shard, lease.last_iteration)
        self._write_manifest()

    def _on_ack(self, ack: Ack) -> None:
        lease = self.leases[ack.shard]
        lease.last_heartbeat = self._clock()
        lease.last_iteration = max(lease.last_iteration, ack.iteration)
        if ack.kind == "pause":
            self._set_state(ack.shard, health.PAUSED)
        elif ack.kind == "resume":
            self._set_state(ack.shard, health.RUNNING)

    def _on_outcome(self, conn: _Conn, msg: Outcome) -> None:
        outcome: ShardOutcome = msg.outcome
        lease = self.leases[msg.shard]
        lease.last_iteration = max(lease.last_iteration,
                                   outcome.last_iteration)
        lease.complete()
        self._outcomes[msg.shard] = outcome
        self._release(conn)
        self._set_state(msg.shard,
                        health.STOPPED if outcome.stopped else health.DONE)
        self._note_progress(msg.shard, lease.last_iteration)
        self._complete_in_manifest(msg.shard, outcome)

    def _on_failure(self, conn: _Conn, msg: Failure) -> None:
        lease = self.leases[msg.shard]
        lease.last_iteration = max(lease.last_iteration, msg.iteration)
        self.registry.failure(conn.worker_id)
        self._release(conn)
        self._note_progress(msg.shard, lease.last_iteration)
        # Without a run directory a regrant re-runs the task from
        # scratch, deterministically into the same exception.
        self._fail_lease(lease, self._clock(),
                         f"worker failed: {msg.message}",
                         final=self.run_dir is None)

    def _release(self, conn: _Conn) -> None:
        """The worker on ``conn`` settled its lease and is idle again."""
        entry = self.registry.get(conn.worker_id)
        if entry is not None:
            entry.shard = None
        conn.channel.shard = None

    # ------------------------------------------------------------------
    # failure machinery
    # ------------------------------------------------------------------
    def _on_conn_lost(self, conn: _Conn, reason: str) -> None:
        if conn.conn_id not in self._conns:
            return  # already handled
        code = self._close_conn(conn)
        if code is not None:
            reason = f"{reason}; worker exited with code {code}"
        if conn.worker_id is None:
            return
        entry = self.registry.get(conn.worker_id)
        if entry is None or entry.conn_id != conn.conn_id:
            return  # a newer connection already owns this identity
        now = self._clock()
        held = self.leases.held_by(conn.worker_id)
        self.registry.disconnect(conn.worker_id)
        health.record_net_disconnect(self._metrics,
                                     self.registry.connected_count())
        for lease in held:
            self._fail_lease(
                lease, now,
                f"connection to {conn.worker_id} lost ({reason})",
            )

    def _fail_lease(self, lease: Lease, now: float, reason: str, *,
                    final: bool = False) -> None:
        """Revoke ``lease``; regrant it while budget remains, unless the
        failure is ``final``, else lose the shard or raise."""
        shard = lease.shard_index
        holder = lease.worker
        silence = now - lease.last_heartbeat
        lease.revoke(now)
        self._set_state(shard, health.DEAD)
        if not final and lease.assignments < 1 + self.policy.max_regrants:
            # Budget remains: the shard becomes grantable again after
            # its backoff step; the regrant resumes from its checkpoints.
            self._write_manifest(force=True)
            return
        resumable = ("" if self.run_dir is None else
                     f"; the campaign in {self.run_dir} is resumable")
        if self.policy.allow_partial:
            lease.mark_lost()
            self.lost_shards.append(shard)
            self._set_state(shard, health.LOST)
            if self.manifest is not None:
                self.manifest.partial = True
                self.manifest.lost_shards = self.leases.lost()
            self._write_manifest(force=True)
            if all(l.state == LOST for l in self.leases):
                raise ShardWorkerError(
                    "every shard's lease regrant budget is exhausted; "
                    "a campaign with no surviving shard has no result"
                    + resumable,
                    shard_index=shard,
                    last_heartbeat=silence,
                    last_iteration=lease.last_iteration,
                    restarts=lease.regrants,
                )
            return
        why = ("a regrant would re-run it from scratch into the same "
               "failure" if final else
               f"its regrant budget of {self.policy.max_regrants} is "
               "exhausted")
        raise ShardWorkerError(
            f"shard {shard} lease (held by {holder}) failed ({reason}) "
            f"and {why}; last completed iteration {lease.last_iteration}"
            + resumable,
            shard_index=shard,
            last_heartbeat=silence,
            last_iteration=lease.last_iteration,
            restarts=lease.regrants,
        )

    def _check_liveness(self, now: float) -> None:
        p = self.policy
        for lease in self.leases.active():
            age = now - lease.last_heartbeat
            if age > p.lease_timeout:
                health.record_lease_expiry(self._metrics, lease.shard_index)
                holder = lease.worker
                conn = self._conn_of(holder)
                if conn is not None:
                    # Fencing: tear the holder's connection (and kill a
                    # local child) so a zombie can't keep streaming into
                    # a regranted shard.
                    self._on_conn_lost(
                        conn, f"lease liveness deadline blown ({age:.1f}s "
                              f"> {p.lease_timeout:.1f}s)"
                    )
                else:
                    self._fail_lease(
                        lease, now,
                        f"no heartbeat for {age:.1f}s "
                        f"(deadline {p.lease_timeout:.1f}s)",
                    )
            elif (age > p.degraded_after
                  and self._states.get(lease.shard_index) == health.RUNNING):
                self._set_state(lease.shard_index, health.DEGRADED)

    def _grant_leases(self, now: float) -> None:
        if self._stop_requested or self._paused:
            return
        grantable = sorted(
            self.leases.grantable(now, self.policy.regrant_delay),
            key=lambda l: l.shard_index,
        )
        if not grantable:
            return
        if self._listener is None:
            for _ in range(len(grantable) - self._spare_children()):
                self._fork_child()
        for lease, entry in zip(grantable, self.registry.idle_workers()):
            conn = self._conns.get(entry.conn_id)
            if conn is None or conn.channel.closed:
                continue
            task = self._grant_task(lease)
            regrant = lease.assignments > 0
            epoch = lease.grant(entry.worker_id, now)
            entry.shard = lease.shard_index
            conn.channel.shard = lease.shard_index
            if not self._send(conn, Assign(epoch=epoch, task=task)):
                continue  # _on_conn_lost already revoked the fresh grant
            self._last_activity = now
            health.record_lease_grant(self._metrics, lease.shard_index)
            if regrant:
                self._restarts[lease.shard_index] += 1
                health.record_worker_restart(self._metrics,
                                             lease.shard_index)
            self._set_state(lease.shard_index, health.STARTING)
            if self.manifest is not None:
                status = self.manifest.shards.get(lease.shard_index)
                if status is not None:
                    status.worker = entry.worker_id
                    status.lease_epoch = epoch
            self._write_manifest(force=True)

    def _grant_task(self, lease: Lease) -> ShardTask:
        """The task the next holder runs: regrants resume and are never
        re-armed with the previous holder's injected kill switch."""
        task = self._tasks[lease.shard_index]
        if lease.assignments == 0:
            return task
        rcfg = task.recovery
        if rcfg is None:
            return task  # deterministic re-run from scratch
        rcfg = dataclasses.replace(rcfg, crash_at=None, crash_shard=None)
        return dataclasses.replace(task, recovery=rcfg, resume=True)

    def _keepalive(self, now: float) -> None:
        if now - self._last_keepalive < self.policy.wait_hint:
            return
        self._last_keepalive = now
        for entry in self.registry.idle_workers():
            conn = self._conns.get(entry.conn_id)
            if conn is not None:
                self._send(conn, Wait(self.policy.wait_hint))

    def _check_stalled(self, now: float) -> None:
        if self.leases.active():
            return  # liveness deadlines bound every active lease
        if now - self._last_activity > self.policy.join_timeout:
            unsettled = sorted(l.shard_index for l in self.leases
                               if not l.terminal)
            raise ShardWorkerError(
                f"campaign stalled: shards {unsettled} are unsettled but "
                f"no worker activity for {self.policy.join_timeout:.1f}s "
                f"({self.registry.connected_count()} workers connected)",
                shard_index=unsettled[0] if unsettled else None,
            )

    # ------------------------------------------------------------------
    def _send(self, conn: _Conn, message) -> bool:
        try:
            conn.channel.send(message)
        except NetworkError as exc:
            self._on_conn_lost(conn, f"send failed: {exc}")
            return False
        health.record_net_message(self._metrics, "sent")
        return True

    def _conn_of(self, worker_id: Optional[str]) -> Optional[_Conn]:
        if worker_id is None:
            return None
        entry = self.registry.get(worker_id)
        if entry is None or not entry.connected:
            return None
        return self._conns.get(entry.conn_id)

    def _close_conn(self, conn: _Conn) -> Optional[int]:
        """Drop a connection and reap its local child, if it has one.

        Returns the child's exit code (``None`` for a TCP worker).  A
        child still running -- a fenced holder -- is terminated.
        """
        self._conns.pop(conn.conn_id, None)
        conn.channel.close()
        process = self._children.pop(conn.conn_id, None)
        return None if process is None else _reap(process, grace=0.0)

    def _shutdown(self) -> None:
        """Dismiss workers, close every socket, reap children and threads."""
        self._closing = True
        for conn in self._conns.values():
            try:
                conn.channel.send(Bye())
                if conn.worker_id is not None:
                    self.dismissed.add(conn.worker_id)
            except NetworkError:
                pass
            conn.channel.close()
        self._conns.clear()
        if self._listener is not None:
            self._listener.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        # Connections accepted or forked but never registered.
        while True:
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                break
            if event[0] == "accepted":
                event[1].close()
        for process in self._children.values():
            _reap(process, grace=2.0)
        self._children.clear()

    # ------------------------------------------------------------------
    def _conclude(self) -> List[Optional[ShardOutcome]]:
        outcomes: List[Optional[ShardOutcome]] = [
            self._outcomes.get(k) for k in sorted(self._tasks)
        ]
        stopped = self._stop_requested or any(
            o is not None and o.stopped for o in outcomes
        )
        if stopped:
            self._write_manifest(state="stopped", force=True)
            raise CampaignStopped(
                "campaign stopped by steering command"
                + ("" if self.run_dir is None else
                   f"; resume it from {self.run_dir}"),
                run_dir=self.run_dir,
                last_iterations={l.shard_index: l.last_iteration
                                 for l in self.leases},
            )
        if self.manifest is not None:
            self.manifest.refresh_watermark()
        if self.lost_shards:
            self._write_manifest(state="degraded", force=True)
        else:
            self._write_manifest(force=True)
        return outcomes

    def report(self) -> CampaignReport:
        """Summarise the campaign (valid after :meth:`run`)."""
        shards = sorted(self._tasks)
        return CampaignReport(
            n_shards=len(shards),
            run_dir=self.run_dir,
            states={k: self._states[k] for k in shards},
            restarts={k: self._restarts[k] for k in shards},
            heartbeats={k: self._heartbeats[k] for k in shards},
            last_iterations={k: self.leases[k].last_iteration
                             for k in shards},
            recovery={k: (self._outcomes[k].recovery
                          if k in self._outcomes else None)
                      for k in shards},
            lost_shards=tuple(sorted(self.lost_shards)),
        )

    # ------------------------------------------------------------------
    # manifest + metrics mirroring
    # ------------------------------------------------------------------
    def _set_state(self, shard: int, state: str) -> None:
        self._states[shard] = state
        health.record_worker_state(self._metrics, shard, state)
        if self.manifest is not None:
            status = self.manifest.shards.get(shard)
            if status is not None:
                status.state = state
                status.restarts = self._restarts[shard]

    def _note_progress(self, shard: int, iteration: int) -> None:
        if self.manifest is None:
            return
        status = self.manifest.shards.get(shard)
        if status is not None:
            # Durable progress never regresses: a resume starts its
            # counter below what the journal already holds.
            status.last_iteration = max(status.last_iteration, iteration)

    def _complete_in_manifest(self, shard: int,
                              outcome: ShardOutcome) -> None:
        if self.manifest is None:
            return
        status = self.manifest.shards.get(shard)
        if status is not None:
            status.completed = not outcome.stopped
            task = self._tasks[shard]
            if task.recovery is not None:
                status.journal_digest = journal_digest(
                    task.recovery.journal_dir
                )
        self._write_manifest(force=True)

    def _write_manifest(self, state: Optional[str] = None,
                        force: bool = False) -> None:
        if self.manifest is None or self.run_dir is None:
            return
        now = self._clock()
        if not force and now - self._manifest_written_at < self._MANIFEST_EVERY:
            return
        if state is not None:
            self.manifest.state = state
        self.manifest.refresh_watermark()
        self.manifest.write(self.run_dir)
        self._manifest_written_at = now

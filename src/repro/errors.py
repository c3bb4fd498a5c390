"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError``, ``ValueError`` raised by argument
validation) propagate unchanged where that is more idiomatic.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleError",
    "MachineStateError",
    "ProbeError",
    "RemoteExecError",
    "RemoteTimeout",
    "AccessDenied",
    "MachineUnreachable",
    "TraceError",
    "TraceFormatError",
    "TraceCorruptionError",
    "AnalysisError",
    "CalibrationError",
    "HarvestError",
    "ObservabilityError",
    "MetricError",
    "SpanError",
    "SnapshotFormatError",
    "RecoveryError",
    "JournalError",
    "CheckpointError",
    "ResumeDivergence",
    "InjectedCrash",
    "ShardWorkerError",
    "CampaignStopped",
    "NetworkError",
    "ChannelClosed",
    "ChannelTimeout",
    "FrameCorruption",
    "LiveError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """An invariant of the discrete-event simulation was violated."""


class ScheduleError(SimulationError):
    """An event was scheduled in the past or with an invalid timestamp."""


class MachineStateError(SimulationError):
    """An operation was attempted on a machine in an incompatible state.

    Examples: logging a user into a powered-off machine, shutting down a
    machine that is already off, or querying boot-relative counters of a
    machine that has never been booted.
    """


class ProbeError(ReproError):
    """A probe failed to produce parseable output."""


class RemoteExecError(ReproError):
    """Base class for remote-execution (psexec-like) failures."""


class RemoteTimeout(RemoteExecError):
    """The remote machine did not answer within the configured timeout.

    This is the normal outcome of probing a powered-off machine and is the
    mechanism behind the paper's 50.2% sample response rate.
    """


class AccessDenied(RemoteExecError):
    """Credentials were rejected by the remote machine.

    ``transient`` separates storm-style flaky rejections (the DC or the
    machine's LSA hiccuped; a retry may succeed) from deterministic
    credential mismatches, where retrying burns iteration budget on a
    certain failure.  The coordinator only retries transient denials.
    """

    def __init__(self, message: str = "", *, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class MachineUnreachable(RemoteExecError):
    """The remote machine is not reachable on the network (powered off)."""


class TraceError(ReproError):
    """A trace store or trace file could not be read or written."""


class TraceFormatError(TraceError):
    """A serialized trace record does not conform to the schema."""


class TraceCorruptionError(TraceFormatError):
    """A trace record is structurally readable but its *content* is bad.

    Distinguishes damaged data (torn writes, bit rot, truncated rows)
    from schema mismatches so the recovery layer can quarantine corrupt
    input instead of treating it as a programming error.
    """


class AnalysisError(ReproError):
    """An analysis was run on data that cannot support it."""


class CalibrationError(ReproError):
    """A calibration target is malformed or cannot be evaluated."""


class HarvestError(ReproError):
    """The idle-cycle harvesting simulator hit an invalid state."""


class ObservabilityError(ReproError):
    """Base class for errors raised by the :mod:`repro.obs` layer."""


class MetricError(ObservabilityError):
    """A metric was registered or used inconsistently.

    Examples: re-registering ``(name, labels)`` as a different metric
    type, or two histograms sharing a name with different buckets.
    """


class SpanError(ObservabilityError):
    """Span nesting was violated (exited out of order or never entered)."""


class SnapshotFormatError(ObservabilityError):
    """A serialized observability snapshot does not conform to the schema."""


class RecoveryError(ReproError):
    """Base class for errors raised by the :mod:`repro.recovery` layer."""


class JournalError(RecoveryError):
    """The trace journal could not be written or is inconsistent.

    Unrecoverable *read*-side damage is not raised as this: corrupt or
    torn segments are quarantined and reported, never fatal.
    """


class CheckpointError(RecoveryError):
    """A checkpoint could not be written, or resume preconditions failed.

    Examples: resuming with a configuration whose digest differs from
    the checkpointed run's, or a run directory that already belongs to
    another experiment.
    """


class ResumeDivergence(RecoveryError):
    """A resumed run regenerated samples that differ from the journal.

    The simulation is deterministic, so this only happens when the code
    or configuration changed between the crash and the resume -- exactly
    the situation where silently mixing the two traces would poison the
    analysis.
    """


class InjectedCrash(ReproError):
    """A deliberate, test-injected process crash (see ``repro.recovery``).

    Raised by the crash-injection harness at a configured kill point to
    emulate the coordinator process dying; never raised in production
    runs.
    """


class ShardWorkerError(ReproError):
    """A shard worker process died and could not be brought back.

    Raised by the campaign coordinator with the identity of the failed
    shard: which shard it was, the seconds since the coordinator last
    heard the shard's heartbeat (``None`` when a campaign stalls with no
    worker at all), the last iteration the worker reported complete,
    and how many lease regrants were burned before giving up.
    """

    def __init__(
        self,
        message: str = "",
        *,
        shard_index: int | None = None,
        last_heartbeat: float | None = None,
        last_iteration: int | None = None,
        restarts: int = 0,
    ):
        super().__init__(message)
        self.shard_index = shard_index
        self.last_heartbeat = last_heartbeat
        self.last_iteration = last_iteration
        self.restarts = restarts


class CampaignStopped(ReproError):
    """A shard campaign was stopped by a steering command.

    Raised by the campaign coordinator after every leased worker has
    acknowledged STOP at an iteration boundary.  With recovery enabled the campaign's run
    directory is durable and ``resume_from=`` continues it; without
    recovery the partial results are discarded.
    """

    def __init__(
        self,
        message: str = "",
        *,
        run_dir=None,
        last_iterations: dict | None = None,
    ):
        super().__init__(message)
        self.run_dir = run_dir
        self.last_iterations = dict(last_iterations or {})


class NetworkError(ReproError):
    """Base class for errors in the networked shard control plane.

    Raised by the :mod:`repro.shard.net` framing and protocol layers.
    These are *expected* failures -- sockets fail in ways pipes cannot
    -- so the coordinator and workers catch them and recover (reconnect,
    lease reassignment, degraded merge) rather than letting them escape
    a campaign.
    """


class ChannelClosed(NetworkError):
    """The peer hung up, the connection was torn, or a write failed.

    Covers EOF on read, ``EPIPE``/``ECONNRESET`` on write, and injected
    connection drops from the network fault family.
    """


class ChannelTimeout(NetworkError):
    """A framed read or write did not complete within its deadline.

    The channel buffers partial frames across timeouts, so a timed-out
    read leaves the stream in sync and can simply be retried.
    """


class FrameCorruption(NetworkError):
    """A received frame failed its CRC or could not be decoded.

    After corruption the byte stream cannot be trusted to be in frame
    sync, so the consumer must close and re-establish the channel.
    """


class LiveError(ReproError):
    """An error in the :mod:`repro.live` streaming subsystem.

    Covers driver lifecycle violations (starting a driver twice,
    querying rollups of a journal with no iterations) and replay
    inputs that are not journals.  Network-level failures (e.g. the
    listen port already bound) surface as :class:`OSError` from the
    stdlib server, not as :class:`LiveError`.
    """

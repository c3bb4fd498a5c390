"""Endpoint parsing and the ``NetConfig`` bundle for networked campaigns.

``run_experiment(net=NetConfig(...))`` is the single entry point for
the networked control plane; this module holds the knobs that travel
from the CLI (``repro run --workers`` / ``--listen``) to the
coordinator, and the one endpoint grammar both sides share::

    tcp://HOST:PORT      e.g. tcp://127.0.0.1:7077, tcp://0.0.0.0:0

Port 0 asks the OS for an ephemeral port; the coordinator exposes the
bound address as
:attr:`~repro.shard.coordinator.CampaignCoordinator.endpoint` so tests
and spawned local workers can find it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["parse_endpoint", "format_endpoint", "NetConfig"]


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Parse ``tcp://host:port`` into ``(host, port)``.

    Raises ``ValueError`` with a message suitable for CLI echo on any
    malformed input: wrong scheme, missing host, missing or out-of-range
    port, trailing path.
    """
    if not isinstance(endpoint, str) or not endpoint:
        raise ValueError("endpoint must be a non-empty string")
    parts = urlsplit(endpoint)
    if parts.scheme != "tcp":
        raise ValueError(
            f"unsupported endpoint scheme {parts.scheme!r} in "
            f"{endpoint!r}; expected tcp://HOST:PORT"
        )
    if parts.path or parts.query or parts.fragment:
        raise ValueError(
            f"endpoint {endpoint!r} must be exactly tcp://HOST:PORT"
        )
    if not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} is missing a host")
    try:
        port = parts.port
    except ValueError:
        raise ValueError(
            f"endpoint {endpoint!r} has a non-numeric or out-of-range port"
        ) from None
    if port is None:
        raise ValueError(f"endpoint {endpoint!r} is missing a port")
    return parts.hostname, port


def format_endpoint(host: str, port: int) -> str:
    """Inverse of :func:`parse_endpoint` for the bound address."""
    return f"tcp://{host}:{port}"


@dataclass(frozen=True)
class NetConfig:
    """Everything ``run_experiment`` needs to run a campaign over TCP.

    Attributes
    ----------
    endpoint:
        Where the coordinator listens.  Defaults to loopback on an
        ephemeral port -- the test configuration.
    spawn_workers:
        If set, the campaign spawns this many local worker *processes*
        pointed at the bound endpoint (the ``--workers`` CLI mode).
        ``None`` means workers connect from elsewhere (``--listen``).
    policy:
        The coordinator's :class:`~repro.shard.coordinator.CampaignPolicy`;
        ``None`` uses ``CampaignPolicy(allow_partial=True)``, so a
        networked campaign that loses a shard completes degraded.
    faults:
        Optional :class:`~repro.faults.network.NetworkFaultPlan`
        injected at the coordinator's framing layer.
    worker_policy:
        :class:`~repro.shard.net.worker.NetWorkerPolicy` for spawned
        local workers; ignored when ``spawn_workers`` is ``None``.
    """

    endpoint: str = "tcp://127.0.0.1:0"
    spawn_workers: Optional[int] = None
    policy: Optional[object] = None
    faults: Optional[object] = None
    worker_policy: Optional[object] = None

    def __post_init__(self) -> None:
        parse_endpoint(self.endpoint)  # fail fast on malformed endpoints
        if self.spawn_workers is not None and self.spawn_workers < 1:
            raise ValueError("spawn_workers must be >= 1 when given")

"""Revocable shard leases: the unit of work ownership on the wire.

A *lease* says "worker W owns shard K under epoch E".  Ownership is
temporary and revocable: miss the liveness deadline and the coordinator
revokes the lease, fences the old holder (closes its connection and
ignores its stale-epoch traffic), and -- after a backoff step that
doubles as the fence -- regrants the shard to a healthy worker, which
resumes from the shard's own ``shard-<k>/`` journal+checkpoint
namespace.

Epochs make revocation safe: every grant bumps the shard's epoch, every
lease-scoped message carries the epoch it was sent under, and the
coordinator discards anything stale.  A zombie worker that kept
computing through a partition can therefore never overwrite a regranted
shard's outcome.

The regrant budget bounds the retries: a shard may be (re)granted at
most ``1 + max_regrants`` times; past that the campaign fails, or --
with ``allow_partial`` -- the shard is *lost* and the campaign settles
it through the degraded merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "PENDING", "ACTIVE", "REVOKED", "COMPLETED", "LOST",
    "LEASE_STATES", "Lease", "LeaseTable",
]

PENDING = "pending"      # no holder; grantable
ACTIVE = "active"        # granted and believed live
REVOKED = "revoked"      # holder fenced; grantable again after backoff
COMPLETED = "completed"  # outcome received and accepted
LOST = "lost"            # regrant budget exhausted; settled by degraded merge

LEASE_STATES = (PENDING, ACTIVE, REVOKED, COMPLETED, LOST)

#: Terminal states: the lease will never be granted again.
_TERMINAL = (COMPLETED, LOST)


@dataclass
class Lease:
    """Ownership record for one shard."""

    shard_index: int
    worker: Optional[str] = None
    epoch: int = 0
    state: str = PENDING
    granted_at: float = 0.0
    last_heartbeat: float = 0.0
    last_iteration: int = -1
    assignments: int = 0
    revoked_at: float = 0.0

    @property
    def regrants(self) -> int:
        """Regrants burned so far (first grant is free)."""
        return max(0, self.assignments - 1)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def grant(self, worker: str, now: float) -> int:
        """Hand the shard to ``worker``; returns the new epoch."""
        if self.terminal:
            raise ValueError(
                f"shard {self.shard_index} lease is {self.state}; "
                "terminal leases cannot be granted"
            )
        self.worker = worker
        self.epoch += 1
        self.state = ACTIVE
        self.granted_at = now
        self.last_heartbeat = now
        self.assignments += 1
        return self.epoch

    def revoke(self, now: float) -> None:
        """Fence the current holder; the shard becomes grantable again."""
        if self.state == ACTIVE:
            self.state = REVOKED
            self.revoked_at = now
            self.worker = None

    def complete(self) -> None:
        self.state = COMPLETED

    def mark_lost(self) -> None:
        self.state = LOST
        self.worker = None


class LeaseTable:
    """All leases of one campaign, with the grant/expiry policy queries.

    Pure bookkeeping -- no clocks, no sockets.  The coordinator passes
    ``now`` (monotonic) into every time-sensitive query so the table is
    trivially testable.
    """

    def __init__(self, shards):
        """``shards``: a shard count (leases 0..n-1) or explicit indexes."""
        indexes = range(shards) if isinstance(shards, int) else shards
        self.leases: Dict[int, Lease] = {
            k: Lease(shard_index=k) for k in indexes
        }

    def __getitem__(self, shard: int) -> Lease:
        return self.leases[shard]

    def __iter__(self):
        return iter(self.leases.values())

    def active(self) -> List[Lease]:
        return [l for l in self if l.state == ACTIVE]

    def grantable(self, now: float, backoff) -> List[Lease]:
        """Leases a healthy worker could take right now.

        ``PENDING`` leases are immediately grantable; ``REVOKED`` ones
        only once ``backoff(n)`` seconds have passed since the
        revocation, where n is the regrant the next grant would be.
        The wait also gives in-flight traffic from the fenced holder
        time to drain and be discarded.
        """
        out = []
        for lease in self:
            if lease.state == PENDING:
                out.append(lease)
            elif (lease.state == REVOKED and now - lease.revoked_at
                  >= backoff(lease.assignments)):
                out.append(lease)
        return out

    def expired(self, now: float, lease_timeout: float) -> List[Lease]:
        """Active leases whose holder missed the liveness deadline."""
        return [l for l in self.active()
                if now - l.last_heartbeat > lease_timeout]

    def held_by(self, worker: str) -> List[Lease]:
        return [l for l in self.active() if l.worker == worker]

    def all_settled(self) -> bool:
        """True when every shard is COMPLETED or LOST: campaign over."""
        return all(l.terminal for l in self)

    def completed(self) -> List[Lease]:
        return [l for l in self if l.state == COMPLETED]

    def lost(self) -> List[int]:
        return sorted(l.shard_index for l in self if l.state == LOST)

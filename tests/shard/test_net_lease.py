"""Lease table and worker registry: pure control-plane bookkeeping."""

import pytest

from repro.shard.net.lease import (
    ACTIVE,
    COMPLETED,
    LOST,
    PENDING,
    REVOKED,
    Lease,
    LeaseTable,
)
from repro.shard.net.protocol import Hello
from repro.shard.net.registry import WorkerRegistry


def hello(worker_id, **caps):
    return Hello(worker_id=worker_id, pid=1, host="test",
                 capabilities=caps)


class TestLease:
    def test_grant_bumps_epoch_and_activates(self):
        lease = Lease(shard_index=0)
        assert lease.state == PENDING
        assert lease.grant("w0", now=10.0) == 1
        assert lease.state == ACTIVE
        assert lease.worker == "w0"
        assert lease.granted_at == lease.last_heartbeat == 10.0
        assert lease.grant("w1", now=20.0) == 2  # regrant bumps again

    def test_regrants_first_grant_is_free(self):
        lease = Lease(shard_index=0)
        assert lease.regrants == 0
        lease.grant("w0", now=0.0)
        assert lease.regrants == 0
        lease.revoke(now=1.0)
        lease.grant("w1", now=2.0)
        assert lease.regrants == 1

    def test_revoke_fences_holder(self):
        lease = Lease(shard_index=0)
        lease.grant("w0", now=0.0)
        lease.revoke(now=5.0)
        assert lease.state == REVOKED
        assert lease.worker is None
        assert lease.revoked_at == 5.0
        # Revoking a non-active lease is a no-op.
        lease.revoke(now=6.0)
        assert lease.revoked_at == 5.0

    def test_terminal_states_refuse_grants(self):
        done = Lease(shard_index=0)
        done.complete()
        lost = Lease(shard_index=1)
        lost.mark_lost()
        for lease in (done, lost):
            assert lease.terminal
            with pytest.raises(ValueError, match="terminal"):
                lease.grant("w0", now=0.0)

    def test_mark_lost_clears_holder(self):
        lease = Lease(shard_index=3)
        lease.grant("w0", now=0.0)
        lease.mark_lost()
        assert lease.state == LOST
        assert lease.worker is None


class TestLeaseTable:
    def test_construction_from_count_and_indexes(self):
        assert sorted(table.shard_index for table in LeaseTable(3)) \
            == [0, 1, 2]
        explicit = LeaseTable([4, 7])
        assert explicit[4].shard_index == 4
        assert explicit[7].shard_index == 7
        with pytest.raises(KeyError):
            explicit[0]

    def test_grantable_pending_immediately(self):
        table = LeaseTable(2)
        grantable = table.grantable(0.0, backoff=lambda n: 1.0)
        assert {l.shard_index for l in grantable} == {0, 1}

    def test_grantable_revoked_waits_for_fence_delay(self):
        # The fence is the backoff step of the regrant the next grant
        # would be: 1 s before regrant 1, 2 s before regrant 2.
        backoff = {1: 1.0, 2: 2.0}.__getitem__
        table = LeaseTable(1)
        table[0].grant("w0", now=0.0)
        assert table.grantable(5.0, backoff) == []
        table[0].revoke(now=5.0)
        assert table.grantable(5.5, backoff) == []
        assert [l.shard_index for l in table.grantable(6.0, backoff)] == [0]
        table[0].grant("w1", now=6.0)
        table[0].revoke(now=7.0)
        assert table.grantable(8.5, backoff) == []
        assert [l.shard_index for l in table.grantable(9.0, backoff)] == [0]

    def test_expired_uses_last_heartbeat(self):
        table = LeaseTable(2)
        table[0].grant("w0", now=0.0)
        table[1].grant("w1", now=0.0)
        table[0].last_heartbeat = 10.0  # fresh; shard 1 still at 0.0
        assert [l.shard_index
                for l in table.expired(now=10.5, lease_timeout=1.0)] == [1]

    def test_held_by_only_active(self):
        table = LeaseTable(3)
        table[0].grant("w0", now=0.0)
        table[1].grant("w0", now=0.0)
        table[2].grant("w1", now=0.0)
        table[1].complete()
        assert [l.shard_index for l in table.held_by("w0")] == [0]

    def test_all_settled_and_lost(self):
        table = LeaseTable(3)
        assert not table.all_settled()
        table[0].complete()
        table[2].complete()
        assert not table.all_settled()
        table[1].mark_lost()
        assert table.all_settled()
        assert table.lost() == [1]
        assert [l.shard_index for l in table.completed()] == [0, 2]


class TestWorkerRegistry:
    def test_register_and_reconnect_keep_identity(self):
        reg = WorkerRegistry()
        entry = reg.register(hello("w0", cpus=4), conn_id=1)
        assert entry.sessions == 1 and entry.connected
        assert entry.capabilities == {"cpus": 4}
        again = reg.register(hello("w0"), conn_id=2)
        assert again is entry
        assert entry.sessions == 2 and entry.conn_id == 2
        assert len(reg) == 1 and "w0" in reg

    def test_disconnect_scores_failure_and_frees_shard(self):
        reg = WorkerRegistry()
        entry = reg.register(hello("w0"), conn_id=1)
        entry.shard = 2
        before = entry.health.score
        reg.disconnect("w0")
        assert not entry.connected
        assert entry.shard is None and entry.conn_id == -1
        assert entry.health.score < before
        reg.disconnect("ghost")  # unknown id is a no-op

    def test_idle_requires_connected_and_unleased(self):
        reg = WorkerRegistry()
        a = reg.register(hello("w0"), conn_id=1)
        b = reg.register(hello("w1"), conn_id=2)
        b.shard = 0
        assert [w.worker_id for w in reg.idle_workers()] == ["w0"]
        b.shard = None
        reg.disconnect("w0")
        assert [w.worker_id for w in reg.idle_workers()] == ["w1"]
        assert a.idle is False

    def test_idle_ordering_health_then_id(self):
        reg = WorkerRegistry()
        reg.register(hello("w1"), conn_id=1)
        reg.register(hello("w0"), conn_id=2)
        reg.register(hello("w2"), conn_id=3)
        # Equal health: deterministic id order.
        assert [w.worker_id for w in reg.idle_workers()] \
            == ["w0", "w1", "w2"]
        # Scores start at the 1.0 ceiling, so ranking moves only by
        # beating workers *down*: one failure demotes w0 below w1, three
        # demote w2 to the bottom; heartbeats then heal w0 back to par
        # (ties revert to id order).
        reg.failure("w0")
        for _ in range(3):
            reg.failure("w2")
        assert [w.worker_id for w in reg.idle_workers()] \
            == ["w1", "w0", "w2"]
        # Heartbeats heal: w2 recovers past the singly-failed w0.
        for _ in range(10):
            reg.heartbeat("w2")
        assert [w.worker_id for w in reg.idle_workers()] \
            == ["w1", "w2", "w0"]

    def test_connected_count(self):
        reg = WorkerRegistry()
        reg.register(hello("w0"), conn_id=1)
        reg.register(hello("w1"), conn_id=2)
        reg.disconnect("w0")
        assert reg.connected_count() == 1

"""Framing layer: frames, CRC, dedup, timeouts, endpoints, net faults."""

import multiprocessing
import pickle
import socket
import struct
import threading
import time
import zlib

import pytest

import repro.shard.net.framing as framing
from repro.config import ExperimentConfig
from repro.errors import ChannelClosed, ChannelTimeout, FrameCorruption
from repro.experiment import run_experiment
from repro.faults.network import (
    ConnectionDrop,
    FrameInfo,
    MessageDelay,
    MessageDuplicate,
    NetAction,
    NetworkFaultPlan,
    Partition,
    ShardHolderDrop,
)
from repro.recovery.crashtest import result_fingerprint
from repro.shard.net.config import NetConfig, format_endpoint, parse_endpoint
from repro.shard.net.framing import HEADER, MAX_FRAME, MORE, FramedChannel
from repro.shard.net.protocol import Heartbeat, Hello, Outcome, lease_scoped
from repro.shard.net.worker import NetWorkerPolicy

#: A frame ceiling small enough that a 2-day shard outcome crosses it.
SMALL_FRAME = 64 * 1024


def channel_pair(**kwargs):
    """Two FramedChannels over a connected socketpair."""
    a, b = socket.socketpair()
    return FramedChannel(a, **kwargs), FramedChannel(b)


class TestEndpoints:
    def test_roundtrip(self):
        assert parse_endpoint("tcp://127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert parse_endpoint(format_endpoint("10.0.0.2", 0)) == ("10.0.0.2", 0)

    @pytest.mark.parametrize("bad", [
        "",
        "127.0.0.1:7077",
        "http://127.0.0.1:7077",
        "tcp://127.0.0.1",
        "tcp://:7077",
        "tcp://127.0.0.1:port",
        "tcp://127.0.0.1:99999",
        "tcp://127.0.0.1:7077/path",
        "tcp://127.0.0.1:7077?q=1",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestFraming:
    def test_message_roundtrip(self):
        a, b = channel_pair()
        hello = Hello(worker_id="w0", pid=1, host="h")
        a.send(hello)
        assert b.recv(timeout=2.0) == hello
        a.close(), b.close()

    def test_many_messages_in_order(self):
        a, b = channel_pair()
        for k in range(50):
            a.send(Heartbeat(0, 1, k, float(k)))
        got = [b.recv(timeout=2.0).iteration for _ in range(50)]
        assert got == list(range(50))
        a.close(), b.close()

    def test_timeout_preserves_partial_frame_sync(self):
        # A frame delivered in two halves with a timeout in between must
        # still decode: timeouts buffer, they never lose sync.
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        payload = __import__("pickle").dumps(Heartbeat(1, 1, 7, 0.0))
        frame = HEADER.pack(len(payload), zlib.crc32(payload), 1) + payload
        raw.sendall(frame[:10])
        with pytest.raises(ChannelTimeout):
            chan.recv(timeout=0.05)
        raw.sendall(frame[10:])
        assert chan.recv(timeout=2.0).iteration == 7
        raw.close(), chan.close()

    def test_crc_mismatch_closes_channel(self):
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        payload = b"garbage-payload"
        frame = HEADER.pack(len(payload), zlib.crc32(payload) ^ 0xFF, 1) \
            + payload
        raw.sendall(frame)
        with pytest.raises(FrameCorruption, match="CRC mismatch"):
            chan.recv(timeout=2.0)
        assert chan.closed
        raw.close()

    def test_oversize_length_is_corruption_not_allocation(self):
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        raw.sendall(HEADER.pack(MAX_FRAME + 1, 0, 1))
        with pytest.raises(FrameCorruption, match="out of sync"):
            chan.recv(timeout=2.0)
        raw.close(), chan.close()

    def test_undecodable_payload_is_corruption(self):
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        payload = b"\x80\x05not really a pickle"
        raw.sendall(HEADER.pack(len(payload), zlib.crc32(payload), 1)
                    + payload)
        with pytest.raises(FrameCorruption, match="failed to decode"):
            chan.recv(timeout=2.0)
        raw.close()

    def test_duplicate_sequence_delivered_exactly_once(self):
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        pickle = __import__("pickle")
        p1 = pickle.dumps(Heartbeat(0, 1, 1, 0.0))
        p2 = pickle.dumps(Heartbeat(0, 1, 2, 0.0))
        f1 = HEADER.pack(len(p1), zlib.crc32(p1), 1) + p1
        f2 = HEADER.pack(len(p2), zlib.crc32(p2), 2) + p2
        raw.sendall(f1 + f1 + f2)  # frame 1 delivered twice
        assert chan.recv(timeout=2.0).iteration == 1
        assert chan.recv(timeout=2.0).iteration == 2  # dup skipped
        raw.close(), chan.close()

    def test_peer_hangup_raises_channel_closed(self):
        a, b = channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv(timeout=2.0)

    def test_send_on_closed_channel_raises(self):
        a, _b = channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            a.send(Hello(worker_id="w", pid=1, host="h"))

    def test_poll_empty_returns_none_and_full_returns_message(self):
        a, b = channel_pair()
        assert b.poll(0.0) is None
        a.send(Heartbeat(0, 1, 3, 0.0))
        assert b.poll(0.5).iteration == 3
        a.close(), b.close()

    def test_send_after_poll_keeps_the_io_timeout(self):
        # A poll that received a frame leaves a sub-0.05 s socket
        # timeout behind; a send that fills the socket buffer must
        # still get the channel's full io_timeout, not that leftover.
        a, b = channel_pair()
        b.io_timeout = 5.0
        a.send(Heartbeat(0, 1, 3, 0.0))
        assert b.poll(0.0).iteration == 3
        big = b"x" * (32 * 1024 * 1024)
        received = []

        def late_reader():
            time.sleep(0.3)
            received.append(a.recv(timeout=10.0))

        reader = threading.Thread(target=late_reader)
        reader.start()
        try:
            b.send(big)
        finally:
            reader.join(timeout=15.0)
        assert received == [big]
        a.close(), b.close()


def raw_frames(data):
    """Split a captured byte stream into ``(word, seq, payload)``."""
    frames = []
    while data:
        word, crc, seq = HEADER.unpack_from(data)
        end = HEADER.size + (word & ~MORE)
        payload = data[HEADER.size:end]
        assert zlib.crc32(payload) == crc
        frames.append((word, seq, payload))
        data = data[end:]
    return frames


def drain(sock):
    """Every byte ``sock`` receives until its peer closes."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def sent_bytes(*messages):
    """Every byte a fresh channel writes when it sends ``messages``."""
    raw, peer = socket.socketpair()
    chan = FramedChannel(raw)
    box = []
    reader = threading.Thread(target=lambda: box.append(drain(peer)))
    reader.start()
    for message in messages:
        chan.send(message)
    chan.close()
    reader.join()
    peer.close()
    return box[0]


@pytest.fixture
def small_frames(monkeypatch):
    monkeypatch.setattr(framing, "MAX_FRAME", SMALL_FRAME)


class TestSplitMessages:
    """A message above the frame ceiling travels as several frames."""

    def test_message_under_the_ceiling_is_one_frame(self):
        hb = Heartbeat(0, 1, 7, 0.0)
        payload = pickle.dumps(hb, protocol=pickle.HIGHEST_PROTOCOL)
        assert sent_bytes(hb) == HEADER.pack(
            len(payload), zlib.crc32(payload), 1) + payload

    def test_split_frames_stay_under_the_ceiling(self, small_frames):
        big = bytes(range(256)) * 1000
        frames = raw_frames(sent_bytes(big))
        assert len(frames) == 4
        assert [seq for _, seq, _ in frames] == [1, 2, 3, 4]
        assert [bool(w & MORE) for w, _, _ in frames] == [True] * 3 + [False]
        assert all(len(p) <= SMALL_FRAME for _, _, p in frames)
        joined = b"".join(p for _, _, p in frames)
        assert pickle.loads(joined) == big

    def test_timeout_keeps_the_frames_received(self, small_frames):
        raw, peer = socket.socketpair()
        chan = FramedChannel(peer)
        big = bytes(range(256)) * 1000
        data = sent_bytes(big, Heartbeat(0, 1, 9, 0.0))
        # the first frame only: its part is kept across the timeout
        head = HEADER.size + SMALL_FRAME
        raw.sendall(data[:head])
        with pytest.raises(ChannelTimeout):
            chan.recv(timeout=0.05)
        feeder = threading.Thread(target=raw.sendall, args=(data[head:],))
        feeder.start()
        assert chan.recv(timeout=5.0) == big
        assert chan.recv(timeout=5.0).iteration == 9
        feeder.join()
        raw.close(), chan.close()

    def test_duplicated_split_message_delivered_once(self, small_frames):
        plan = NetworkFaultPlan([MessageDuplicate(every=1)])
        a, b = channel_pair(faults=plan)
        big = bytes(range(256)) * 1000
        sender = threading.Thread(target=a.send, args=(big,))
        sender.start()
        assert b.recv(timeout=5.0) == big
        sender.join()
        with pytest.raises(ChannelTimeout):
            b.recv(timeout=0.05)  # every duplicated frame was dropped
        assert plan.injected["net_duplicate"] == 1
        a.close(), b.close()

    def test_fault_plan_consulted_once_per_message(self, small_frames):
        plan = NetworkFaultPlan([Partition(start=2, length=1,
                                           direction="recv")])
        a, b = channel_pair(faults=plan)
        big = bytes(range(256)) * 1000
        sender = threading.Thread(
            target=lambda: [b.send(m) for m in
                            (Heartbeat(0, 1, 1, 0.0), big,
                             Heartbeat(0, 1, 3, 0.0))])
        sender.start()
        assert a.recv(timeout=5.0).iteration == 1
        assert a.recv(timeout=5.0).iteration == 3  # big swallowed whole
        sender.join()
        assert plan.injected["net_partition"] == 1
        a.close(), b.close()


#: Its gathered shard outcomes pickle to several times SMALL_FRAME.
OVERSIZE_CFG = ExperimentConfig(days=2, seed=2005)


@pytest.fixture(scope="module")
def sequential_2day():
    return result_fingerprint(run_experiment(OVERSIZE_CFG))


@pytest.fixture
def outcome_frames(monkeypatch):
    """Frames per ``Outcome`` message the parent receives."""
    counts = []
    original = FramedChannel.recv

    def counting(channel, timeout=None):
        before = channel._last_recv_seq
        message = original(channel, timeout)
        if isinstance(message, Outcome):
            counts.append(channel._last_recv_seq - before)
        return message

    monkeypatch.setattr(FramedChannel, "recv", counting)
    return counts


class TestOversizeOutcomes:
    """Shard outcomes above the frame ceiling still reach the parent."""

    @pytest.fixture(autouse=True)
    def forked(self, small_frames):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork so workers inherit the small ceiling")

    def test_forked_workers(self, sequential_2day, outcome_frames):
        result = run_experiment(OVERSIZE_CFG, shards=2)
        assert result_fingerprint(result) == sequential_2day
        assert result.campaign.total_restarts == 0
        assert len(outcome_frames) == 2
        assert all(n > 1 for n in outcome_frames), outcome_frames

    def test_tcp_workers(self, sequential_2day, outcome_frames):
        result = run_experiment(OVERSIZE_CFG, shards=2, net=NetConfig(
            spawn_workers=2, worker_policy=NetWorkerPolicy(
                connect_attempts=40, backoff_base=0.02, backoff_cap=0.2)))
        assert result_fingerprint(result) == sequential_2day
        assert result.campaign.total_restarts == 0
        assert result.degraded is None
        assert len(outcome_frames) == 2
        assert all(n > 1 for n in outcome_frames), outcome_frames


class TestInjectedFaults:
    def test_send_disconnect_closes_and_raises(self):
        plan = NetworkFaultPlan([ConnectionDrop(at_count=2,
                                                direction="send")])
        a, b = channel_pair(faults=plan)
        a.send(Heartbeat(0, 1, 1, 0.0))
        with pytest.raises(ChannelClosed, match="injected"):
            a.send(Heartbeat(0, 1, 2, 0.0))
        assert a.closed
        assert plan.injected["net_disconnect"] == 1
        b.close()

    def test_send_partition_blackholes_but_keeps_sequence(self):
        plan = NetworkFaultPlan([Partition(start=2, length=1,
                                           direction="send")])
        a, b = channel_pair(faults=plan)
        a.send(Heartbeat(0, 1, 1, 0.0))
        a.send(Heartbeat(0, 1, 2, 0.0))  # blackholed
        a.send(Heartbeat(0, 1, 3, 0.0))
        assert b.recv(timeout=2.0).iteration == 1
        assert b.recv(timeout=2.0).iteration == 3
        assert plan.injected["net_partition"] == 1
        a.close(), b.close()

    def test_recv_partition_swallows_frame(self):
        plan = NetworkFaultPlan([Partition(start=2, length=1,
                                           direction="recv")])
        a, b = channel_pair(faults=plan)
        b.send(Heartbeat(0, 1, 1, 0.0))
        b.send(Heartbeat(0, 1, 2, 0.0))
        b.send(Heartbeat(0, 1, 3, 0.0))
        assert a.recv(timeout=2.0).iteration == 1
        assert a.recv(timeout=2.0).iteration == 3  # 2 swallowed
        a.close(), b.close()

    def test_duplicate_injection_still_exactly_once(self):
        plan = NetworkFaultPlan([MessageDuplicate(every=1)])
        a, b = channel_pair(faults=plan)
        a.send(Heartbeat(0, 1, 1, 0.0))
        assert b.recv(timeout=2.0).iteration == 1
        with pytest.raises(ChannelTimeout):
            b.recv(timeout=0.05)  # the duplicate was deduped, not queued
        assert plan.injected["net_duplicate"] == 1
        a.close(), b.close()

    def test_targeting_by_worker_and_shard(self):
        plan = NetworkFaultPlan([ConnectionDrop(at_count=1, worker="w1",
                                                direction="send")])
        a, b = channel_pair(faults=plan)
        a.worker = "w0"
        a.send(Heartbeat(0, 1, 1, 0.0))  # wrong worker: no injection
        a.worker = "w1"
        with pytest.raises(ChannelClosed):
            a.send(Heartbeat(0, 1, 2, 0.0))
        b.close()

    def test_plan_is_deterministic_per_frame_counts(self):
        def run_plan():
            plan = NetworkFaultPlan(
                [MessageDelay(every=3, seconds=0.0, direction="recv"),
                 Partition(start=5, length=2, direction="recv")], seed=9)
            actions = []
            for count in range(1, 11):
                info = FrameInfo(conn_id=0, direction="recv", kind="",
                                 worker="w0", shard=0, count=count)
                act = plan.consult(info)
                actions.append(None if act is None else act.category)
            return actions, dict(plan.injected)

        first, second = run_plan(), run_plan()
        assert first == second
        assert "net_partition" in first[1].keys() | set()

    def test_shard_holder_drop_counts_per_connection(self):
        drop = ShardHolderDrop(shard=2, after=2, times=None)
        plan = NetworkFaultPlan([drop])

        def frame(conn, shard):
            return FrameInfo(conn_id=conn, direction="recv", kind="",
                             worker="w", shard=shard, count=1)

        assert plan.consult(frame(0, 1)) is None  # other shard ignored
        assert plan.consult(frame(0, 2)) is None  # first holder frame
        assert plan.consult(frame(0, 2)).category == "net_disconnect"
        assert plan.consult(frame(1, 2)) is None  # new holder, new count
        assert plan.consult(frame(1, 2)).category == "net_disconnect"
        assert plan.injected["net_disconnect"] == 2

    def test_action_category_validated(self):
        with pytest.raises(ValueError, match="unknown network fault"):
            NetAction("net_bogus")
        with pytest.raises(ValueError):
            NetAction("net_delay", seconds=-1.0)

    def test_plan_rejects_non_scenarios(self):
        with pytest.raises(TypeError):
            NetworkFaultPlan([object()])


class TestProtocolScoping:
    def test_lease_scoped_messages(self):
        from repro.shard.net.protocol import Ack, Failure, Outcome

        assert lease_scoped(Heartbeat(3, 2, 10, 0.0)) == (3, 2)
        assert lease_scoped(Ack("pause", 1, 4, 5)) == (1, 4)
        assert lease_scoped(Outcome(0, 1, outcome=None)) == (0, 1)
        assert lease_scoped(Failure(2, 3, "boom")) == (2, 3)
        assert lease_scoped(Hello(worker_id="w", pid=1, host="h")) is None

    def test_command_verbs_validated(self):
        from repro.shard.net.protocol import Command

        assert Command("pause").verb == "pause"
        with pytest.raises(ValueError):
            Command("reboot")

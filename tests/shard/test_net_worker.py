"""The worker-side control endpoint, driven over a real socketpair."""

import socket
import threading

from repro.shard.net.framing import FramedChannel
from repro.shard.net.protocol import Ack, Command, Heartbeat
from repro.shard.net.worker import NetWorkerControl


class FakeSim:
    def __init__(self):
        self.stop_requested = False

    def request_stop(self):
        self.stop_requested = True


def make_control(heartbeat_every=1):
    """A control for shard 3 under epoch 7, and the coordinator's end."""
    worker_end, coordinator_end = socket.socketpair()
    control = NetWorkerControl(3, 7, FramedChannel(worker_end),
                               heartbeat_every=heartbeat_every)
    return control, FramedChannel(coordinator_end)


def drain(channel):
    out = []
    while True:
        message = channel.poll(0.0)
        if message is None:
            return out
        out.append(message)


class TestNetWorkerControl:
    def test_heartbeat_cadence(self):
        control, coordinator = make_control(heartbeat_every=2)
        for k in range(5):
            control.on_iteration(k, 900.0 * k, True)
        beats = [m for m in drain(coordinator) if isinstance(m, Heartbeat)]
        assert [b.iteration for b in beats] == [0, 2, 4]
        assert all((b.shard, b.epoch) == (3, 7) for b in beats)
        assert control.last_iteration == 4

    def test_pause_then_resume_acknowledged_in_order(self):
        control, coordinator = make_control()
        coordinator.send(Command("pause"))
        coordinator.send(Command("resume"))
        control.on_iteration(0, 0.0, True)
        messages = drain(coordinator)
        assert isinstance(messages[0], Heartbeat)
        assert [m.kind for m in messages[1:]] == ["pause", "resume"]
        assert not control.paused and not control.stopped

    def test_stop_requests_cooperative_engine_stop(self):
        control, coordinator = make_control()
        sim = FakeSim()
        control.bind(sim)
        coordinator.send(Command("stop"))
        control.on_iteration(7, 6300.0, True)
        assert control.stopped
        assert sim.stop_requested
        assert Ack("stop", 3, 7, 7) in drain(coordinator)

    def test_paused_worker_keeps_heartbeating_until_stopped(self):
        control, coordinator = make_control()
        coordinator.send(Command("pause"))
        t = threading.Thread(target=control.on_iteration,
                             args=(0, 0.0, True))
        t.start()
        try:
            # the idle loop re-heartbeats so the lease deadline stays fed
            beats = 0
            for _ in range(200):
                message = coordinator.recv(timeout=5.0)
                if isinstance(message, Heartbeat):
                    beats += 1
                if beats >= 3:  # the boundary beat plus two idle ones
                    break
            assert beats >= 3
        finally:
            coordinator.send(Command("stop"))
            t.join(timeout=10)
        assert not t.is_alive()
        assert control.stopped

"""Length-prefixed, CRC-checked message framing over a stream socket.

Every protocol message travels as one or more *frames*::

    +----------+----------+----------+--------------------+
    | length   | crc32    | sequence | payload            |
    | uint32be | uint32be | uint64be | pickle (length B)  |
    +----------+----------+----------+--------------------+

``length`` counts payload bytes only; ``crc32`` covers the payload, so
torn or bit-flipped frames surface as :class:`~repro.errors.FrameCorruption`
instead of an unpickling crash deep in the protocol layer.  ``sequence``
increases by one per frame per direction; the receiver drops any frame
whose sequence it has already seen, which turns duplicated delivery
(a real TCP impossibility, but an injected-fault reality) into
exactly-once delivery at the protocol layer.

A message whose pickle exceeds :data:`MAX_FRAME` (a large shard
outcome) is split into consecutive frames of at most ``MAX_FRAME``
payload bytes; every frame but the last sets the :data:`MORE` bit of
its length word, and the receiver joins the payloads before it
unpickles.

Timeout discipline: a timed-out read keeps whatever partial frame has
arrived in an internal buffer and raises
:class:`~repro.errors.ChannelTimeout`; the next read resumes mid-frame,
so timeouts never lose frame sync.  Corruption *does* lose sync -- the
stream can't be trusted after a bad CRC -- so consumers must close the
channel on :class:`~repro.errors.FrameCorruption`.

Fault injection: a coordinator-side channel may carry a
:class:`~repro.faults.network.NetworkFaultPlan`; each message, in each
direction, is described to the plan as a
:class:`~repro.faults.network.FrameInfo` and the returned action is
applied here to all of its frames (drop the connection, blackhole,
delay, duplicate, throttle).  Workers never carry a plan -- injection
happens at one end only, so the ledger is a single deterministic
record.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import time
import zlib
from typing import Any, Optional

from repro.errors import ChannelClosed, ChannelTimeout, FrameCorruption
from repro.faults.network import FrameInfo, NetworkFaultPlan

__all__ = ["FramedChannel", "HEADER", "MAX_FRAME", "MORE"]

#: Frame header: payload length, payload CRC32, sequence number.
HEADER = struct.Struct(">IIQ")

#: Hard ceiling on one frame's payload size; a larger message is split
#: into several frames.  A length field above it is a corrupt header,
#: not a real frame.
MAX_FRAME = 256 * 1024 * 1024

#: Length-word bit set on every frame of a split message but its last.
MORE = 1 << 31


class FramedChannel:
    """One framed, fault-injectable message channel over a socket.

    Parameters
    ----------
    sock:
        A connected stream socket.  The channel owns it: :meth:`close`
        (and injected disconnects) tear it down.
    conn_id:
        Coordinator-side connection ordinal used for fault targeting
        and logging; workers leave it at 0.
    faults:
        Optional :class:`~repro.faults.network.NetworkFaultPlan`.  Only
        the coordinator passes one.
    io_timeout:
        Default deadline in seconds for :meth:`send` and :meth:`recv`.
    """

    def __init__(self, sock: socket.socket, *, conn_id: int = 0,
                 faults: Optional[NetworkFaultPlan] = None,
                 io_timeout: float = 5.0):
        self._sock = sock
        self.conn_id = int(conn_id)
        self._faults = faults if faults is not None and not faults.empty else None
        self.io_timeout = float(io_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass
        # Fault-targeting context, updated by the coordinator as the
        # peer identifies itself and acquires leases.
        self.worker: Optional[str] = None
        self.shard: Optional[int] = None
        self._send_seq = 0
        self._send_count = 0
        self._recv_count = 0
        self._last_recv_seq = 0
        self._buffer = bytearray()
        #: Payloads of a split message received so far; kept across a
        #: timed-out read like a partial frame in :attr:`_buffer`.
        self._parts: list = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the connection down; double-close is harmless."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never fails on Linux
            pass

    # -- fault plumbing -------------------------------------------------

    def _consult(self, direction: str, kind: str, count: int):
        if self._faults is None:
            return None
        info = FrameInfo(conn_id=self.conn_id, direction=direction,
                         kind=kind, worker=self.worker, shard=self.shard,
                         count=count)
        return self._faults.consult(info)

    # -- send path ------------------------------------------------------

    def send(self, message: Any) -> None:
        """Frame and send one message, applying any injected fault.

        The fault plan is consulted once per message; a duplicate
        repeats every frame of it.  Raises
        :class:`~repro.errors.ChannelClosed` if the channel is closed,
        the write fails, or an injected disconnect fires.
        """
        if self._closed:
            raise ChannelClosed(f"conn {self.conn_id}: channel is closed")
        self._send_count += 1
        action = self._consult("send", type(message).__name__,
                               self._send_count)
        if action is not None:
            if action.category == "net_disconnect":
                self.close()
                raise ChannelClosed(
                    f"conn {self.conn_id}: injected disconnect on send"
                )
            if action.category == "net_partition":
                # Blackholed: the sender believes delivery succeeded.
                self._send_seq += 1
                return
            if action.seconds > 0:
                time.sleep(action.seconds)
        payload = memoryview(pickle.dumps(message,
                                          protocol=pickle.HIGHEST_PROTOCOL))
        copies = 2 if (action is not None
                       and action.category == "net_duplicate") else 1
        try:
            # The deadline is set here, as in _fill: a preceding read
            # leaves its own (possibly tiny) remaining time behind.
            self._sock.settimeout(self.io_timeout)
            for start in range(0, len(payload), MAX_FRAME):
                part = payload[start:start + MAX_FRAME]
                more = MORE if start + MAX_FRAME < len(payload) else 0
                self._send_seq += 1
                frame = HEADER.pack(len(part) | more, zlib.crc32(part),
                                    self._send_seq) + part
                # a duplicate repeats the frame's sequence number
                self._sock.sendall(frame * copies)
        except OSError as exc:
            self.close()
            raise ChannelClosed(
                f"conn {self.conn_id}: write failed ({exc})"
            ) from exc

    # -- receive path ---------------------------------------------------

    def _fill(self, n: int, deadline: float) -> None:
        """Grow the buffer to at least ``n`` bytes or raise."""
        while len(self._buffer) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChannelTimeout(
                    f"conn {self.conn_id}: read timed out "
                    f"({len(self._buffer)}/{n} bytes buffered)"
                )
            try:
                # settimeout sits inside the try: another thread may
                # close() this channel between iterations, and a bad-fd
                # OSError must become ChannelClosed, not escape.
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise ChannelTimeout(
                    f"conn {self.conn_id}: read timed out "
                    f"({len(self._buffer)}/{n} bytes buffered)"
                ) from None
            except OSError as exc:
                self.close()
                raise ChannelClosed(
                    f"conn {self.conn_id}: read failed ({exc})"
                ) from exc
            if not chunk:
                self.close()
                raise ChannelClosed(f"conn {self.conn_id}: peer hung up")
            self._buffer.extend(chunk)

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Receive the next new message, applying any injected fault.

        Duplicate frames (sequence already seen) are silently skipped.
        A timeout leaves any partial frame, and the frames of a split
        message received so far, buffered for the next call.
        """
        deadline = time.monotonic() + (self.io_timeout if timeout is None
                                       else float(timeout))
        while True:
            if self._closed:
                raise ChannelClosed(f"conn {self.conn_id}: channel is closed")
            self._fill(HEADER.size, deadline)
            word, crc, seq = HEADER.unpack_from(self._buffer)
            length = word & ~MORE
            if length > MAX_FRAME:
                self.close()
                raise FrameCorruption(
                    f"conn {self.conn_id}: frame length {length} exceeds "
                    f"{MAX_FRAME} -- stream out of sync"
                )
            self._fill(HEADER.size + length, deadline)
            payload = bytes(self._buffer[HEADER.size:HEADER.size + length])
            del self._buffer[:HEADER.size + length]
            if zlib.crc32(payload) != crc:
                self.close()
                raise FrameCorruption(
                    f"conn {self.conn_id}: CRC mismatch on frame {seq}"
                )
            if seq <= self._last_recv_seq:
                continue  # duplicated delivery -- drop and keep reading
            self._last_recv_seq = seq
            if word & MORE:
                self._parts.append(payload)
                continue
            if self._parts:
                payload = b"".join(self._parts + [payload])
                self._parts = []
            self._recv_count += 1
            action = self._consult("recv", "", self._recv_count)
            if action is not None:
                if action.category == "net_disconnect":
                    self.close()
                    raise ChannelClosed(
                        f"conn {self.conn_id}: injected disconnect on recv"
                    )
                if action.category == "net_partition":
                    continue  # frame swallowed by the partition
                if action.seconds > 0:
                    time.sleep(action.seconds)
            try:
                return pickle.loads(payload)
            except Exception as exc:
                self.close()
                raise FrameCorruption(
                    f"conn {self.conn_id}: frame {seq} failed to decode "
                    f"({exc})"
                ) from exc

    def _buffered_frame(self) -> bool:
        """Whether a complete frame already sits in the buffer."""
        if len(self._buffer) < HEADER.size:
            return False
        length = HEADER.unpack_from(self._buffer)[0] & ~MORE
        return len(self._buffer) >= HEADER.size + min(length, MAX_FRAME)

    def poll(self, timeout: float = 0.0) -> Any:
        """Receive without waiting: ``None`` if nothing arrives in time.

        Called on the worker's hot path (once per simulated iteration
        to pick up steering commands), so the empty case must cost one
        ``select`` with a zero timeout, not a blocking read.
        """
        if self._closed:
            raise ChannelClosed(f"conn {self.conn_id}: channel is closed")
        if not self._buffered_frame():
            try:
                readable, _, _ = select.select([self._sock], [], [],
                                               max(timeout, 0.0))
            except (OSError, ValueError):
                readable = [self._sock]  # let recv surface the real error
            if not readable:
                return None
        try:
            return self.recv(timeout=max(timeout, 0.05))
        except ChannelTimeout:
            return None

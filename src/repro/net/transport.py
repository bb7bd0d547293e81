"""Length-prefixed socket transport for the distributed engine.

One frame = a 4-byte little-endian unsigned length followed by a pickled
event tuple — the same ``lease``/``lease_done``/``donate``/``best``/
``result`` vocabulary the in-process engines speak over
``multiprocessing`` queues, so the supervision state machine is
transport-agnostic.  The framing layer is deliberately split in two:

* :class:`FrameDecoder` is a pure incremental parser (bytes in, messages
  out) with no socket anywhere near it, so torn frames and partial reads
  are testable without networking;
* :class:`MessageStream` owns one connected socket and layers blocking
  ``send``/``recv`` plus a non-blocking ``poll`` on top of the decoder.

A peer that disappears mid-frame surfaces as :class:`TransportClosed`
(a ``ConnectionError``), which the coordinator treats exactly like a
dead local worker: the lease is re-enqueued.  Malformed length prefixes
and undecodable payloads raise :class:`ProtocolError` rather than
silently desynchronizing.  Payloads load through
:func:`~repro.core.strict_pickle.strict_loads`, which calls no pickle
global: the coordinator accepts any connection on its port.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import time
from typing import List, Optional, Sequence, Tuple

from ..core.strict_pickle import strict_loads

__all__ = [
    "FrameDecoder",
    "MessageStream",
    "ProtocolError",
    "TransportClosed",
    "MAX_FRAME_BYTES",
    "encode_frame",
]

#: Hard cap on one frame's payload: even a dense codec-v2 state on a graph
#: with tens of millions of vertices fits well under this.
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("<I")
_RECV_CHUNK = 1 << 16


class TransportClosed(ConnectionError):
    """The peer hung up — possibly mid-frame."""


class ProtocolError(ValueError):
    """The byte stream is not speaking this framing."""


def encode_frame(message: object) -> bytes:
    """Serialize one message as a length-prefixed pickle frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds cap")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser: ``feed`` bytes, ``next`` messages.

    ``next`` returns ``None`` while the buffered bytes end mid-frame
    (torn frame / partial read) — feeding the remainder later resumes
    exactly where the stream left off.  Protocol messages are tuples,
    never ``None``, so the sentinel is unambiguous.
    """

    __slots__ = ("_buf", "bytes_fed", "frames_out")

    def __init__(self) -> None:
        self._buf = bytearray()
        self.bytes_fed = 0
        self.frames_out = 0

    def feed(self, data: bytes) -> None:
        self.bytes_fed += len(data)
        self._buf += data

    @property
    def pending(self) -> int:
        """Buffered bytes of the (incomplete) next frame."""
        return len(self._buf)

    def next(self) -> Optional[object]:
        if len(self._buf) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buf, 0)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds cap")
        end = _LEN.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[_LEN.size:end])
        del self._buf[:end]
        self.frames_out += 1
        try:
            return strict_loads(payload)
        except ValueError as exc:
            raise ProtocolError(f"undecodable frame: {exc}") from None

    def drain(self) -> List[object]:
        """Every complete message currently buffered."""
        out: List[object] = []
        while True:
            msg = self.next()
            if msg is None:
                return out
            out.append(msg)


class MessageStream:
    """One connected socket speaking length-prefixed event tuples.

    ``send`` is blocking (frames are small; the OS buffers them),
    ``poll`` never blocks longer than its timeout, and ``recv`` blocks
    until a whole message or its deadline.  Byte/message counters feed
    the engines' comms observability.
    """

    __slots__ = ("sock", "decoder", "bytes_sent", "messages_sent")

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        self.sock = sock
        self.decoder = FrameDecoder()
        self.bytes_sent = 0
        self.messages_sent = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, message: object) -> int:
        return self.send_all((message,))

    def send_all(self, messages: Sequence[object]) -> int:
        """Send ``messages`` in order, as one write (one wake-up for the peer)."""
        frames = b"".join(encode_frame(m) for m in messages)
        try:
            self.sock.sendall(frames)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"peer gone during send: {exc}") from exc
        self.bytes_sent += len(frames)
        self.messages_sent += len(messages)
        return len(frames)

    def poll(self, timeout: float = 0.0) -> List[object]:
        """Complete messages available within ``timeout`` (may be none)."""
        msgs = self.decoder.drain()
        if msgs or not self._readable(timeout):
            return msgs
        return self.read()

    def read(self) -> List[object]:
        """One read from a socket known to be readable (say, by a
        ``select`` over many streams); the complete messages it yields."""
        self._fill()
        return self.decoder.drain()

    def recv(self, timeout: Optional[float] = None) -> object:
        """Block for exactly one message (raises ``TimeoutError``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            msg = self.decoder.next()
            if msg is not None:
                return msg
            wait = 0.05 if deadline is None else min(0.05, deadline - time.monotonic())
            if deadline is not None and wait < 0:
                raise TimeoutError("no message before deadline")
            if self._readable(max(wait, 0.0)):
                self._fill()

    def _fill(self) -> None:
        try:
            data = self.sock.recv(_RECV_CHUNK)
        except (ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"peer reset: {exc}") from exc
        if not data:
            mid = self.decoder.pending
            raise TransportClosed(
                f"peer closed{f' mid-frame ({mid} bytes buffered)' if mid else ''}")
        self.decoder.feed(data)

    def _readable(self, timeout: float) -> bool:
        try:
            return bool(select.select([self.sock], [], [], timeout)[0])
        except (OSError, ValueError) as exc:  # closed fd
            raise TransportClosed(f"socket gone: {exc}") from exc

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

"""Policy filtering and the outbound relay.

The trusted side never touches a socket.  `SecureChannel` numbers and frames
a payload, switches to the normal world, hands the frame to the transport
(the normal-world side, which owns the socket), and switches back: exactly
one world switch in each direction per send, whatever the transport does.
Dropped payloads never reach the transport at all.  Both peers, the
`RecordingTransport` and `cloud.MockCloud`, accept headers by `decode_header`.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from enum import Enum

from .tee import World, WorldContext
from .words import Label, check_field_types, split_words

FRAME_MAGIC = b"TGR1"
ACK_MAGIC = b"TGA1"
ACK_OK = 0
ACK_MALFORMED = 1
FLAG_MASKED = 0x1
SEQUENCE_LIMIT = 1 << 32
MAX_PAYLOAD = 1 << 20

FRAME_HEADER = struct.Struct("<4sIII")  # magic, sequence, flags, payload length
_ACK = struct.Struct("<4sII")  # magic, sequence, status


class FrameError(ValueError):
    pass


class HeaderError(FrameError):
    """A frame header the peers refuse.  `resync` is the payload length to
    skip to reach the next header, or None when no frame boundary is left
    to trust."""

    def __init__(self, message: str, resync: int | None):
        super().__init__(message)
        self.resync = resync


class ConnectError(ConnectionError):
    pass


class NotConnected(ConnectionError):
    pass


class TransportError(ConnectionError):
    pass


@dataclass(frozen=True)
class RelayPacket:
    sequence: int
    flags: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.sequence < SEQUENCE_LIMIT:
            raise ValueError("sequence outside u32 range")
        if not 0 <= self.flags < SEQUENCE_LIMIT:
            raise ValueError("flags outside u32 range")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload longer than {MAX_PAYLOAD} bytes")


def encode_frame(packet: RelayPacket) -> bytes:
    header = FRAME_HEADER.pack(FRAME_MAGIC, packet.sequence, packet.flags, len(packet.payload))
    return header + packet.payload


def decode_header(buf: bytes) -> tuple[int, int, int]:
    """(sequence, flags, payload length) of the header that starts `buf`."""
    if len(buf) < FRAME_HEADER.size:
        raise HeaderError("frame shorter than its header", None)
    magic, sequence, flags, length = FRAME_HEADER.unpack_from(buf)
    if length > MAX_PAYLOAD:
        raise HeaderError(f"payload length {length} over {MAX_PAYLOAD}", None)
    if magic != FRAME_MAGIC:
        raise HeaderError(f"bad frame magic {magic!r}", length)
    return sequence, flags, length


def decode_frame(buf: bytes) -> RelayPacket:
    sequence, flags, length = decode_header(buf)
    if len(buf) != FRAME_HEADER.size + length:
        raise FrameError("frame length field disagrees with the payload")
    return RelayPacket(sequence=sequence, flags=flags, payload=buf[FRAME_HEADER.size:])


def encode_ack(sequence: int, status: int) -> bytes:
    return _ACK.pack(ACK_MAGIC, sequence, status)


def decode_ack(buf: bytes) -> tuple[int, int]:
    if len(buf) != _ACK.size:
        raise FrameError(f"acknowledgement must be {_ACK.size} bytes")
    magic, sequence, status = _ACK.unpack(buf)
    if magic != ACK_MAGIC:
        raise FrameError(f"bad acknowledgement magic {magic!r}")
    return sequence, status


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


class FilterAction(Enum):
    DROP = "drop"
    MASK = "mask"


@dataclass(frozen=True)
class FilterPolicy:
    threshold: float = 0.5
    action: FilterAction = FilterAction.DROP
    mask_token: str = "[redacted]"

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")
        # the collector dumps one payload per line
        if self.mask_token.splitlines() != [self.mask_token]:
            raise ValueError("mask_token must be non-empty and hold no line separator")


@dataclass(frozen=True)
class FilterDecision:
    forward: bool
    text: str
    flags: int
    redacted: bool

    @property
    def action(self) -> str:
        if not self.forward:
            return "drop"
        return "mask" if self.redacted else "forward"


def apply_policy(policy: FilterPolicy, label: Label, text: str) -> FilterDecision:
    """Benign text passes untouched.  Sensitive text is either dropped whole
    or masked word for word, with the masked flag set on the frame."""
    if label is Label.BENIGN:
        return FilterDecision(forward=True, text=text, flags=0, redacted=False)
    if policy.action is FilterAction.DROP:
        return FilterDecision(forward=False, text="", flags=0, redacted=True)
    masked = " ".join([policy.mask_token] * len(split_words(text)))
    return FilterDecision(forward=True, text=masked, flags=FLAG_MASKED, redacted=True)


# ---------------------------------------------------------------------------
# Normal-world transports
# ---------------------------------------------------------------------------


class TcpTransport:
    """Blocking TCP client; one acknowledgement read per frame sent."""

    def __init__(self, timeout: float = 10.0):
        self._sock: socket.socket | None = None
        self._timeout = timeout

    def connect(self, endpoint: tuple[str, int]) -> None:
        try:
            self._sock = socket.create_connection(endpoint, timeout=self._timeout)
        except OSError as exc:
            raise ConnectError(f"cannot reach {endpoint[0]}:{endpoint[1]}: {exc}") from None

    def exchange(self, frame: bytes) -> bytes:
        if self._sock is None:
            raise TransportError("transport is not connected")
        try:
            self._sock.sendall(frame)
            buf = b""
            while len(buf) < _ACK.size:
                chunk = self._sock.recv(_ACK.size - len(buf))
                if not chunk:
                    raise TransportError("peer closed before acknowledging")
                buf += chunk
        except OSError as exc:
            raise TransportError(str(exc)) from None
        return buf

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class RecordingTransport:
    """In-process peer for tests: parses frames the way the real endpoint
    does, remembers everything, and acknowledges."""

    def __init__(self):
        self.connected = False
        self.sent: list[bytes] = []
        self.packets: list[RelayPacket] = []

    def connect(self, endpoint: tuple[str, int]) -> None:
        self.connected = True

    def exchange(self, frame: bytes) -> bytes:
        if not self.connected:
            raise TransportError("transport is not connected")
        self.sent.append(frame)
        try:
            packet = decode_frame(frame)
        except FrameError:
            return encode_ack(0, ACK_MALFORMED)
        self.packets.append(packet)
        return encode_ack(packet.sequence, ACK_OK)

    def close(self) -> None:
        self.connected = False


# ---------------------------------------------------------------------------
# Secure-world channel
# ---------------------------------------------------------------------------


class SecureChannel:
    """Sequencing, framing and switch accounting for the trusted sender.

    `send` numbers every frame itself and never reuses a number, not even
    one a failed send burned; `bytes_sent` counts the acknowledged frames.
    Connection setup and teardown run while the device is still in the
    normal world, so only `send` touches the switch counters.
    """

    def __init__(self, transport):
        self._transport = transport
        self._connected = False
        self._next_sequence = 0
        self.bytes_sent = 0

    def connect(self, endpoint: tuple[str, int]) -> None:
        self._transport.connect(endpoint)
        self._connected = True

    def close(self) -> None:
        if self._connected:
            self._transport.close()
            self._connected = False

    def send(self, flags: int, payload: bytes, ctx: WorldContext) -> int:
        """Relay one payload under the next sequence number and return it.

        Costs exactly two world switches: out to the normal world for the
        transport's exchange, back to the secure world afterwards, error or
        not.  The acknowledgement is parsed after the switch back, in the
        secure world that acts on it; a NAK or an ack for another sequence
        raises `TransportError`.
        """
        if not self._connected:
            raise NotConnected("channel has no open connection")
        packet = RelayPacket(self._next_sequence, flags, payload)
        self._next_sequence += 1
        frame = encode_frame(packet)
        ctx.world_switch(World.NORMAL)
        try:
            raw = self._transport.exchange(frame)
        finally:
            ctx.world_switch(World.SECURE)
        try:
            sequence, status = decode_ack(raw)
        except FrameError as exc:
            raise TransportError(f"unreadable acknowledgement: {exc}") from None
        if status != ACK_OK or sequence != packet.sequence:
            raise TransportError(
                f"frame {packet.sequence} answered for sequence {sequence} with status {status}"
            )
        self.bytes_sent += len(frame)
        return packet.sequence


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedactionRecord:
    sequence: int | None  # None when the payload was dropped unsent
    score: float
    label: Label
    action: str


@dataclass
class RedactionLog:
    records: list[RedactionRecord] = field(default_factory=list)

    def render(self) -> str:
        lines = []
        for r in self.records:
            seq = "-" if r.sequence is None else str(r.sequence)
            lines.append(f"{seq} {r.score:.4f} {r.label.value} {r.action}")
        return "\n".join(lines)

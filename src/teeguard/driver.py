"""Secure-world audio driver: a frame ring buffer allocated inside a carved
secure region, bitstream ingestion, and block encoding for the PTA hand-off.

Encoded block wire image (little-endian):
    magic "TGB1" (4) | sequence u32 | frame_count u32 | payload_length u32
    payload: frame_count * 4 bytes of interleaved L/R int16 samples
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

from . import audio, tee

BLOCK_MAGIC = b"TGB1"
HEADER = struct.Struct("<4sIII")
FRAME_BYTES = 4  # int16 L + int16 R
RING_ADDRESS_LIMIT = 1 << 20  # the ring is carved below this address


def block_size(n: int) -> int:
    """Bytes of the wire image of a block of n frames."""
    return HEADER.size + n * FRAME_BYTES


class AllocationError(RuntimeError):
    """No secure region space for the requested buffer."""


class AccessDenied(PermissionError):
    """Non-secure caller attempted a driver operation."""


class Underflow(RuntimeError):
    """Fewer frames buffered than requested."""


class MalformedBlock(ValueError):
    """Byte image does not parse as an encoded block."""


@dataclass(frozen=True)
class EncodedBlock:
    sequence: int
    frame_count: int
    payload: bytes | memoryview

    def __post_init__(self) -> None:
        if len(self.payload) != self.frame_count * FRAME_BYTES:
            raise ValueError("payload length must be frame_count * 4 bytes")

    @property
    def payload_length(self) -> int:
        return len(self.payload)

    def header(self) -> bytes:
        """The wire image's header; the payload follows it unchanged."""
        return HEADER.pack(BLOCK_MAGIC, self.sequence, self.frame_count, self.payload_length)

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "EncodedBlock":
        """Parse a wire image.  The payload is a slice of `data`, not a copy:
        parsed from a ``Memory.view`` of the out region, it aliases that
        region and stays valid until the next read into it."""
        if len(data) < HEADER.size:
            raise MalformedBlock("short block header")
        magic, sequence, frame_count, payload_length = HEADER.unpack_from(data)
        if magic != BLOCK_MAGIC:
            raise MalformedBlock(f"bad magic {magic!r}")
        if payload_length != frame_count * FRAME_BYTES:
            raise MalformedBlock("payload length disagrees with frame count")
        end = HEADER.size + payload_length
        if len(data) < end:
            raise MalformedBlock("truncated payload")
        if len(data) > end:
            raise MalformedBlock(f"{len(data) - end} trailing bytes after the payload")
        return cls(sequence, frame_count, data[HEADER.size :])


class SecureAudioDriver:
    """Single-producer/single-consumer frame ring living in secure memory.

    ``ingest`` may run on one thread and ``read_block`` on another; a mutex
    guards the shared indices.  Overflow rejects the newest frames and counts
    them as overruns.
    """

    def __init__(self, asc: tee.AddressSpaceController, memory: tee.Memory, capacity: int) -> None:
        if capacity <= 0:
            raise AllocationError("capacity must be positive")
        needed = capacity * FRAME_BYTES
        try:
            base = asc.find_free_range(needed, RING_ADDRESS_LIMIT)
            region_id = asc.carve_secure_region(base, needed)
        except (tee.RangeError, tee.OverlapError) as exc:
            raise AllocationError(f"cannot carve {needed} secure bytes") from exc
        self.asc = asc
        self.memory = memory
        self.capacity = capacity
        self.region_id = region_id
        self.buffer_base = base
        self.overrun_count = 0
        self.next_sequence = 0
        self._head = 0  # next slot to read
        self._tail = 0  # next slot to write
        self._count = 0
        self._lock = threading.Lock()

    @property
    def buffer_range(self) -> tuple[int, int]:
        """(base, length) of the backing storage in the simulated address space."""
        return self.buffer_base, self.capacity * FRAME_BYTES

    def occupancy(self) -> int:
        with self._lock:
            return self._count

    def _write_slots(self, start: int, data: bytes) -> None:
        # At most two chunks when the range wraps.
        first = min(self.capacity - start, len(data) // FRAME_BYTES)
        split = first * FRAME_BYTES
        self.memory.write(
            tee.World.SECURE, self.buffer_base + start * FRAME_BYTES, data[:split]
        )
        if split < len(data):
            self.memory.write(tee.World.SECURE, self.buffer_base, data[split:])

    def _read_slots(self, start: int, n: int) -> bytes:
        first = min(self.capacity - start, n)
        data = self.memory.read(
            tee.World.SECURE, self.buffer_base + start * FRAME_BYTES, first * FRAME_BYTES
        )
        if first < n:
            data += self.memory.read(
                tee.World.SECURE, self.buffer_base, (n - first) * FRAME_BYTES
            )
        return data

    def ingest(self, stream: audio.I2sBitstream) -> int:
        """Decode the bitstream and append frames until the ring is full;
        rejected frames bump the overrun counter.  Returns frames accepted."""
        samples = audio.decode_bitstream(stream)
        with self._lock:
            accepted = min(len(samples), self.capacity - self._count)
            rejected = len(samples) - accepted
            if accepted:
                data = samples[:accepted].astype("<i2").tobytes()
                self._write_slots(self._tail, data)
                self._tail = (self._tail + accepted) % self.capacity
                self._count += accepted
            self.overrun_count += rejected
        return accepted

    def read_block(self, n: int, caller: tee.World, ctx: tee.WorldContext) -> EncodedBlock:
        """Dequeue n frames into an encoded block; only the secure world (the
        PTA path) may call."""
        if caller is not tee.World.SECURE or ctx.current is not tee.World.SECURE:
            raise AccessDenied("read_block is a secure-world operation")
        if n <= 0:
            raise ValueError("frame count must be positive")
        with self._lock:
            if n > self._count:
                raise Underflow(f"occupancy {self._count} < requested {n}")
            payload = self._read_slots(self._head, n)
            self._head = (self._head + n) % self.capacity
            self._count -= n
            sequence = self.next_sequence
            self.next_sequence = (self.next_sequence + 1) % (1 << 32)
        return EncodedBlock(sequence, n, payload)

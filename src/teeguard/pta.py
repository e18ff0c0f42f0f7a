"""Pseudo trusted application bridge: a privileged secure-world intermediary
exposing the driver over a fixed four-parameter command protocol.

Wire format (little-endian throughout):
    command  = session u32 | cmd_id u32 | 4 * param
    response = status u32  | 4 * param
    param    = tag u32 | 8 payload bytes
        tag 0 none:   8 zero bytes
        tag 1 value:  a u32 | b u32
        tag 2 memref: region_id u32 | offset u16 | length u16

Commands:
    CMD_READ_AUDIO (0x01): in  slot0 = memref(out buffer), slot1 = value(a=n frames)
                           out slot1 = value(a=frames delivered, b=bytes written)
        The out buffer must lie in a secure-only region (ACCESS_DENIED
        otherwise) and must not be the driver's own ring (BAD_PARAMETERS).
        Both are refused before the driver dequeues anything.

A TA-to-bridge invoke stays inside the secure world and never counts as a
world switch; normal-world callers are rejected outright.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from . import tee
from .driver import HEADER, SecureAudioDriver, block_size

CMD_READ_AUDIO = 0x01

_HEAD = struct.Struct("<II")
_PARAM_VALUE = struct.Struct("<III")
_PARAM_MEMREF = struct.Struct("<IIHH")
_PARAM_NONE = struct.Struct("<I8x")
PARAM_SLOTS = 4
MEMREF_FIELD_LIMIT = 1 << 16  # offset/length travel as u16 on the wire

_TAG_NONE = 0
_TAG_VALUE = 1
_TAG_MEMREF = 2
_U32 = 1 << 32


class PtaStatus(enum.IntEnum):
    OK = 0
    BAD_SESSION = 1
    UNKNOWN_COMMAND = 2
    ACCESS_DENIED = 3
    SHORT_BUFFER = 4
    UNDERFLOW = 5
    BAD_PARAMETERS = 6


class WireError(ValueError):
    """Byte image does not parse as a command or response."""


@dataclass(frozen=True)
class NoneParam:
    pass


@dataclass(frozen=True)
class ValueParam:
    a: int
    b: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.a < _U32 and 0 <= self.b < _U32):
            raise ValueError("value fields must fit u32")


@dataclass(frozen=True)
class MemRefParam:
    region_id: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.region_id < _U32:
            raise ValueError("region id must fit u32")
        if not (0 <= self.offset < MEMREF_FIELD_LIMIT and 0 <= self.length < MEMREF_FIELD_LIMIT):
            raise ValueError("memref offset/length must fit u16")


Param = NoneParam | ValueParam | MemRefParam
_NONE = NoneParam()  # frozen, so every empty slot can share it


def _pad_params(params: tuple[Param, ...]) -> tuple[Param, ...]:
    if len(params) > PARAM_SLOTS:
        raise ValueError(f"at most {PARAM_SLOTS} params")
    return params + (_NONE,) * (PARAM_SLOTS - len(params))


@dataclass(frozen=True)
class PtaCommand:
    session: int
    cmd_id: int
    params: tuple[Param, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _pad_params(self.params))


@dataclass(frozen=True)
class PtaResponse:
    status: PtaStatus
    params: tuple[Param, ...] = ()

    def __post_init__(self) -> None:
        if len(self.params) != PARAM_SLOTS:
            object.__setattr__(self, "params", _pad_params(self.params))
        if self.status is not PtaStatus.OK and any(
            not isinstance(p, NoneParam) for p in self.params
        ):
            raise ValueError("error responses carry no out-params")


def _encode_param(param: Param) -> bytes:
    if isinstance(param, NoneParam):
        return _PARAM_NONE.pack(_TAG_NONE)
    if isinstance(param, ValueParam):
        return _PARAM_VALUE.pack(_TAG_VALUE, param.a, param.b)
    return _PARAM_MEMREF.pack(_TAG_MEMREF, param.region_id, param.offset, param.length)


def _decode_param(data: bytes) -> Param:
    tag = struct.unpack_from("<I", data)[0]
    if tag == _TAG_NONE:
        if data[4:] != bytes(8):
            raise WireError("none param carries nonzero payload")
        return _NONE
    if tag == _TAG_VALUE:
        _, a, b = _PARAM_VALUE.unpack(data)
        return ValueParam(a, b)
    if tag == _TAG_MEMREF:
        _, region_id, offset, length = _PARAM_MEMREF.unpack(data)
        return MemRefParam(region_id, offset, length)
    raise WireError(f"unknown param tag {tag}")


def encode_command(cmd: PtaCommand) -> bytes:
    out = _HEAD.pack(cmd.session, cmd.cmd_id)
    return out + b"".join(_encode_param(p) for p in cmd.params)


def decode_command(data: bytes) -> PtaCommand:
    if len(data) != _HEAD.size + PARAM_SLOTS * 12:
        raise WireError(f"command must be {_HEAD.size + PARAM_SLOTS * 12} bytes")
    session, cmd_id = _HEAD.unpack_from(data)
    params = tuple(
        _decode_param(data[8 + i * 12 : 20 + i * 12]) for i in range(PARAM_SLOTS)
    )
    return PtaCommand(session, cmd_id, params)


def encode_response(resp: PtaResponse) -> bytes:
    out = struct.pack("<I", resp.status)
    return out + b"".join(_encode_param(p) for p in resp.params)


def decode_response(data: bytes) -> PtaResponse:
    if len(data) != 4 + PARAM_SLOTS * 12:
        raise WireError(f"response must be {4 + PARAM_SLOTS * 12} bytes")
    status = struct.unpack_from("<I", data)[0]
    params = tuple(
        _decode_param(data[4 + i * 12 : 16 + i * 12]) for i in range(PARAM_SLOTS)
    )
    try:
        return PtaResponse(PtaStatus(status), params)
    except ValueError as exc:
        raise WireError(str(exc)) from None


@dataclass
class PtaBridge:
    """Dispatches TA commands to the secure driver.  It takes no lock: the
    pipeline loop drives it from one thread."""

    driver: SecureAudioDriver
    memory: tee.Memory
    _sessions: set[int] = field(default_factory=set, init=False)
    _next_session: int = field(default=1, init=False)

    def open_session(self) -> int:
        session = self._next_session
        self._next_session += 1
        self._sessions.add(session)
        return session

    def close_session(self, session: int) -> PtaResponse:
        if session not in self._sessions:
            return PtaResponse(PtaStatus.BAD_SESSION)
        self._sessions.remove(session)
        return PtaResponse(PtaStatus.OK)

    def invoke(self, cmd: PtaCommand, ctx: tee.WorldContext) -> PtaResponse:
        if ctx.current is not tee.World.SECURE:
            return PtaResponse(PtaStatus.ACCESS_DENIED)
        if cmd.session not in self._sessions:
            return PtaResponse(PtaStatus.BAD_SESSION)
        if cmd.cmd_id == CMD_READ_AUDIO:
            return self._read_audio(cmd, ctx)
        return PtaResponse(PtaStatus.UNKNOWN_COMMAND)

    def _read_audio(self, cmd: PtaCommand, ctx: tee.WorldContext) -> PtaResponse:
        memref = cmd.params[0]
        count = cmd.params[1]
        if not isinstance(memref, MemRefParam) or not isinstance(count, ValueParam):
            return PtaResponse(PtaStatus.BAD_PARAMETERS)
        n = count.a
        if n == 0:
            return PtaResponse(PtaStatus.BAD_PARAMETERS)
        try:
            region = self.memory.asc.region(memref.region_id)
        except tee.UnmappedAddress:
            return PtaResponse(PtaStatus.BAD_PARAMETERS)
        if region.owner is not tee.RegionOwner.SECURE_ONLY:
            # the normal world could read the raw block, transcript and all
            return PtaResponse(PtaStatus.ACCESS_DENIED)
        if region.id == self.driver.region_id:
            return PtaResponse(PtaStatus.BAD_PARAMETERS)
        if memref.offset + memref.length > region.length:
            return PtaResponse(PtaStatus.BAD_PARAMETERS)
        if n > self.driver.occupancy():
            return PtaResponse(PtaStatus.UNDERFLOW)
        needed = block_size(n)
        if memref.length < needed:
            # Like UNDERFLOW, fails before the driver dequeues anything.
            return PtaResponse(PtaStatus.SHORT_BUFFER)
        block = self.driver.read_block(n, tee.World.SECURE, ctx)
        base = region.base + memref.offset
        self.memory.write(tee.World.SECURE, base, block.header())
        self.memory.write(tee.World.SECURE, base + HEADER.size, block.payload)
        return PtaResponse(
            PtaStatus.OK, (_NONE, ValueParam(block.frame_count, needed), _NONE, _NONE)
        )

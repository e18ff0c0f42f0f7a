"""Privileged bridge: sessions, command dispatch, and the 12-byte-param wire."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teeguard import tee
from teeguard.audio import encode_frames
from teeguard.driver import FRAME_BYTES, HEADER, EncodedBlock, SecureAudioDriver
from teeguard.pta import (
    CMD_GET_STATUS,
    CMD_READ_AUDIO,
    MEMREF_FIELD_LIMIT,
    PARAM_SLOTS,
    MemRefParam,
    NoneParam,
    PtaBridge,
    PtaCommand,
    PtaResponse,
    PtaStatus,
    ValueParam,
    WireError,
    decode_command,
    decode_response,
    encode_command,
    encode_response,
)

import numpy as np

COMMAND_BYTES = 8 + PARAM_SLOTS * 12
RESPONSE_BYTES = 4 + PARAM_SLOTS * 12


def make_bridge(capacity=256, out_len=4096):
    asc = tee.AddressSpaceController()
    memory = tee.Memory(asc)
    driver = SecureAudioDriver(asc, memory, capacity)
    out_base = asc.find_free_range(out_len, 1 << 24)
    out_region = asc.carve_secure_region(out_base, out_len)
    bridge = PtaBridge(driver, memory)
    ctx = tee.WorldContext(current=tee.World.SECURE)
    return memory, driver, bridge, out_region, ctx


def feed(driver, n):
    samples = np.zeros((n, 2), dtype=np.int16)
    samples[:, 0] = np.arange(n, dtype=np.int16)
    assert driver.ingest(encode_frames(samples)) == n


def read_audio_cmd(session, out_region, out_len, n):
    return PtaCommand(
        session,
        CMD_READ_AUDIO,
        (MemRefParam(out_region, 0, out_len), ValueParam(n)),
    )


# -- sessions -----------------------------------------------------------------


def test_sessions_are_distinct_and_nonzero():
    _, _, bridge, _, _ = make_bridge()
    a = bridge.open_session()
    b = bridge.open_session()
    assert a != b
    assert 0 not in (a, b)


def test_many_sessions_counted():
    _, _, bridge, _, ctx = make_bridge()
    opened = {bridge.open_session() for _ in range(1000)}
    assert len(opened) == 1000
    for session in opened:
        assert bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx).status is PtaStatus.OK


def test_close_removes_only_that_session():
    _, _, bridge, _, ctx = make_bridge()
    sessions = [bridge.open_session() for _ in range(3)]
    assert bridge.close_session(sessions[1]).status is PtaStatus.OK
    statuses = [bridge.invoke(PtaCommand(s, CMD_GET_STATUS), ctx).status for s in sessions]
    assert statuses == [PtaStatus.OK, PtaStatus.BAD_SESSION, PtaStatus.OK]


def test_closed_session_rejected():
    _, _, bridge, _, ctx = make_bridge()
    session = bridge.open_session()
    bridge.close_session(session)
    resp = bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
    assert resp.status is PtaStatus.BAD_SESSION
    assert bridge.close_session(session).status is PtaStatus.BAD_SESSION


def test_unknown_session_rejected():
    _, _, bridge, _, ctx = make_bridge()
    resp = bridge.invoke(PtaCommand(0, CMD_GET_STATUS), ctx)
    assert resp.status is PtaStatus.BAD_SESSION


# -- dispatch -----------------------------------------------------------------


def test_status_on_fresh_driver():
    _, _, bridge, _, ctx = make_bridge()
    session = bridge.open_session()
    resp = bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
    assert resp.status is PtaStatus.OK
    assert resp.params[0] == ValueParam(0)
    assert resp.params[1] == ValueParam(0)


def test_status_reports_occupancy_and_overruns():
    _, driver, bridge, _, ctx = make_bridge(capacity=16)
    feed(driver, 16)
    driver.ingest(encode_frames(np.zeros((3, 2), dtype=np.int16)))  # 3 overruns
    session = bridge.open_session()
    resp = bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
    assert resp.params[0] == ValueParam(16)
    assert resp.params[1] == ValueParam(3)


def test_unknown_command():
    _, _, bridge, _, ctx = make_bridge()
    session = bridge.open_session()
    resp = bridge.invoke(PtaCommand(session, 0x99), ctx)
    assert resp.status is PtaStatus.UNKNOWN_COMMAND


def test_normal_world_context_denied():
    _, _, bridge, _, _ = make_bridge()
    session = bridge.open_session()
    ctx = tee.WorldContext(current=tee.World.NORMAL)
    resp = bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
    assert resp.status is PtaStatus.ACCESS_DENIED


def test_invoke_costs_no_world_switches():
    _, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 20)
    session = bridge.open_session()
    bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
    bridge.invoke(read_audio_cmd(session, out_region, 4096, 10), ctx)
    assert ctx.switch_count == 0
    assert ctx.switch_cost_units == 0


# -- READ_AUDIO ---------------------------------------------------------------


def test_read_audio_delivers_block():
    memory, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 20)
    session = bridge.open_session()
    resp = bridge.invoke(read_audio_cmd(session, out_region, 4096, 20), ctx)
    assert resp.status is PtaStatus.OK
    assert isinstance(resp.params[0], NoneParam)
    delivered = resp.params[1]
    assert delivered.a == 20
    assert delivered.b == HEADER.size + 20 * FRAME_BYTES  # the PCM and nothing else
    base = memory.asc.region(out_region).base
    block = EncodedBlock.from_bytes(memory.read(tee.World.SECURE, base, delivered.b))
    assert block.frame_count == 20
    assert np.frombuffer(block.payload, dtype="<i2")[::2].tolist() == list(range(20))


def test_read_audio_respects_offset():
    memory, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 4)
    session = bridge.open_session()
    cmd = PtaCommand(
        session,
        CMD_READ_AUDIO,
        (MemRefParam(out_region, 0x80, 0x200), ValueParam(4)),
    )
    resp = bridge.invoke(cmd, ctx)
    assert resp.status is PtaStatus.OK
    base = memory.asc.region(out_region).base
    raw = memory.read(tee.World.SECURE, base + 0x80, resp.params[1].b)
    assert EncodedBlock.from_bytes(raw).frame_count == 4


def test_short_buffer_leaves_queue_intact():
    _, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 20)
    session = bridge.open_session()
    resp = bridge.invoke(read_audio_cmd(session, out_region, 16, 20), ctx)
    assert resp.status is PtaStatus.SHORT_BUFFER
    assert driver.occupancy() == 20


def test_underflow():
    _, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 5)
    session = bridge.open_session()
    resp = bridge.invoke(read_audio_cmd(session, out_region, 4096, 6), ctx)
    assert resp.status is PtaStatus.UNDERFLOW
    # underflow is checked first, so a buffer also too short still reads as it
    resp = bridge.invoke(read_audio_cmd(session, out_region, 16, 6), ctx)
    assert resp.status is PtaStatus.UNDERFLOW
    assert driver.occupancy() == 5


def test_bad_parameters():
    _, driver, bridge, out_region, ctx = make_bridge()
    feed(driver, 5)
    session = bridge.open_session()

    def status_of(params):
        return bridge.invoke(PtaCommand(session, CMD_READ_AUDIO, params), ctx).status

    # zero frames
    assert status_of((MemRefParam(out_region, 0, 4096), ValueParam(0))) is (
        PtaStatus.BAD_PARAMETERS
    )
    # missing memref / wrong slot types
    assert status_of((ValueParam(5), ValueParam(5))) is PtaStatus.BAD_PARAMETERS
    assert status_of((MemRefParam(out_region, 0, 4096), NoneParam())) is (
        PtaStatus.BAD_PARAMETERS
    )
    # nonexistent region
    assert status_of((MemRefParam(999, 0, 4096), ValueParam(5))) is (
        PtaStatus.BAD_PARAMETERS
    )
    # memref overruns its region
    assert status_of((MemRefParam(out_region, 4000, 200), ValueParam(5))) is (
        PtaStatus.BAD_PARAMETERS
    )
    assert driver.occupancy() == 5


@pytest.mark.parametrize(
    "owner", [tee.RegionOwner.SHARED, tee.RegionOwner.NORMAL_ONLY], ids=lambda o: o.value
)
def test_read_audio_refuses_an_out_buffer_the_normal_world_can_read(owner):
    memory, driver, bridge, _, ctx = make_bridge()
    feed(driver, 20)
    base = memory.asc.find_free_range(4096, 1 << 24)
    region = memory.asc.map_region(base, 4096, owner)
    session = bridge.open_session()
    resp = bridge.invoke(read_audio_cmd(session, region, 4096, 20), ctx)
    assert resp.status is PtaStatus.ACCESS_DENIED
    assert driver.occupancy() == 20  # nothing dequeued
    assert memory.read(tee.World.NORMAL, base, 4096) == bytes(4096)  # nothing written


def test_read_audio_refuses_the_ring_as_its_out_buffer():
    memory, driver, bridge, _, ctx = make_bridge(capacity=256)
    feed(driver, 20)
    base, length = driver.buffer_range
    ring = memory.read(tee.World.SECURE, base, length)
    session = bridge.open_session()
    resp = bridge.invoke(read_audio_cmd(session, driver.region_id, length, 20), ctx)
    assert resp.status is PtaStatus.BAD_PARAMETERS
    assert driver.occupancy() == 20
    assert memory.read(tee.World.SECURE, base, length) == ring


def test_error_responses_carry_no_out_params():
    _, _, bridge, out_region, ctx = make_bridge()
    session = bridge.open_session()
    for resp in (
        bridge.invoke(PtaCommand(0, CMD_GET_STATUS), ctx),
        bridge.invoke(PtaCommand(session, 0x77), ctx),
        bridge.invoke(read_audio_cmd(session, out_region, 4096, 3), ctx),
    ):
        assert resp.status is not PtaStatus.OK
        assert all(isinstance(p, NoneParam) for p in resp.params)


def test_response_pads_only_a_short_param_tuple():
    full = (NoneParam(), ValueParam(3, 28), NoneParam(), NoneParam())
    assert PtaResponse(PtaStatus.OK, full).params is full  # kept as passed
    assert PtaResponse(PtaStatus.OK, (NoneParam(), ValueParam(3, 28))).params == full
    assert PtaResponse(PtaStatus.UNDERFLOW).params == (NoneParam(),) * PARAM_SLOTS
    for status in (s for s in PtaStatus if s is not PtaStatus.OK):
        for params in (full, (ValueParam(1),)):
            with pytest.raises(ValueError):
                PtaResponse(status, params)
    with pytest.raises(ValueError):
        PtaResponse(PtaStatus.OK, full + (NoneParam(),))


# -- wire format ---------------------------------------------------------------


param_st = st.one_of(
    st.builds(NoneParam),
    st.builds(ValueParam, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    st.builds(
        MemRefParam,
        st.integers(0, 2**32 - 1),
        st.integers(0, MEMREF_FIELD_LIMIT - 1),
        st.integers(0, MEMREF_FIELD_LIMIT - 1),
    ),
)
params_st = st.tuples(param_st, param_st, param_st, param_st)
command_st = st.builds(
    PtaCommand, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), params_st
)
response_st = st.one_of(
    st.builds(PtaResponse, st.just(PtaStatus.OK), params_st),
    st.builds(PtaResponse, st.sampled_from([s for s in PtaStatus if s != 0])),
)


def test_wire_sizes():
    assert len(encode_command(PtaCommand(1, 2))) == 56
    assert len(encode_response(PtaResponse(PtaStatus.OK))) == 52


@given(command_st)
def test_command_round_trip(cmd):
    assert decode_command(encode_command(cmd)) == cmd


@given(response_st)
def test_response_round_trip(resp):
    assert decode_response(encode_response(resp)) == resp


@given(command_st)
def test_command_bytes_round_trip(cmd):
    raw = encode_command(cmd)
    assert encode_command(decode_command(raw)) == raw


def test_wire_rejects_wrong_sizes():
    with pytest.raises(WireError):
        decode_command(b"\x00" * (COMMAND_BYTES - 1))
    with pytest.raises(WireError):
        decode_command(b"\x00" * (COMMAND_BYTES + 1))
    with pytest.raises(WireError):
        decode_response(b"\x00" * (RESPONSE_BYTES - 1))


def test_wire_rejects_unknown_tag():
    raw = bytearray(encode_command(PtaCommand(1, 2)))
    struct.pack_into("<I", raw, 8, 7)  # first param tag
    with pytest.raises(WireError):
        decode_command(bytes(raw))


def test_wire_rejects_dirty_none_param():
    raw = bytearray(encode_command(PtaCommand(1, 2)))
    raw[12] = 0xAB  # payload byte of a none param
    with pytest.raises(WireError):
        decode_command(bytes(raw))


def test_wire_rejects_unknown_status():
    raw = bytearray(encode_response(PtaResponse(PtaStatus.OK)))
    struct.pack_into("<I", raw, 0, 99)
    with pytest.raises(WireError):
        decode_response(bytes(raw))


def test_wire_rejects_error_response_with_payload():
    raw = bytearray(encode_response(PtaResponse(PtaStatus.OK, (ValueParam(1),))))
    struct.pack_into("<I", raw, 0, PtaStatus.UNDERFLOW)
    with pytest.raises(WireError):
        decode_response(bytes(raw))


def test_param_field_limits():
    with pytest.raises(ValueError):
        ValueParam(1 << 32)
    with pytest.raises(ValueError):
        MemRefParam(0, MEMREF_FIELD_LIMIT, 0)
    with pytest.raises(ValueError):
        MemRefParam(0, 0, MEMREF_FIELD_LIMIT)
    with pytest.raises(ValueError):
        PtaCommand(0, 0, (NoneParam(),) * 5)

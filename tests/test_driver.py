"""Secure ring buffer driver: ingestion, overrun policy, block encoding."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard import tee
from teeguard.audio import encode_frames
from teeguard.driver import (
    BLOCK_MAGIC,
    FRAME_BYTES,
    HEADER,
    AccessDenied,
    AllocationError,
    EncodedBlock,
    RING_ADDRESS_LIMIT,
    MalformedBlock,
    SecureAudioDriver,
    Underflow,
    block_size,
)


def make_driver(capacity=256):
    asc = tee.AddressSpaceController()
    memory = tee.Memory(asc)
    driver = SecureAudioDriver(asc, memory, capacity)
    ctx = tee.WorldContext(current=tee.World.SECURE)
    return asc, memory, ctx, driver


def tagged_stream(start, n):
    """n frames whose left channel counts up from `start`."""
    samples = np.zeros((n, 2), dtype=np.int16)
    samples[:, 0] = np.arange(start, start + n, dtype=np.int16)
    return encode_frames(samples)


def image(block):
    """The block's wire image, as the PTA writes it: header, then payload."""
    return block.header() + block.payload


# -- allocation --------------------------------------------------------------


def test_driver_carves_its_own_buffer():
    asc, _, _, driver = make_driver(capacity=256)
    base, length = driver.buffer_range
    assert length == 256 * FRAME_BYTES
    assert asc.region(driver.region_id).owner is tee.RegionOwner.SECURE_ONLY
    assert asc.check_access(tee.World.NORMAL, base, length) is tee.Decision.DENY


def test_nonpositive_capacity_rejected():
    asc = tee.AddressSpaceController()
    with pytest.raises(AllocationError):
        SecureAudioDriver(asc, tee.Memory(asc), 0)


def test_no_free_space_below_limit_rejected():
    asc = tee.AddressSpaceController()
    asc.carve_secure_region(0, RING_ADDRESS_LIMIT)
    with pytest.raises(AllocationError):
        SecureAudioDriver(asc, tee.Memory(asc), 256)


# -- ingestion and overrun policy ---------------------------------------------


def test_ingest_fills_occupancy():
    _, _, _, driver = make_driver()
    assert driver.ingest(tagged_stream(0, 10)) == 10
    assert driver.occupancy() == 10
    assert driver.capacity - driver.occupancy() == 246
    assert driver.overrun_count == 0


def test_overflow_rejects_newest_frames():
    _, _, ctx, driver = make_driver(capacity=256)
    accepted = driver.ingest(tagged_stream(0, 300))
    assert accepted == 256
    assert driver.occupancy() == 256
    assert driver.overrun_count == 44
    # the survivors are the oldest 256 frames
    block = driver.read_block(256, tee.World.SECURE, ctx)
    assert np.frombuffer(block.payload, dtype="<i2")[::2].tolist() == list(range(256))


def test_empty_stream_changes_nothing():
    _, _, _, driver = make_driver()
    empty = encode_frames(np.empty((0, 2), dtype=np.int16))
    assert driver.ingest(empty) == 0
    assert driver.occupancy() == 0
    assert driver.overrun_count == 0


def test_full_ring_rejects_everything():
    _, _, _, driver = make_driver(capacity=8)
    driver.ingest(tagged_stream(0, 8))
    assert driver.ingest(tagged_stream(8, 4)) == 0
    assert driver.overrun_count == 4


# -- secure access mediation --------------------------------------------------


def test_normal_world_never_touches_buffer():
    asc, memory, ctx, driver = make_driver(capacity=64)
    base, length = driver.buffer_range

    def denied():
        assert asc.check_access(tee.World.NORMAL, base, length) is tee.Decision.DENY
        with pytest.raises(tee.AccessViolation):
            memory.read(tee.World.NORMAL, base, length)

    denied()
    driver.ingest(tagged_stream(0, 20))
    denied()
    driver.read_block(10, tee.World.SECURE, ctx)
    denied()


def test_read_block_rejects_normal_caller():
    _, _, ctx, driver = make_driver()
    driver.ingest(tagged_stream(0, 10))
    with pytest.raises(AccessDenied):
        driver.read_block(10, tee.World.NORMAL, ctx)
    # a secure caller while the context sits in the normal world is just as bad
    ctx.world_switch(tee.World.NORMAL)
    with pytest.raises(AccessDenied):
        driver.read_block(10, tee.World.SECURE, ctx)


# -- block reads --------------------------------------------------------------


def test_read_block_shape_and_sequence():
    _, _, ctx, driver = make_driver()
    driver.ingest(tagged_stream(0, 32))
    first = driver.read_block(10, tee.World.SECURE, ctx)
    assert first.frame_count == 10
    assert first.payload_length == 40
    second = driver.read_block(10, tee.World.SECURE, ctx)
    assert second.sequence == first.sequence + 1
    assert driver.occupancy() == 12


def test_reads_preserve_fifo_order():
    _, _, ctx, driver = make_driver(capacity=64)
    driver.ingest(tagged_stream(0, 40))
    driver.read_block(24, tee.World.SECURE, ctx)
    driver.ingest(tagged_stream(40, 40))  # wraps around the ring
    out = driver.read_block(56, tee.World.SECURE, ctx)
    assert np.frombuffer(out.payload, dtype="<i2")[::2].tolist() == list(range(24, 80))


def test_underflow_reported():
    _, _, ctx, driver = make_driver()
    driver.ingest(tagged_stream(0, 5))
    with pytest.raises(Underflow):
        driver.read_block(6, tee.World.SECURE, ctx)
    with pytest.raises(ValueError):
        driver.read_block(0, tee.World.SECURE, ctx)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=20), st.data())
def test_interleaved_ops_keep_exact_accounting(chunks, data):
    _, _, ctx, driver = make_driver(capacity=97)
    expected_next = 0  # next tag the consumer must see
    fed = 0
    held = 0
    for n in chunks:
        accepted = driver.ingest(tagged_stream(fed, n))
        assert accepted == min(n, 97 - held)
        fed += accepted  # rejected tags are regenerated next round
        held += accepted
        if held and data.draw(st.booleans()):
            take = data.draw(st.integers(1, held))
            block = driver.read_block(take, tee.World.SECURE, ctx)
            tags = np.frombuffer(block.payload, dtype="<i2")[::2].tolist()
            assert tags == list(range(expected_next, expected_next + take))
            expected_next += take
            held -= take
        assert driver.occupancy() == held


def test_concurrent_producer_consumer():
    _, _, ctx, driver = make_driver(capacity=64)
    total = 500
    out: list[int] = []

    def produce():
        sent = 0
        while sent < total:
            n = min(10, total - sent)
            if driver.capacity - driver.occupancy() < n:
                continue
            assert driver.ingest(tagged_stream(sent, n)) == n
            sent += n

    def consume():
        while len(out) < total:
            take = min(10, driver.occupancy())
            if take == 0:
                continue
            block = driver.read_block(take, tee.World.SECURE, ctx)
            out.extend(int(v) for v in np.frombuffer(block.payload, dtype="<i2")[::2])

    producer = threading.Thread(target=produce)
    consumer = threading.Thread(target=consume)
    producer.start()
    consumer.start()
    producer.join(timeout=30)
    consumer.join(timeout=30)
    assert out == list(range(total))
    assert driver.overrun_count == 0


def test_encoded_size_predicts_serialization():
    _, _, ctx, driver = make_driver()
    driver.ingest(tagged_stream(0, 12))
    size = block_size(12)
    assert size == HEADER.size + 12 * FRAME_BYTES
    block = driver.read_block(12, tee.World.SECURE, ctx)
    assert len(image(block)) == size


# -- wire image ---------------------------------------------------------------


def test_block_round_trip():
    block = EncodedBlock(7, 3, b"\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x00")
    again = EncodedBlock.from_bytes(image(block))
    assert again == block


def test_block_header_layout():
    block = EncodedBlock(1, 1, b"\xaa\xbb\xcc\xdd")
    assert block.header() == HEADER.pack(BLOCK_MAGIC, 1, 1, 4)
    raw = image(block)
    assert raw[:4] == BLOCK_MAGIC
    assert len(raw) == HEADER.size + 4


@given(st.integers(0, 2**32 - 1), st.integers(0, 50))
def test_block_round_trip_property(sequence, n):
    payload = np.arange(2 * n, dtype="<i2").tobytes()
    block = EncodedBlock(sequence, n, payload)
    raw = image(block)
    assert len(raw) == HEADER.size + n * FRAME_BYTES
    assert EncodedBlock.from_bytes(raw) == block


def as_view(raw):
    """`raw` as the pipeline hands it to the parser: a read-only view."""
    return memoryview(bytearray(raw)).toreadonly()


def test_malformed_blocks_rejected():
    block = EncodedBlock(0, 2, b"\x01\x00\x00\x02\x03\x00\x00\x04")
    good = image(block)
    mangled = bytearray(good)
    mangled[12] ^= 0xFF  # payload_length disagrees with frame_count
    malformed = [
        good[: HEADER.size - 1],
        b"XXXX" + good[4:],
        good[:-2],  # truncated payload
        good + b"x",  # nothing may follow the payload
        bytes(mangled),
        b"",
    ]
    for form in (bytes, as_view):
        for raw in malformed:
            with pytest.raises(MalformedBlock):
                EncodedBlock.from_bytes(form(raw))
        parsed = EncodedBlock.from_bytes(form(good))
        assert parsed == block and bytes(parsed.payload) == block.payload
    # a block parsed from a view aliases what it was parsed from
    store = bytearray(good)
    parsed = EncodedBlock.from_bytes(memoryview(store).toreadonly())
    store[HEADER.size] = 0x7F
    assert parsed.payload[0] == 0x7F


def test_payload_length_must_match_frame_count():
    with pytest.raises(ValueError):
        EncodedBlock(0, 2, b"\x00" * 7)

"""Collector endpoint over real sockets: framing, NAK recovery, dump files."""

import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teeguard.cloud import BindError, MockCloud
from teeguard.relay import (
    ACK_MALFORMED,
    ACK_OK,
    FRAME_HEADER,
    ConnectError,
    RelayPacket,
    SecureChannel,
    TcpTransport,
    decode_ack,
    encode_frame,
)
from teeguard.tee import World, WorldContext


def open_channel(cloud):
    channel = SecureChannel(TcpTransport())
    channel.connect(cloud.address)
    return channel


def raw_exchange(sock, data):
    sock.sendall(data)
    buf = b""
    while len(buf) < 12:
        chunk = sock.recv(12 - len(buf))
        assert chunk, "peer closed early"
        buf += chunk
    return decode_ack(buf)


def test_stores_frames_in_arrival_order():
    with MockCloud() as cloud:
        channel = open_channel(cloud)
        ctx = WorldContext(current=World.SECURE)
        for i, text in enumerate([b"one", b"two", b"three"]):
            assert channel.send(RelayPacket(i, 0, text), ctx) == ACK_OK
        channel.close()
        packets = cloud.received()
    assert [p.sequence for p in packets] == [0, 1, 2]
    assert [p.payload for p in packets] == [b"one", b"two", b"three"]
    assert cloud.nak_count == 0


def test_nak_then_recovery_on_same_connection():
    with MockCloud() as cloud:
        with socket.create_connection(cloud.address) as sock:
            garbage = b"JUNK" + b"\x00" * 12  # header-sized, wrong magic
            assert raw_exchange(sock, garbage) == (0, ACK_MALFORMED)
            good = encode_frame(RelayPacket(5, 0, b"after the junk"))
            assert raw_exchange(sock, good) == (5, ACK_OK)
        assert cloud.nak_count == 1
        assert [p.payload for p in cloud.received()] == [b"after the junk"]


def test_bad_magic_frame_is_skipped_whole():
    # the bad frame's payload is a well-formed frame that must not be stored
    inner = encode_frame(RelayPacket(7, 0, b"smuggled"))
    wrapper = FRAME_HEADER.pack(b"XXXX", 0, 0, len(inner)) + inner
    with MockCloud() as cloud:
        with socket.create_connection(cloud.address) as sock:
            assert raw_exchange(sock, wrapper) == (0, ACK_MALFORMED)
            good = encode_frame(RelayPacket(8, 0, b"after the wrapper"))
            assert raw_exchange(sock, good) == (8, ACK_OK)
        assert cloud.nak_count == 1
        assert [p.payload for p in cloud.received()] == [b"after the wrapper"]


def test_oversize_length_rejected():
    with MockCloud() as cloud:
        with socket.create_connection(cloud.address, timeout=5.0) as sock:
            huge = encode_frame(RelayPacket(0, 0, b""))[:-4] + (1 << 21).to_bytes(4, "little")
            assert raw_exchange(sock, huge)[1] == ACK_MALFORMED
            assert sock.recv(12) == b""  # no frame boundary left: the peer hangs up
        assert cloud.received() == []


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.binary(max_size=300), min_size=1, max_size=10))
def test_ack_sequence_mirrors_frame(payloads):
    with MockCloud() as cloud:
        with socket.create_connection(cloud.address) as sock:
            for i, payload in enumerate(payloads):
                seq, status = raw_exchange(sock, encode_frame(RelayPacket(i * 7, 0, payload)))
                assert (seq, status) == (i * 7, ACK_OK)
        assert [p.payload for p in cloud.received()] == payloads


def test_many_payload_sizes_echo_back_exactly():
    sizes = [0, 1, 11, 100, 1000, 9999]
    with MockCloud() as cloud:
        channel = open_channel(cloud)
        ctx = WorldContext(current=World.SECURE)
        for i, n in enumerate(sizes):
            channel.send(RelayPacket(i, 0, bytes(n * [i % 256])), ctx)
        channel.close()
        got = cloud.received()
    assert [len(p.payload) for p in got] == sizes


def test_parallel_connections_all_land():
    with MockCloud() as cloud:
        channels = [open_channel(cloud) for _ in range(4)]
        ctx = WorldContext(current=World.SECURE)
        for i, channel in enumerate(channels):
            channel.send(RelayPacket(i, 0, b"c%d" % i), ctx)
        for channel in channels:
            channel.close()
        payloads = {p.payload for p in cloud.received()}
    assert payloads == {b"c0", b"c1", b"c2", b"c3"}


def test_bind_conflict_reported():
    with MockCloud() as cloud:
        _, port = cloud.address
        second = MockCloud(port=port)
        with pytest.raises(BindError):
            second.start()


def test_failed_dump_open_leaves_nothing_bound(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    cloud = MockCloud(port=port, dump_path=tmp_path / "no-such-dir" / "dump.txt")
    with pytest.raises(FileNotFoundError):
        cloud.start()
    # stop() must not wait on a serve loop that never started
    stopper = threading.Thread(target=cloud.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))  # the failed start released the port


def test_connect_to_unbound_port_fails():
    cloud = MockCloud()
    cloud.start()
    _, port = cloud.address
    cloud.stop()
    channel = SecureChannel(TcpTransport(timeout=2.0))
    with pytest.raises(ConnectError):
        channel.connect(("127.0.0.1", port))


def test_dump_file_mirrors_payload_text(tmp_path):
    dump = tmp_path / "received.txt"
    with MockCloud(dump_path=dump) as cloud:
        channel = open_channel(cloud)
        ctx = WorldContext(current=World.SECURE)
        channel.send(RelayPacket(0, 0, "open the door".encode()), ctx)
        channel.send(RelayPacket(1, 0, "play some music".encode()), ctx)
        channel.close()
    assert dump.read_text().splitlines() == ["open the door", "play some music"]


def test_address_requires_running_server():
    cloud = MockCloud()
    with pytest.raises(RuntimeError):
        cloud.address
    cloud.start()
    host, port = cloud.address
    assert host == "127.0.0.1" and port > 0
    cloud.stop()

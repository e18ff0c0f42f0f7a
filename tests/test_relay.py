"""Frame codec, redaction policy, and switch accounting on the send path."""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teeguard import relay
from teeguard.relay import (
    ACK_MALFORMED,
    ACK_OK,
    FLAG_MASKED,
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_PAYLOAD,
    FilterAction,
    FilterDecision,
    FilterPolicy,
    FrameError,
    HeaderError,
    NotConnected,
    RecordingTransport,
    RedactionLog,
    RedactionRecord,
    RelayPacket,
    SecureChannel,
    TransportError,
    apply_policy,
    decode_ack,
    decode_frame,
    decode_header,
    encode_ack,
    encode_frame,
)
from teeguard.tee import World, WorldContext
from teeguard.words import Label

packet_st = st.builds(
    RelayPacket,
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.binary(max_size=200),
)


def make_channel():
    transport = RecordingTransport()
    channel = SecureChannel(transport)
    channel.connect(("test", 0))
    ctx = WorldContext(current=World.SECURE)
    return transport, channel, ctx


# -- wire format -----------------------------------------------------------------


def test_frame_layout():
    raw = encode_frame(RelayPacket(7, FLAG_MASKED, b"hi"))
    assert raw[:4] == FRAME_MAGIC
    assert len(raw) == FRAME_HEADER.size + 2
    assert raw[FRAME_HEADER.size:] == b"hi"


@given(packet_st)
def test_frame_round_trip(packet):
    assert decode_frame(encode_frame(packet)) == packet


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_ack_round_trip(sequence, status):
    assert decode_ack(encode_ack(sequence, status)) == (sequence, status)


def test_malformed_frames_rejected():
    good = encode_frame(RelayPacket(1, 0, b"abc"))
    with pytest.raises(FrameError):
        decode_frame(good[:10])
    with pytest.raises(FrameError):
        decode_frame(b"XXXX" + good[4:])
    with pytest.raises(FrameError):
        decode_frame(good + b"extra")
    with pytest.raises(FrameError):
        decode_frame(good[:-1])


def test_malformed_acks_rejected():
    good = encode_ack(1, ACK_OK)
    with pytest.raises(FrameError):
        decode_ack(good[:-1])
    with pytest.raises(FrameError):
        decode_ack(b"ZZZZ" + good[4:])


def test_packet_field_limits():
    with pytest.raises(ValueError):
        RelayPacket(2**32, 0, b"")
    with pytest.raises(ValueError):
        RelayPacket(0, -1, b"")
    RelayPacket(0, 0, bytes(MAX_PAYLOAD))
    with pytest.raises(ValueError):
        RelayPacket(0, 0, bytes(MAX_PAYLOAD + 1))


def test_header_rule():
    header = encode_frame(RelayPacket(6, FLAG_MASKED, b"abc"))[: FRAME_HEADER.size]
    assert decode_header(header) == (6, FLAG_MASKED, 3)
    with pytest.raises(HeaderError) as short:
        decode_header(header[:-1])
    assert short.value.resync is None
    with pytest.raises(HeaderError) as magic:
        decode_header(b"XXXX" + header[4:])
    assert magic.value.resync == 3  # the payload to skip to the next header
    with pytest.raises(HeaderError) as long:
        decode_header(FRAME_HEADER.pack(FRAME_MAGIC, 6, 0, MAX_PAYLOAD + 1))
    assert long.value.resync is None  # no frame boundary left to trust


# -- policy filtering ---------------------------------------------------------------


def test_benign_text_passes_untouched():
    decision = apply_policy(FilterPolicy(), Label.BENIGN, "turn on the lights")
    assert decision == FilterDecision(True, "turn on the lights", 0, False)
    assert decision.action == "forward"


def test_drop_policy_suppresses_sensitive_text():
    decision = apply_policy(FilterPolicy(action=FilterAction.DROP), Label.SENSITIVE, "my pin")
    assert not decision.forward
    assert decision.text == ""
    assert decision.redacted
    assert decision.action == "drop"


def test_mask_policy_replaces_every_word():
    policy = FilterPolicy(action=FilterAction.MASK, mask_token="X")
    decision = apply_policy(policy, Label.SENSITIVE, "my pin is 1234")
    assert decision.forward
    assert decision.text == "X X X X"
    assert decision.flags == FLAG_MASKED
    assert decision.action == "mask"


@given(st.text(max_size=80))
def test_mask_output_length_matches_word_count(text):
    from teeguard.words import split_words

    policy = FilterPolicy(action=FilterAction.MASK, mask_token="[redacted]")
    decision = apply_policy(policy, Label.SENSITIVE, text)
    words = split_words(text)
    assert decision.text.split() == ["[redacted]"] * len(words)
    # no fragment of the original words survives
    for word in words:
        assert word not in decision.text.split()


def test_policy_validation():
    with pytest.raises(ValueError):
        FilterPolicy(threshold=0.0)
    with pytest.raises(ValueError):
        FilterPolicy(threshold=1.0)
    # a line separator would split one payload over lines of the collector's dump
    for token in ("", "x\ny", "x\ry", "x\u2028y", "x\x1cy"):
        with pytest.raises(ValueError):
            FilterPolicy(mask_token=token)


@pytest.mark.parametrize(("name", "value"), [
    ("mask_token", 5), ("mask_token", b"x"), ("threshold", "0.5"), ("threshold", True),
])
def test_policy_refuses_wrong_types(name, value):
    # mask_token=5 used to raise AttributeError, threshold="0.5" TypeError
    with pytest.raises(ValueError, match="must be of type"):
        FilterPolicy(**{name: value})


# -- send path ------------------------------------------------------------------


def test_single_send_costs_two_switches():
    transport, channel, ctx = make_channel()
    assert channel.send(0, b"hello", ctx) == 0
    assert ctx.switch_count == 2
    assert ctx.current is World.SECURE
    assert transport.packets == [RelayPacket(0, 0, b"hello")]


def test_n_sends_cost_exactly_2n_switches():
    transport, channel, ctx = make_channel()
    for _ in range(25):
        channel.send(0, b"x", ctx)
    assert ctx.switch_count == 50
    assert [p.sequence for p in transport.packets] == list(range(25))


def test_connect_and_close_cost_nothing():
    transport = RecordingTransport()
    channel = SecureChannel(transport)
    ctx = WorldContext(current=World.SECURE)
    channel.connect(("host", 1))
    channel.close()
    assert ctx.switch_count == 0
    assert not transport.connected


def test_unconnected_send_costs_nothing():
    channel = SecureChannel(RecordingTransport())
    ctx = WorldContext(current=World.SECURE)
    with pytest.raises(NotConnected):
        channel.send(0, b"", ctx)
    assert ctx.switch_count == 0


def test_transport_failure_still_costs_two_switches():
    transport, channel, ctx = make_channel()
    transport.connected = False  # next exchange raises
    with pytest.raises(TransportError):
        channel.send(0, b"x", ctx)
    assert ctx.switch_count == 2
    assert ctx.current is World.SECURE
    # the burned sequence number is never handed out again
    transport.connected = True
    assert channel.send(0, b"y", ctx) == 1


def test_sent_bytes_are_the_marshaled_frames():
    transport, channel, ctx = make_channel()
    packets = [RelayPacket(i, FLAG_MASKED, bytes([i]) * i) for i in range(5)]
    for packet in packets:
        channel.send(packet.flags, packet.payload, ctx)
    assert transport.sent == [encode_frame(p) for p in packets]
    assert channel.bytes_sent == sum(len(frame) for frame in transport.sent)


def test_the_secure_world_parses_the_ack(monkeypatch):
    transport, channel, ctx = make_channel()
    worlds = []

    def watched_decode_ack(raw):
        worlds.append(ctx.current)
        return decode_ack(raw)

    monkeypatch.setattr(relay, "decode_ack", watched_decode_ack)
    channel.send(0, b"x", ctx)
    assert worlds == [World.SECURE]


def test_unreadable_ack_still_costs_two_switches():
    class ShortAckTransport(RecordingTransport):
        def exchange(self, frame):
            return super().exchange(frame)[:-1]

    transport = ShortAckTransport()
    channel = SecureChannel(transport)
    channel.connect(("t", 0))
    ctx = WorldContext(current=World.SECURE)
    with pytest.raises(TransportError, match="unreadable acknowledgement"):
        channel.send(0, b"p", ctx)
    assert ctx.switch_count == 2
    assert ctx.current is World.SECURE


def test_mismatched_ack_sequence_detected():
    class LyingTransport(RecordingTransport):
        def exchange(self, frame):
            super().exchange(frame)
            return encode_ack(999, ACK_OK)

    transport = LyingTransport()
    channel = SecureChannel(transport)
    channel.connect(("t", 0))
    ctx = WorldContext(current=World.SECURE)
    with pytest.raises(TransportError, match="frame 0 answered for sequence 999"):
        channel.send(0, b"p", ctx)
    assert ctx.switch_count == 2


def test_peer_naks_garbage_frames():
    transport = RecordingTransport()
    transport.connect(("t", 0))
    assert decode_ack(transport.exchange(b"not a frame"))[1] == ACK_MALFORMED
    assert transport.packets == []


def test_nak_raises_after_two_switches():
    class NakTransport(RecordingTransport):
        def exchange(self, frame):
            super().exchange(frame)
            return encode_ack(0, ACK_MALFORMED)

    channel = SecureChannel(NakTransport())
    channel.connect(("t", 0))
    ctx = WorldContext(current=World.SECURE)
    with pytest.raises(TransportError, match="frame 0 answered for sequence 0 with status 1"):
        channel.send(0, b"p", ctx)
    assert ctx.switch_count == 2
    assert channel.bytes_sent == 0


def test_sequences_are_monotonic_and_unique():
    transport, channel, ctx = make_channel()
    values = [channel.send(0, b"x", ctx) for _ in range(100)]
    assert values == list(range(100))
    assert [p.sequence for p in transport.packets] == values
    # the channel alone numbers frames: send takes no sequence
    assert list(inspect.signature(SecureChannel.send).parameters) == [
        "self", "flags", "payload", "ctx",
    ]
    assert not hasattr(SecureChannel, "next_sequence")


# -- audit log -------------------------------------------------------------------


def test_log_render_format():
    log = RedactionLog([
        RedactionRecord(0, 0.9731, Label.SENSITIVE, "mask"),
        RedactionRecord(None, 0.88, Label.SENSITIVE, "drop"),
        RedactionRecord(1, 0.0215, Label.BENIGN, "forward"),
    ])
    assert log.render().splitlines() == [
        "0 0.9731 sensitive mask",
        "- 0.8800 sensitive drop",
        "1 0.0215 benign forward",
    ]


def test_empty_log_renders_empty():
    assert RedactionLog().render() == ""

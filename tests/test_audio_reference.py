"""The I2S codec against a frozen copy of its per-row predecessor.

``reference_encode`` and ``reference_decode`` are the codec as it stood
before it moved to whole frame words: each word unpacked into its own row,
the segment assembled column by column, and decoded again with one
``packbits`` per row.  They are kept unchanged as the reference: same bits
out, same samples back, and on malformed uint8 streams the same exception
class and message.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.audio import (
    SAMPLE_MAX,
    SAMPLE_MIN,
    WORD_LENGTH,
    I2sBitstream,
    MalformedStream,
    decode_bitstream,
    encode_frames,
)


def _word_bits(values: np.ndarray) -> np.ndarray:
    """(n,) int16 -> (n, 16) bits, MSB first, two's-complement pattern."""
    be = values.astype(np.int16).view(np.uint16).astype(">u2")
    return np.unpackbits(be.view(np.uint8).reshape(-1, 2), axis=1)


def _bits_to_words(bits: np.ndarray) -> np.ndarray:
    """(n, 16) MSB-first bits -> (n,) int16."""
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    return packed.view(">u2").astype(np.uint16).view(np.int16).reshape(-1)


def reference_encode(samples: np.ndarray) -> I2sBitstream:
    samples = np.asarray(samples, dtype=np.int16).reshape(-1, 2)
    n = len(samples)
    w = WORD_LENGTH
    left_bits = _word_bits(samples[:, 0])
    right_bits = _word_bits(samples[:, 1])
    sd = np.zeros((n, 2 * w), dtype=np.uint8)
    sd[:, 1 : w + 1] = left_bits
    sd[:, w + 1 :] = right_bits[:, : w - 1]
    sd[:, 0] = right_bits[:, w - 1]
    ws = np.tile(np.repeat(np.array([0, 1], dtype=np.uint8), w), n)
    return I2sBitstream(ws=ws, sd=sd.reshape(-1))


def reference_decode(bits: I2sBitstream) -> np.ndarray:
    w = WORD_LENGTH
    ws = np.asarray(bits.ws, dtype=np.uint8)
    sd = np.asarray(bits.sd, dtype=np.uint8)
    if ws.shape != sd.shape or ws.ndim != 1:
        raise MalformedStream("ws and sd must be equal-length flat sequences")
    if np.any(ws > 1) or np.any(sd > 1):
        raise MalformedStream("bitstream values must be 0 or 1")
    if len(ws) % (2 * w) != 0:
        raise MalformedStream(
            f"stream length {len(ws)} is not a multiple of {2 * w} clocks"
        )
    n = len(ws) // (2 * w)
    if n == 0:
        return np.empty((0, 2), dtype=np.int16)
    expected_ws = np.tile(np.repeat(np.array([0, 1], dtype=np.uint8), w), n)
    if not np.array_equal(ws, expected_ws):
        raise MalformedStream("ws run lengths do not alternate every word")
    segs = sd.reshape(n, 2 * w)
    left = _bits_to_words(segs[:, 1 : w + 1])
    right = _bits_to_words(np.hstack([segs[:, w + 1 :], segs[:, :1]]))
    return np.stack([left, right], axis=1)


def outcome(decode, ws: np.ndarray, sd: np.ndarray):
    """What one decoder makes of a stream: its samples, or its error."""
    try:
        samples = decode(I2sBitstream(ws=ws, sd=sd))
    except MalformedStream as exc:
        return type(exc), str(exc)
    return samples.dtype, samples.shape, samples.tobytes()


MUTANTS = ("flip_ws", "flip_sd", "ws_two", "sd_two", "truncate", "unequal", "two_d")


def mutate(ws: np.ndarray, sd: np.ndarray, kind: str, at: int):
    """One uint8 mutant of a non-empty stream; `at` picks the clock."""
    ws, sd = ws.copy(), sd.copy()
    i = at % len(ws)
    if kind == "flip_ws":
        ws[i] ^= 1
    elif kind == "flip_sd":
        sd[i] ^= 1
    elif kind == "ws_two":
        ws[i] = 2
    elif kind == "sd_two":
        sd[i] = 2
    elif kind == "truncate":
        ws, sd = ws[:i], sd[:i]
    elif kind == "unequal":
        ws = ws[:-1]
    else:
        ws, sd = ws.reshape(-1, 2), sd.reshape(-1, 2)
    return ws, sd


def assert_same_codec(samples: np.ndarray) -> I2sBitstream:
    ours, theirs = encode_frames(samples), reference_encode(samples)
    for line, ref in ((ours.ws, theirs.ws), (ours.sd, theirs.sd)):
        assert line.dtype == ref.dtype
        assert line.tobytes() == ref.tobytes()
    assert outcome(decode_bitstream, ours.ws, ours.sd) == outcome(
        reference_decode, theirs.ws, theirs.sd
    )
    assert np.array_equal(decode_bitstream(ours), samples)
    return ours


corner_st = st.sampled_from([SAMPLE_MIN, -1, 0, 1, SAMPLE_MAX])
sample_st = st.one_of(corner_st, st.integers(SAMPLE_MIN, SAMPLE_MAX))


@settings(derandomize=True, max_examples=400)
@given(
    st.lists(st.tuples(sample_st, sample_st), min_size=0, max_size=64),
    st.sampled_from(MUTANTS),
    st.integers(0, 2**31),
)
def test_codec_matches_reference(pairs, kind, at):
    samples = np.array(pairs, dtype=np.int16).reshape(-1, 2)
    stream = assert_same_codec(samples)
    if len(stream.ws):
        ws, sd = mutate(stream.ws, stream.sd, kind, at)
        assert outcome(decode_bitstream, ws, sd) == outcome(reference_decode, ws, sd)


def test_long_utterance_matches_reference():
    rng = np.random.default_rng(8000)
    samples = rng.integers(SAMPLE_MIN, SAMPLE_MAX + 1, size=(8000, 2), dtype=np.int16)
    samples[:3] = [(SAMPLE_MIN, SAMPLE_MAX), (-1, -1), (SAMPLE_MAX, SAMPLE_MIN)]
    stream = assert_same_codec(samples)
    for at, kind in enumerate(MUTANTS):
        ws, sd = mutate(stream.ws, stream.sd, kind, 37_000 * at + 5)
        assert outcome(decode_bitstream, ws, sd) == outcome(reference_decode, ws, sd)

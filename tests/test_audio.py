"""Serial audio codec and the synthetic microphone corpus generator."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.audio import (
    SAMPLE_MAX,
    SAMPLE_MIN,
    WORD_LENGTH,
    GeneratorConfig,
    I2sBitstream,
    MalformedStream,
    MicrophoneSource,
    Utterance,
    decode_bitstream,
    encode_frames,
    filler_vocabulary,
    lexicon,
    make_labeled_corpus,
    symbol_budget,
)
from teeguard.words import Label, keyword_label

samples_st = st.integers(SAMPLE_MIN, SAMPLE_MAX)


# -- bit-level layout -------------------------------------------------------


def test_silence_frame_layout():
    bits = encode_frames(np.array([[0, 0]], dtype=np.int16))
    assert len(bits.ws) == 2 * WORD_LENGTH
    assert list(zip(bits.ws.tolist(), bits.sd.tolist())) == [(0, 0)] * 16 + [(1, 0)] * 16


def test_left_lsb_lands_on_right_window_first_clock():
    # MSB-first with one-clock delay: left bit 0 is emitted at clock 16
    bits = encode_frames(np.array([[1, 0]], dtype=np.int16))
    assert bits.sd.tolist() == [0] * 16 + [1] + [0] * 15


def test_right_lsb_wraps_to_clock_zero():
    bits = encode_frames(np.array([[0, 1]], dtype=np.int16))
    sd = bits.sd.tolist()
    assert sd[0] == 1
    assert sd[1:] == [0] * 31


def test_left_msb_at_clock_one():
    # 0x8000: only the sign bit
    bits = encode_frames(np.array([[SAMPLE_MIN, 0]], dtype=np.int16))
    sd = bits.sd.tolist()
    assert sd[1] == 1
    assert sum(sd) == 1


def test_ws_alternates_every_word():
    stream = encode_frames(np.zeros((3, 2), dtype=np.int16))
    assert stream.ws.tolist() == ([0] * 16 + [1] * 16) * 3


def test_stream_length_scales_with_frame_count():
    for n in (1, 2, 7, 160):
        stream = encode_frames(np.zeros((n, 2), dtype=np.int16))
        assert len(stream.ws) == n * 2 * WORD_LENGTH


# -- round trips and corners ------------------------------------------------


@pytest.mark.parametrize("left", [SAMPLE_MIN, -1, 0, 1, SAMPLE_MAX])
@pytest.mark.parametrize("right", [SAMPLE_MIN, -1, 0, 1, SAMPLE_MAX])
def test_corner_samples_round_trip(left, right):
    decoded = decode_bitstream(encode_frames(np.array([[left, right]], dtype=np.int16)))
    assert decoded.tolist() == [[left, right]]


@settings(max_examples=300)
@given(st.lists(st.tuples(samples_st, samples_st), min_size=1, max_size=40))
def test_encode_decode_identity(pairs):
    samples = np.array(pairs, dtype=np.int16)
    decoded = decode_bitstream(encode_frames(samples))
    assert np.array_equal(decoded, samples)


def test_empty_stream_decodes_to_no_frames():
    bits = encode_frames(np.empty((0, 2), dtype=np.int16))
    assert decode_bitstream(bits).shape == (0, 2)
    assert decode_bitstream(I2sBitstream(ws=[], sd=[])).shape == (0, 2)


# -- framing rejections -----------------------------------------------------


def test_truncated_stream_rejected():
    bits = encode_frames(np.array([[123, -456]], dtype=np.int16))
    bits.ws = bits.ws[:-1]
    bits.sd = bits.sd[:-1]
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


def test_short_ws_run_rejected():
    # 15-clock low run: splice one clock out of the left window
    bits = encode_frames(np.zeros((2, 2), dtype=np.int16))
    keep = np.ones(len(bits.ws), dtype=bool)
    keep[3] = False
    bits.ws = np.append(bits.ws[keep], 1).astype(np.uint8)
    bits.sd = np.append(bits.sd[keep], 0).astype(np.uint8)
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


def test_inverted_ws_rejected():
    bits = encode_frames(np.array([[0, 0]], dtype=np.int16))
    bits.ws = 1 - bits.ws
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


def test_non_binary_values_rejected():
    bits = encode_frames(np.array([[0, 0]], dtype=np.int16))
    bits.sd = bits.sd.copy()
    bits.sd[5] = 2
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


def test_mismatched_line_lengths_rejected():
    bits = encode_frames(np.array([[0, 0]], dtype=np.int16))
    bits.ws = bits.ws[:-2]
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


# A uint8 cast would turn the first two back into the original stream and
# the third into a bare OverflowError; each is judged on its own dtype.
@pytest.mark.parametrize(
    "widen",
    [
        lambda ws, sd: (ws, sd.astype(np.int64) * 257),
        lambda ws, sd: (ws + 0.5, sd),
        lambda ws, sd: (ws.tolist(), [256 * int(bit) for bit in sd]),
        lambda ws, sd: (ws, sd.astype(np.int64) * -1),
    ],
    ids=["int64-257", "float-offset-half", "list-256", "int64-negative"],
)
def test_wide_dtype_values_rejected_before_narrowing(widen):
    bits = encode_frames(np.array([[123, -456]], dtype=np.int16))
    ws, sd = widen(bits.ws, bits.sd)
    with pytest.raises(MalformedStream, match="values must be 0 or 1"):
        decode_bitstream(I2sBitstream(ws=ws, sd=sd))


@pytest.mark.parametrize(
    "widen",
    [
        lambda line: line.astype(bool),
        lambda line: line.astype(np.int64),
        lambda line: line.tolist(),
    ],
    ids=["bool", "int64", "list"],
)
def test_wide_dtype_bits_decode(widen):
    samples = np.array([[123, -456], [SAMPLE_MIN, SAMPLE_MAX]], dtype=np.int16)
    bits = encode_frames(samples)
    decoded = decode_bitstream(I2sBitstream(ws=widen(bits.ws), sd=widen(bits.sd)))
    assert decoded.dtype == np.int16
    assert np.array_equal(decoded, samples)


def test_encode_returns_fresh_writable_lines():
    # Callers mutate streams in place; no line may alias another or a cache.
    samples = np.array([[1, -2], [SAMPLE_MIN, SAMPLE_MAX]], dtype=np.int16)
    first, second = encode_frames(samples), encode_frames(samples)
    lines = [first.ws, first.sd, second.ws, second.sd]
    for line in lines:
        assert line.dtype == np.uint8 and line.ndim == 1
        assert line.flags.c_contiguous and line.flags.writeable
        assert not np.shares_memory(line, samples)
    for i, line in enumerate(lines):
        for other in lines[i + 1 :]:
            assert not np.shares_memory(line, other)
    first.ws[:] = 1
    first.sd[:] = 1
    assert encode_frames(samples).ws.tolist() == second.ws.tolist() == ([0] * 16 + [1] * 16) * 2
    assert np.array_equal(decode_bitstream(encode_frames(samples)), samples)


@settings(max_examples=150)
@given(
    st.lists(st.tuples(samples_st, samples_st), min_size=1, max_size=8),
    st.data(),
)
def test_truncation_never_accepted(pairs, data):
    bits = encode_frames(np.array(pairs, dtype=np.int16))
    cut = data.draw(st.integers(1, len(bits.ws) - 1))
    bits.ws = bits.ws[:-cut]
    bits.sd = bits.sd[:-cut]
    if len(bits.ws) % (2 * WORD_LENGTH) == 0:
        return  # dropped a whole number of frames; stream is still well formed
    with pytest.raises(MalformedStream):
        decode_bitstream(bits)


# -- microphone and corpus generation ----------------------------------------


def test_capture_is_deterministic_per_seed():
    config = GeneratorConfig()
    a = MicrophoneSource(config, seed=42).capture(160)
    b = MicrophoneSource(config, seed=42).capture(160)
    assert np.array_equal(a.frames, b.frames)
    assert a.payload_text == b.payload_text
    assert a.truth_label is b.truth_label


def test_different_seeds_differ():
    config = GeneratorConfig()
    a = MicrophoneSource(config, seed=1).capture(160)
    b = MicrophoneSource(config, seed=2).capture(160)
    assert not np.array_equal(a.frames, b.frames) or a.payload_text != b.payload_text


def test_capture_rejects_empty_request():
    with pytest.raises(ValueError):
        MicrophoneSource(GeneratorConfig(), seed=0).capture(0)


def test_utterance_requires_frames():
    with pytest.raises(ValueError):
        Utterance(np.empty((0, 2), dtype=np.int16), "hi", Label.BENIGN)


def test_keyword_presence_sets_truth_label():
    corpus = make_labeled_corpus(GeneratorConfig(sensitivity=1.0), seed=7, count=50)
    keywords = set(GeneratorConfig().keywords)
    for text, label in corpus:
        assert label is Label.SENSITIVE
        assert keywords & set(text.split())


# sha256 of "label<TAB>text<NEWL>" over 10,000 samples, taken when the sampler
# still labeled each utterance by splitting its joined text again
CORPUS_DIGESTS = [
    (GeneratorConfig(), 1,
     "d66740a8a6e46abae16777a8ce8b525c08772c8d81ede35d6884bfbc2e466ad9"),
    (GeneratorConfig(keywords=("PIN", "Secret", "ssn"), sensitivity=0.5, vocab_size=30), 2,
     "6afd63110e011a491a461e92bb5d0dedea39e7f15494e8656c3d1784dfde3462"),
    (GeneratorConfig(keywords=("password", "A1"), sensitivity=0.9, vocab_size=120,
                     min_words=1, max_words=3), 3,
     "74a5aee5ab328edc84f799ad24c6e46ca65ea2e7edfa967738c0138a9f164c87"),
]


@pytest.mark.parametrize("config, seed, expected", CORPUS_DIGESTS, ids=["default", "PIN", "short"])
def test_labels_match_the_keyword_rule_on_the_joined_text(config, seed, expected):
    corpus = make_labeled_corpus(config, seed, 10_000)
    assert {label for _, label in corpus} == {Label.SENSITIVE, Label.BENIGN}
    assert [label for _, label in corpus] == [
        keyword_label(text, config.keywords) for text, _ in corpus
    ]
    digest = hashlib.sha256()
    for text, label in corpus:
        digest.update(f"{label.value}\t{text}\n".encode())
    assert digest.hexdigest() == expected


def test_zero_sensitivity_yields_only_benign():
    corpus = make_labeled_corpus(GeneratorConfig(sensitivity=0.0), seed=7, count=200)
    assert all(label is Label.BENIGN for _, label in corpus)


def test_sensitive_fraction_tracks_configured_rate():
    corpus = make_labeled_corpus(GeneratorConfig(sensitivity=0.3), seed=5, count=1000)
    fraction = sum(label is Label.SENSITIVE for _, label in corpus) / len(corpus)
    assert abs(fraction - 0.3) < 0.05


def test_corpus_generation_is_deterministic():
    a = make_labeled_corpus(GeneratorConfig(), seed=11, count=64)
    b = make_labeled_corpus(GeneratorConfig(), seed=11, count=64)
    assert a == b


def test_word_counts_respect_bounds():
    config = GeneratorConfig(min_words=4, max_words=10, sensitivity=0.3)
    for text, label in make_labeled_corpus(config, seed=3, count=300):
        count = len(text.split())
        # up to two keywords may be inserted on top of the filler words
        assert 4 <= count <= 12


def test_symbol_budget_bounds_every_utterance():
    config = GeneratorConfig(
        keywords=("password", "pin"), sensitivity=1.0, vocab_size=5, min_words=3, max_words=3
    )
    assert symbol_budget(config) == 3 + 2 + 1
    words = lexicon(config)
    mic = MicrophoneSource(config, seed=2)
    for _ in range(500):
        utt = mic.capture(3)  # six samples: exactly the budget
        flat = utt.frames.reshape(-1).tolist()
        spoken = utt.payload_text.split()
        assert flat[: len(spoken) + 1] == [words.index(w) + 1 for w in spoken] + [0]
    with pytest.raises(ValueError):
        mic.capture(2)


def test_capture_overwrites_only_the_leading_noise():
    config = GeneratorConfig()
    utt = MicrophoneSource(config, seed=42).capture(160)
    noise = np.random.default_rng(42).integers(
        SAMPLE_MIN, SAMPLE_MAX + 1, size=(160, 2), dtype=np.int16
    ).reshape(-1)
    spoken = len(utt.payload_text.split()) + 1
    assert np.array_equal(utt.frames.reshape(-1)[spoken:], noise[spoken:])


def test_lexicon_symbols_must_fit_int16():
    keywords = GeneratorConfig().keywords
    GeneratorConfig(vocab_size=SAMPLE_MAX - len(keywords))
    with pytest.raises(ValueError):
        GeneratorConfig(vocab_size=SAMPLE_MAX - len(keywords) + 1)


def test_filler_vocabulary_excludes_keywords():
    config = GeneratorConfig(keywords=("lights", "music"), vocab_size=60)
    vocab = filler_vocabulary(config)
    assert len(vocab) == 60
    assert "lights" not in vocab and "music" not in vocab
    assert "unk" not in vocab


def test_filler_vocabulary_pads_past_base_list():
    vocab = filler_vocabulary(GeneratorConfig(vocab_size=100))
    assert len(vocab) == 100
    assert len(set(vocab)) == 100


@pytest.mark.parametrize("keyword", ["credit card", "e-mail", "cl\u00e9"])
def test_keywords_the_keyword_rule_would_split_are_rejected(keyword):
    # the rule compares whole split_words tokens, so these never matched and
    # half of the utterances that said them were labelled benign
    with pytest.raises(ValueError, match=re.escape(repr(keyword))):
        GeneratorConfig(keywords=(keyword, "pin"))


def test_uppercase_keywords_are_matched():
    config = GeneratorConfig(keywords=("PIN",), sensitivity=1.0)
    corpus = make_labeled_corpus(config, 1, 40)
    assert {label for _, label in corpus} == {Label.SENSITIVE}


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(sensitivity=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig(min_words=0)
    with pytest.raises(ValueError):
        GeneratorConfig(min_words=5, max_words=4)
    with pytest.raises(ValueError):
        GeneratorConfig(vocab_size=0)

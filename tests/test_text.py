"""Word splitting, vocabulary construction, tokenization, and transcription
from the word symbols in a block's PCM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard import tee
from teeguard.audio import (
    GeneratorConfig,
    MicrophoneSource,
    encode_frames,
    lexicon,
    make_labeled_corpus,
    symbol_budget,
)
from teeguard.driver import EncodedBlock, SecureAudioDriver
from teeguard.pipeline import PipelineConfig, build_classifier
from teeguard.sense.text import (
    UNKNOWN_INDEX,
    UNKNOWN_WORD,
    MissingPayload,
    SymbolTable,
    Vocab,
    tokenize,
    transcribe,
)
from teeguard.words import Label, keyword_label, split_words


# -- word splitting -----------------------------------------------------------


def test_split_lowercases_and_strips_punctuation():
    assert split_words("My PIN is 1234!") == ["my", "pin", "is", "1234"]


def test_split_empty_and_symbol_only():
    assert split_words("") == []
    assert split_words("?!... --") == []


def test_keyword_label_examples():
    keywords = ("password", "pin")
    assert keyword_label("my PIN is 1234", keywords) is Label.SENSITIVE
    assert keyword_label("turn on the lights", keywords) is Label.BENIGN
    # substring is not a word match
    assert keyword_label("pinball wizard", keywords) is Label.BENIGN


# -- vocabulary ---------------------------------------------------------------


def test_tokenize_with_explicit_vocab():
    vocab = Vocab({"my": 1, "pin": 2, "is": 3})
    assert tokenize("My PIN is 1234", vocab) == [1, 2, 3, 0]
    assert tokenize("", vocab) == []


def test_vocab_index_must_be_dense_from_one():
    with pytest.raises(ValueError):
        Vocab({"a": 0, "b": 1})
    with pytest.raises(ValueError):
        Vocab({"a": 1, "b": 3})
    with pytest.raises(ValueError):
        Vocab({"a": 1, "b": 1})


def test_reserved_word_banned():
    with pytest.raises(ValueError):
        Vocab({UNKNOWN_WORD: 1})


def test_vocab_size_counts_unknown_slot():
    assert Vocab({"a": 1, "b": 2}).size == 3
    assert Vocab({}).size == 1


def test_from_texts_ranks_by_count_then_word():
    vocab = Vocab.from_texts(["b b a", "a c b"])
    # b appears 3x, a 2x, c 1x
    assert vocab.index == {"b": 1, "a": 2, "c": 3}
    tied = Vocab.from_texts(["zeta alpha"])
    assert tied.index == {"alpha": 1, "zeta": 2}


def test_from_texts_truncates_to_max_size():
    vocab = Vocab.from_texts(["a b c d e"], max_size=3)
    assert vocab.size == 3
    assert set(vocab.index) == {"a", "b"}


def test_from_texts_never_admits_reserved_word():
    vocab = Vocab.from_texts([f"{UNKNOWN_WORD} {UNKNOWN_WORD} hello"])
    assert UNKNOWN_WORD not in vocab.index
    assert vocab.index == {"hello": 1}


@given(st.lists(st.text(st.sampled_from("abcdefg "), min_size=1, max_size=20), max_size=10))
def test_known_words_round_trip_through_tokens(texts):
    vocab = Vocab.from_texts(texts)
    word_at = {i: word for word, i in vocab.index.items()}
    for text in texts:
        words = split_words(text)
        tokens = tokenize(text, vocab)
        assert len(tokens) == len(words)
        assert [word_at.get(t) for t in tokens] == words
        assert UNKNOWN_INDEX not in tokens  # full vocab covers its own corpus


# -- transcription ------------------------------------------------------------

LEXICON = ("password", "open", "the", "door")


def block_of(samples, sequence=0):
    """A block whose flat interleaved samples are `samples`, zero-padded to
    whole frames."""
    samples = list(samples) + [0] * (len(samples) % 2)
    return EncodedBlock(sequence, len(samples) // 2, np.array(samples, dtype="<i2").tobytes())


def block_with(text):
    return block_of([LEXICON.index(word) + 1 for word in text.split()] + [0])


def transcribe_both(block, table):
    """transcribe the block as built and as the pipeline parses it, from a
    read-only view of its wire image; both give the same transcript or the
    same MissingPayload, which is raised."""
    image = memoryview(bytearray(block.header() + block.payload)).toreadonly()
    viewed = EncodedBlock.from_bytes(image)
    assert isinstance(viewed.payload, memoryview)
    results = []
    for each in (block, viewed):
        try:
            results.append(transcribe(each, table))
        except MissingPayload as exc:
            results.append(exc)
    by_bytes, by_view = results
    if isinstance(by_bytes, MissingPayload):
        assert isinstance(by_view, MissingPayload) and str(by_view) == str(by_bytes)
        raise by_bytes
    assert by_view == by_bytes
    return by_bytes


def test_transcribe_returns_payload_and_tokens():
    vocab = Vocab({"open": 1, "the": 2, "door": 3})
    result = transcribe(block_with("open the door"), SymbolTable(LEXICON, vocab))
    assert result.text == "open the door"
    assert result.tokens == (1, 2, 3)


def test_transcribe_is_deterministic():
    vocab = Vocab.from_texts(["open the door"])
    a = transcribe(block_with("open the door"), SymbolTable(LEXICON, vocab))
    b = transcribe(block_with("open the door"), SymbolTable(LEXICON, vocab))
    assert a == b


def test_transcribe_requires_payload():
    vocab = Vocab({})
    with pytest.raises(MissingPayload):
        transcribe_both(block_with(""), SymbolTable(LEXICON, vocab))


def test_transcribe_stops_at_the_terminator():
    vocab = Vocab({})
    result = transcribe_both(block_of([2, 4, 0, 1, -7, 0]), SymbolTable(LEXICON, vocab))
    assert result.text == "open door"


def test_terminator_is_a_whole_zero_sample():
    # 2 and 256 are the bytes 02 00 00 01: a zero pair that is no sample
    words = [f"w{i}" for i in range(300)]
    assert transcribe_both(block_of([2, 256, 0]), SymbolTable(words, Vocab({}))).text == "w1 w255"


@pytest.mark.parametrize(
    "samples",
    [[2, 3, 4, 1], [], [2, 5, 0, 0], [2, -1, 0, 0], [0, 2], [2, 256, 3, 4]],
    ids=[
        "no-terminator", "no-samples", "past-lexicon", "negative", "empty-transcript",
        "straddling-zero-pair-only",
    ],
)
def test_undecodable_blocks_raise_missing_payload(samples):
    with pytest.raises(MissingPayload):
        transcribe_both(block_of(samples), SymbolTable(LEXICON, Vocab({})))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(-2, 6), st.integers(-32768, 32767)), max_size=24))
def test_noise_decodes_to_lexicon_words_or_missing_payload(samples):
    try:
        result = transcribe_both(block_of(samples), SymbolTable(LEXICON, Vocab({})))
    except MissingPayload:
        return
    assert result.text.split() and set(result.text.split()) <= set(LEXICON)


# -- tables built once, against the rules they stand for ----------------------

PIN_CONFIG = GeneratorConfig(keywords=("PIN", "password", "Secret"), vocab_size=30)
# words the generator never says, but that a symbol table must still join and
# tokenize as the text would: several tokens, none, punctuation, the reserved word
ODD_LEXICON = ("PIN", "Credit-Card", "o'brien", UNKNOWN_WORD, "two  words", "", "caf\u00e9", "x")


def symbol_runs(size, count=400, seed=0):
    """Random runs of symbols 1..size, each as the block the microphone would
    make of it: the run, a 0 terminator and some noise."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        run = rng.integers(1, size + 1, size=int(rng.integers(1, 13))).tolist()
        yield run, block_of(run + [0] + rng.integers(-32768, 32768, size=3).tolist())


def oracle_vocab(config):
    return build_classifier(PipelineConfig(generator=config))[0]


def small_trained_vocab(config):
    """A vocabulary trained on too little text for the whole lexicon."""
    texts = [text for text, _ in make_labeled_corpus(config, 3, 60)]
    return Vocab.from_texts(texts, max_size=12)


@pytest.mark.parametrize(
    "words, vocab, misses",
    [
        (lexicon(PIN_CONFIG), oracle_vocab(PIN_CONFIG), False),
        (lexicon(PIN_CONFIG), small_trained_vocab(PIN_CONFIG), True),
        (ODD_LEXICON, Vocab.from_texts([" ".join(ODD_LEXICON)]), True),  # "unk"
        (ODD_LEXICON, Vocab.from_texts([" ".join(ODD_LEXICON)], max_size=4), True),
    ],
    ids=["oracle-vocab", "trained-vocab", "odd-words", "odd-words-small-vocab"],
)
def test_symbol_table_matches_join_and_tokenize(words, vocab, misses):
    table = SymbolTable(words, vocab)
    # whether some lexicon word maps to token 0
    assert any(UNKNOWN_INDEX in tokens for tokens in table.tokens) == misses
    unknown = 0
    for run, block in symbol_runs(len(words)):
        result = transcribe_both(block, table)
        assert result.text == " ".join(words[s - 1] for s in run)
        assert list(result.tokens) == tokenize(result.text, vocab)
        unknown += result.tokens.count(UNKNOWN_INDEX)
    assert bool(unknown) == misses


def test_oracle_verdicts_match_the_keyword_rule():
    vocab, verdict = build_classifier(PipelineConfig(generator=PIN_CONFIG))
    table = SymbolTable(lexicon(PIN_CONFIG), vocab)
    labels = set()
    for _, block in symbol_runs(len(table.words), seed=1):
        transcript = transcribe_both(block, table)
        result = verdict(transcript)
        expected = keyword_label(transcript.text, PIN_CONFIG.keywords)
        assert result.label is expected
        assert result.score == (1.0 if expected is Label.SENSITIVE else 0.0)
        labels.add(expected)
    assert labels == {Label.SENSITIVE, Label.BENIGN}


# -- the sealed route: microphone, I2S, ring, transcript -------------------------


def sealed_ring(capacity):
    asc = tee.AddressSpaceController()
    memory = tee.Memory(asc)
    return memory, SecureAudioDriver(asc, memory, capacity), tee.WorldContext()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    keywords=st.lists(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
                      min_size=1, max_size=4, unique=True),
    sensitivity=st.floats(0.0, 1.0),
    vocab_size=st.integers(1, 120),
    min_words=st.integers(1, 6),
    extra_words=st.integers(0, 8),
    spare_frames=st.integers(0, 20),
)
def test_payload_text_survives_the_sealed_route(
    seed, keywords, sensitivity, vocab_size, min_words, extra_words, spare_frames
):
    config = GeneratorConfig(
        keywords=tuple(keywords), sensitivity=sensitivity, vocab_size=vocab_size,
        min_words=min_words, max_words=min_words + extra_words,
    )
    n = (symbol_budget(config) + 1) // 2 + spare_frames
    words = lexicon(config)
    vocab = Vocab.from_texts([" ".join(words)])
    memory, driver, ctx = sealed_ring(capacity=n + 7)  # successive utterances wrap the ring
    mic = MicrophoneSource(config, seed)
    for _ in range(3):
        utt = mic.capture(n)
        assert driver.ingest(encode_frames(utt.frames)) == n
        block = driver.read_block(n, tee.World.SECURE, ctx)
        assert transcribe(block, SymbolTable(words, vocab)).text == utt.payload_text


def test_transcript_is_read_from_the_sealed_ring():
    config = GeneratorConfig()
    words = lexicon(config)
    memory, driver, ctx = sealed_ring(capacity=64)
    utt = MicrophoneSource(config, seed=9).capture(16)
    driver.ingest(encode_frames(utt.frames))
    spoken = utt.payload_text.split()
    other = next(word for word in words if word != spoken[0])
    base, length = driver.buffer_range
    memory.write(tee.World.SECURE, base, np.array([words.index(other) + 1], "<i2").tobytes())
    with pytest.raises(tee.AccessViolation):
        memory.read(tee.World.NORMAL, base, length)
    block = driver.read_block(16, tee.World.SECURE, ctx)
    result = transcribe(block, SymbolTable(words, Vocab({})))
    assert result.text.split() == [other] + spoken[1:]

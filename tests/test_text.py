"""Word splitting, vocabulary construction, tokenization, transcription stub."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teeguard.driver import EncodedBlock
from teeguard.sense.text import (
    UNKNOWN_INDEX,
    UNKNOWN_WORD,
    MissingPayload,
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


def block_with(text):
    return EncodedBlock(0, 1, b"\x00\x00\x00\x00", text)


def test_transcribe_returns_payload_and_tokens():
    vocab = Vocab({"open": 1, "the": 2, "door": 3})
    result = transcribe(block_with("open the door"), vocab)
    assert result.text == "open the door"
    assert result.tokens == (1, 2, 3)


def test_transcribe_is_deterministic():
    vocab = Vocab.from_texts(["open the door"])
    a = transcribe(block_with("open the door"), vocab)
    b = transcribe(block_with("open the door"), vocab)
    assert a == b


def test_transcribe_requires_payload():
    vocab = Vocab({})
    with pytest.raises(MissingPayload):
        transcribe(block_with(""), vocab)

"""Transcription stub and tokenization for the trusted application's ML stage."""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..driver import EncodedBlock
from ..words import split_words

UNKNOWN_INDEX = 0
UNKNOWN_WORD = "unk"  # reserved: never enters a vocabulary, so it maps back to index 0


class MissingPayload(ValueError):
    """Block's samples do not decode to a transcript."""


@dataclass(frozen=True)
class Vocab:
    """Word-to-index map with index 0 reserved for unknown words.

    Built deterministically: words ranked by descending corpus frequency,
    ties broken lexicographically.
    """

    index: dict[str, int]

    def __post_init__(self) -> None:
        values = sorted(self.index.values())
        if values != list(range(1, len(values) + 1)):
            raise ValueError("vocab indices must be exactly 1..V-1")
        if UNKNOWN_WORD in self.index:
            raise ValueError(f"{UNKNOWN_WORD!r} is reserved for index 0")

    @property
    def size(self) -> int:
        return len(self.index) + 1

    @classmethod
    def from_texts(cls, texts: Iterable[str], max_size: int | None = None) -> "Vocab":
        counts: dict[str, int] = {}
        for text in texts:
            for word in split_words(text):
                if word != UNKNOWN_WORD:
                    counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        if max_size is not None:
            ranked = ranked[: max_size - 1]
        return cls({word: i + 1 for i, word in enumerate(ranked)})


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, split on non-alphanumeric runs, map via vocab (unknown -> 0)."""
    return [vocab.index.get(word, UNKNOWN_INDEX) for word in split_words(text)]


@dataclass(frozen=True)
class Transcript:
    text: str
    tokens: tuple[int, ...]


class SymbolTable:
    """What each word symbol transcribes to, worked out once per lexicon and
    vocabulary: symbol s stands for ``words[s - 1]``, whose tokens are
    ``tokens[s - 1]``.  A transcript joins its words with single spaces,
    which split_words always splits on, so its tokens are its words' tokens
    in turn: exactly ``tokenize(text, vocab)``."""

    def __init__(self, lexicon: Sequence[str], vocab: Vocab) -> None:
        self.words = tuple(lexicon)
        self.tokens = tuple(tuple(tokenize(word, vocab)) for word in self.words)


def transcribe(block: EncodedBlock, table: SymbolTable) -> Transcript:
    """Deterministic ASR stand-in: the block's leading samples are word
    symbols (lexicon position + 1) up to a 0 terminator.  The payload may be
    bytes or a view; only the samples up to the terminator are read."""
    symbols = []
    for (symbol,) in struct.iter_unpack("<h", block.payload):
        if not symbol:
            break
        symbols.append(symbol)
    else:
        raise MissingPayload(f"block {block.sequence} has no symbol terminator")
    if not symbols:
        raise MissingPayload(f"block {block.sequence} has an empty transcript")
    if min(symbols) < 1 or max(symbols) > len(table.words):
        raise MissingPayload(f"block {block.sequence} has a symbol outside the lexicon")
    words, tokens = table.words, table.tokens
    text = " ".join([words[s - 1] for s in symbols])
    return Transcript(text, tuple([t for s in symbols for t in tokens[s - 1]]))

"""I2S peripheral model: stereo PCM frames, the serial bitstream codec, and a
simulated microphone producing utterances with hidden ground-truth payloads.

The microphone speaks in word symbols.  Read the frames flat as interleaved
L/R int16 samples: an utterance of k words starts with k symbols, one per
word, each the word's position in :func:`lexicon` plus 1, then a 0
terminator.  The rest of the samples are noise.  At most
:func:`symbol_budget` samples carry symbols.

Bitstream layout, per frame of 2*W clocks (W = WORD_LENGTH bits): the
word-select line is 0 for the left word window and 1 for the right word
window.  Data is MSB-first with the standard I2S one-bit delay, so each
word's MSB appears one clock after the ws transition and its LSB lands on
the first clock of the following window.  The right word's LSB therefore
belongs to the next frame's left window; to keep every frame segment
self-contained it wraps to clock 0 of its own segment (which the delay leaves
unused).

Clock k of a segment carries:
    k == 0        right word bit 0 (wrapped)
    1 <= k <= W   left word bit W-k
    W < k < 2W    right word bit 2W-k

So a segment, read MSB first as one 32-bit word, is the frame word
[L15..L0 R15..R0] (left sample in the high half) rotated right by one
clock: [R0 L15..L0 R15..R1].  The codec packs and unpacks whole frame words
and rotates each by one bit, in one direction for each way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .words import Label, keyword_label, keyword_set

SAMPLE_MIN = -32768
SAMPLE_MAX = 32767
WORD_LENGTH = 16
SAMPLE_RATE_HZ = 16_000  # nominal metadata; no real-time clocking

# Filler vocabulary for the synthetic corpus, smart-home flavored.  The
# generator appends "wordNN" tokens when asked for more than are listed here.
_BASE_VOCAB = (
    "turn on off the lights play some music stop pause volume up down set a "
    "timer for minutes what is weather today tomorrow time it now remind me "
    "to call open close garage door lock front good morning night thanks "
    "please add milk eggs bread shopping list temperature degrees heat cool "
    "fan start vacuum show camera feed living room kitchen bedroom answer "
    "dim brightness alarm nine ten thirty news sports traffic"
).split()

_RESERVED_WORDS = frozenset({"unk"})


class MalformedStream(ValueError):
    """Bitstream violates the I2S framing rules."""


@dataclass
class I2sBitstream:
    """Parallel (ws, sd) bit sequences, one entry per serial clock."""

    ws: np.ndarray
    sd: np.ndarray


# One frame's ws clocks, and the same 2W clocks packed MSB first.
_WS_SEGMENT = np.repeat(np.array([0, 1], dtype=np.uint8), WORD_LENGTH)
_WS_SEGMENT.flags.writeable = False
_WS_WORD = 0x0000FFFF


def _is_binary(line: np.ndarray) -> bool:
    """Every clock holds 0 or 1, checked on the line's own dtype so that no
    narrowing cast can fold another value (257, 0.5) into a bit.  An empty
    line holds no value, whatever dtype `np.asarray([])` gave it."""
    if line.size == 0:
        return True
    if line.dtype.kind not in "biu":
        return False
    return line.max() <= 1 and (line.dtype.kind != "i" or line.min() >= 0)


def encode_frames(samples: np.ndarray) -> I2sBitstream:
    """Serialize (n, 2) int16 stereo samples into an I2S bitstream."""
    samples = np.asarray(samples, dtype=np.int16).reshape(-1, 2)
    words = samples.astype(">i2").view(">u4").astype(np.uint32)
    segments = ((words >> 1) | (words << 31)).astype(">u4")
    return I2sBitstream(
        ws=np.tile(_WS_SEGMENT, len(samples)), sd=np.unpackbits(segments.view(np.uint8))
    )


def decode_bitstream(bits: I2sBitstream) -> np.ndarray:
    """Inverse of :func:`encode_frames`; returns (n, 2) int16 samples."""
    w = WORD_LENGTH
    ws = np.asarray(bits.ws)
    sd = np.asarray(bits.sd)
    if ws.shape != sd.shape or ws.ndim != 1:
        raise MalformedStream("ws and sd must be equal-length flat sequences")
    if not (_is_binary(ws) and _is_binary(sd)):
        raise MalformedStream("bitstream values must be 0 or 1")
    ws, sd = ws.astype(np.uint8, copy=False), sd.astype(np.uint8, copy=False)
    if len(ws) % (2 * w) != 0:
        raise MalformedStream(
            f"stream length {len(ws)} is not a multiple of {2 * w} clocks"
        )
    if np.any(np.packbits(ws).view(">u4") != _WS_WORD):
        raise MalformedStream("ws run lengths do not alternate every word")
    segments = np.packbits(sd).view(">u4")
    words = ((segments << 1) | (segments >> 31)).astype(">u4")
    return words.view(">i2").astype(np.int16).reshape(-1, 2)


@dataclass(frozen=True)
class Utterance:
    """Captured audio, whose leading samples carry the spoken words, plus
    the harness's ground truth: ``payload_text`` is what the words say and
    ``truth_label`` what the keyword rule makes of it.  Neither field goes
    into the pipeline; the secure world reads the words from the PCM."""

    frames: np.ndarray
    payload_text: str
    truth_label: Label

    def __post_init__(self) -> None:
        if len(self.frames) == 0:
            raise ValueError("utterance must contain at least one frame")


@dataclass(frozen=True)
class GeneratorConfig:
    keywords: tuple[str, ...] = ("password", "pin", "secret", "ssn", "account", "credit")
    sensitivity: float = 0.3
    vocab_size: int = 60
    min_words: int = 4
    max_words: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.sensitivity <= 1.0:
            raise ValueError("sensitivity must be in [0, 1]")
        if self.min_words < 1 or self.max_words < self.min_words:
            raise ValueError("word count range is invalid")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if len(self.keywords) + self.vocab_size > SAMPLE_MAX:
            raise ValueError("every lexicon symbol must fit a positive int16 sample")
        # keyword_label matches whole split_words tokens, so it never matches
        # "clé" (it splits to "cl") or "credit card"; a keyword it does match
        # is exactly one token
        unmatched = [k for k in self.keywords if keyword_label(k, (k,)) is Label.BENIGN]
        if unmatched:
            raise ValueError(f"each keyword must be one ASCII alphanumeric word: {unmatched}")


def filler_vocabulary(config: GeneratorConfig) -> list[str]:
    banned = {k.lower() for k in config.keywords} | _RESERVED_WORDS
    vocab = [w for w in _BASE_VOCAB if w not in banned]
    index = 0
    while len(vocab) < config.vocab_size:
        candidate = f"word{index:02d}"
        if candidate not in banned:
            vocab.append(candidate)
        index += 1
    return vocab[: config.vocab_size]


def lexicon(config: GeneratorConfig) -> list[str]:
    """Every word the generator can say; word i's symbol is i + 1."""
    return list(config.keywords) + filler_vocabulary(config)


def symbol_budget(config: GeneratorConfig) -> int:
    """Samples the longest utterance's symbols take: max_words filler words,
    two keyword inserts and the 0 terminator."""
    return config.max_words + 2 + 1


class _TextSampler:
    def __init__(self, config: GeneratorConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.filler = filler_vocabulary(config)
        # every keyword and filler word is one split_words token, so the
        # keyword rule labels the joined words by their lowercase forms alone
        self.keywords = keyword_set(config.keywords)

    def sample(self) -> tuple[list[str], Label]:
        cfg = self.config
        want_sensitive = self.rng.random() < cfg.sensitivity
        count = int(self.rng.integers(cfg.min_words, cfg.max_words + 1))
        words = [self.filler[int(i)] for i in self.rng.integers(0, len(self.filler), count)]
        if want_sensitive:
            inserts = 1 + int(self.rng.random() < 0.25)  # symbol_budget relies on <= 2
            for _ in range(inserts):
                keyword = cfg.keywords[int(self.rng.integers(0, len(cfg.keywords)))]
                position = int(self.rng.integers(0, len(words) + 1))
                words.insert(position, keyword)
        if self.keywords.isdisjoint([word.lower() for word in words]):
            return words, Label.BENIGN
        return words, Label.SENSITIVE


@dataclass
class MicrophoneSource:
    """Deterministic simulated microphone: seeded PCM noise with a generated
    utterance written over its leading samples as word symbols, labeled by
    the keyword rule."""

    config: GeneratorConfig
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)
    _sampler: _TextSampler = field(init=False, repr=False)
    _symbols: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._sampler = _TextSampler(self.config, self._rng)
        self._symbols = {word: i for i, word in enumerate(lexicon(self.config), 1)}

    def capture(self, n: int) -> Utterance:
        if n <= 0:
            raise ValueError("frame count must be positive")
        if 2 * n < symbol_budget(self.config):
            raise ValueError(f"{n} frames cannot hold {symbol_budget(self.config)} symbols")
        frames = self._rng.integers(SAMPLE_MIN, SAMPLE_MAX + 1, size=(n, 2), dtype=np.int16)
        words, label = self._sampler.sample()
        symbols = [self._symbols[word] for word in words] + [0]
        frames.reshape(-1)[: len(symbols)] = symbols
        return Utterance(frames, " ".join(words), label)


def make_labeled_corpus(
    config: GeneratorConfig, seed: int, count: int
) -> list[tuple[str, Label]]:
    """Generate `count` (text, label) pairs with the same text model as the
    microphone source."""
    sampler = _TextSampler(config, np.random.default_rng(seed))
    samples = (sampler.sample() for _ in range(count))
    return [(" ".join(words), label) for words, label in samples]

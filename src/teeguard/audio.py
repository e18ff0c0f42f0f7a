"""I2S peripheral model: stereo PCM frames, the serial bitstream codec, and a
simulated microphone producing utterances with hidden ground-truth payloads.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .words import Label, keyword_label

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


def _word_bits(values: np.ndarray) -> np.ndarray:
    """(n,) int16 -> (n, 16) bits, MSB first, two's-complement pattern."""
    be = values.astype(np.int16).view(np.uint16).astype(">u2")
    return np.unpackbits(be.view(np.uint8).reshape(-1, 2), axis=1)


def _bits_to_words(bits: np.ndarray) -> np.ndarray:
    """(n, 16) MSB-first bits -> (n,) int16."""
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    return packed.view(">u2").astype(np.uint16).view(np.int16).reshape(-1)


def encode_frames(samples: np.ndarray) -> I2sBitstream:
    """Serialize (n, 2) int16 stereo samples into an I2S bitstream."""
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


def decode_bitstream(bits: I2sBitstream) -> np.ndarray:
    """Inverse of :func:`encode_frames`; returns (n, 2) int16 samples."""
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


@dataclass(frozen=True)
class Utterance:
    """Captured audio plus the hidden test-harness channel standing in for
    speech content.  The payload and truth label never cross the relay
    boundary except via secure-world transcription."""

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


def max_text_bytes(config: GeneratorConfig) -> int:
    """UTF-8 length of the longest text the generator can produce: max_words
    filler words plus two keyword inserts, joined by single spaces."""
    filler = max(len(w.encode("utf-8")) for w in filler_vocabulary(config))
    keyword = max((len(k.encode("utf-8")) for k in config.keywords), default=0)
    return config.max_words * (filler + 1) + 2 * (keyword + 1) - 1


class _TextSampler:
    def __init__(self, config: GeneratorConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.filler = filler_vocabulary(config)

    def sample(self) -> tuple[str, Label]:
        cfg = self.config
        want_sensitive = self.rng.random() < cfg.sensitivity
        count = int(self.rng.integers(cfg.min_words, cfg.max_words + 1))
        words = [self.filler[int(i)] for i in self.rng.integers(0, len(self.filler), count)]
        if want_sensitive:
            inserts = 1 + int(self.rng.random() < 0.25)  # max_text_bytes relies on <= 2
            for _ in range(inserts):
                keyword = cfg.keywords[int(self.rng.integers(0, len(cfg.keywords)))]
                position = int(self.rng.integers(0, len(words) + 1))
                words.insert(position, keyword)
        text = " ".join(words)
        return text, keyword_label(text, cfg.keywords)


@dataclass
class MicrophoneSource:
    """Deterministic simulated microphone: seeded PCM noise plus generated
    utterance payloads labeled by the keyword rule."""

    config: GeneratorConfig
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)
    _sampler: _TextSampler = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._sampler = _TextSampler(self.config, self._rng)

    def capture(self, n: int) -> Utterance:
        if n <= 0:
            raise ValueError("frame count must be positive")
        frames = self._rng.integers(SAMPLE_MIN, SAMPLE_MAX + 1, size=(n, 2), dtype=np.int16)
        text, label = self._sampler.sample()
        return Utterance(frames=frames, payload_text=text, truth_label=label)


def make_labeled_corpus(
    config: GeneratorConfig, seed: int, count: int
) -> list[tuple[str, Label]]:
    """Generate `count` (text, label) pairs with the same text model as the
    microphone source."""
    sampler = _TextSampler(config, np.random.default_rng(seed))
    return [sampler.sample() for _ in range(count)]

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

So a segment, read MSB first as one 32-bit word, is the frame word
[L15..L0 R15..R0] (left sample in the high half) rotated right by one
clock: [R0 L15..L0 R15..R1].  The codec packs and unpacks whole frame words
and rotates each by one bit, in one direction for each way.
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

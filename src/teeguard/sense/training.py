"""Full-batch gradient-descent training for the sensitivity classifiers.

Samples are grouped by padded token length so each group is one dense batch;
the summed per-group gradients equal the gradient of the mean loss over the
whole corpus, keeping optimisation exactly deterministic for a given seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..words import ARCHITECTURES, Label
from .models import (
    Model,
    init_attention,
    init_cnn,
    init_hybrid,
    min_length,
    pad_tokens,
    score,
    sigmoid,
    trainable_params,
)
from .text import Vocab, tokenize


class UnknownArchitecture(ValueError):
    pass


class DegenerateCorpus(ValueError):
    """Raised when the corpus is empty or single-class."""


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    seed: int = 0
    dim: int = 16
    filters: int = 8
    width: int = 3
    vocab_size: int = 80  # enough to cover the default generator's word list

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.dim < 1 or self.filters < 1 or self.width < 1:
            raise ValueError("dim, filters and width must be at least 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")


@dataclass(frozen=True)
class Verdict:
    score: float
    label: Label


@dataclass
class TrainResult:
    model: Model
    vocab: Vocab
    loss_history: list[float] = field(default_factory=list)


def group_by_length(
    token_lists: Sequence[Sequence[int]], labels: Sequence[Label], min_len: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Bucket samples into (token matrix, target vector) pairs by padded length."""
    buckets: dict[int, tuple[list[list[int]], list[float]]] = {}
    for tokens, label in zip(token_lists, labels):
        padded = pad_tokens(tokens, min_len)
        rows, targets = buckets.setdefault(len(padded), ([], []))
        rows.append(padded)
        targets.append(1.0 if label is Label.SENSITIVE else 0.0)
    return {
        n: (np.array(rows, dtype=np.int64), np.array(targets))
        for n, (rows, targets) in buckets.items()
    }


def _binary_loss(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) - y * z, computed without overflow for large |z|
    return np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - targets * logits


def loss_and_gradients(
    model: Model, grouped: dict[int, tuple[np.ndarray, np.ndarray]], count: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean binary cross-entropy over all samples plus its exact gradient."""
    total = 0.0
    grads: dict[str, np.ndarray] | None = None
    for rows, targets in grouped.values():
        logits, cache = model.forward(rows)
        total += float(_binary_loss(logits, targets).sum())
        dlogits = (sigmoid(logits) - targets) / count
        part = model.backward(cache, dlogits)
        if grads is None:
            grads = part
        else:
            for name, g in part.items():
                grads[name] = grads[name] + g
    assert grads is not None
    return total / count, grads


def _init_model(architecture: str, vocab_size: int, config: TrainConfig) -> Model:
    rng = np.random.default_rng(config.seed)
    if architecture == "cnn":
        return init_cnn(vocab_size, config.dim, config.filters, config.width, rng)
    if architecture == "attention":
        return init_attention(vocab_size, config.dim, rng)
    if architecture == "hybrid":
        return init_hybrid(vocab_size, config.dim, config.filters, config.width, rng)
    raise UnknownArchitecture(f"unknown architecture {architecture!r}")


def train(
    architecture: str,
    samples: Sequence[tuple[str, Label]],
    config: TrainConfig,
    vocab: Vocab | None = None,
) -> TrainResult:
    """Fit one architecture on labeled texts.  The vocabulary is built from
    the training texts unless one is supplied."""
    if architecture not in ARCHITECTURES:
        raise UnknownArchitecture(f"unknown architecture {architecture!r}")
    if not samples:
        raise DegenerateCorpus("empty corpus")
    labels = {label for _, label in samples}
    if len(labels) < 2:
        raise DegenerateCorpus("corpus must contain both labels")

    if vocab is None:
        vocab = Vocab.from_texts([text for text, _ in samples], config.vocab_size)
    model = _init_model(architecture, vocab.size, config)
    token_lists = [tokenize(text, vocab) for text, _ in samples]
    grouped = group_by_length(token_lists, [label for _, label in samples], min_length(model))

    history: list[float] = []
    for _ in range(config.epochs):
        loss, grads = loss_and_gradients(model, grouped, len(samples))
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at epoch {len(history)}")
        history.append(loss)
        for name, param in trainable_params(model).items():
            param -= config.learning_rate * grads[name]
    return TrainResult(model=model, vocab=vocab, loss_history=history)


def classify(model: Model, tokens: Sequence[int], threshold: float = 0.5) -> Verdict:
    """Score one token sequence; only a score below the threshold is benign,
    so a NaN score counts as sensitive."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    value = score(model, tokens)
    label = Label.BENIGN if value < threshold else Label.SENSITIVE
    return Verdict(score=value, label=label)


def evaluate(
    model: Model,
    vocab: Vocab,
    samples: Sequence[tuple[str, Label]],
    threshold: float = 0.5,
) -> float:
    """Fraction of samples whose predicted label matches."""
    if not samples:
        raise ValueError("no samples to evaluate")
    hits = sum(
        1
        for text, label in samples
        if classify(model, tokenize(text, vocab), threshold).label is label
    )
    return hits / len(samples)

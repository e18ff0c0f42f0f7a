"""Training loop determinism, loss behavior, and the classify/evaluate API."""

import hashlib
import math

import numpy as np
import pytest

from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard.sense.modelio import model_to_bytes
from teeguard.sense.models import CnnModel, trainable_params
from teeguard.sense.text import Vocab, tokenize
from teeguard.sense.training import (
    ARCHITECTURES,
    DegenerateCorpus,
    TrainConfig,
    TrainingDiverged,
    UnknownArchitecture,
    classify,
    evaluate,
    group_by_length,
    train,
)
from teeguard.words import Label

CORPUS = make_labeled_corpus(GeneratorConfig(), seed=0, count=20)


def flat_bias_cnn(bias, vocab_size=4):
    return CnnModel(
        embedding=np.zeros((vocab_size, 2)),
        conv_filters=np.zeros((1, 1, 2)),
        fc_weights=np.zeros(1),
        fc_bias=np.array(bias),
    )


# -- train ---------------------------------------------------------------------


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_loss_non_increasing_at_small_rate(architecture):
    config = TrainConfig(learning_rate=0.01, epochs=50, seed=0)
    result = train(architecture, CORPUS, config)
    history = result.loss_history
    assert len(history) == 50
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev + 1e-12
    assert all(math.isfinite(v) for v in history)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_training_is_bit_deterministic(architecture):
    config = TrainConfig(learning_rate=0.1, epochs=10, seed=3)
    a = train(architecture, CORPUS, config)
    b = train(architecture, CORPUS, config)
    assert a.loss_history == b.loss_history
    for name, param in trainable_params(a.model).items():
        assert np.array_equal(param, trainable_params(b.model)[name])


# sha256 of the trained arrays (name, then float64 LE bytes, in field order),
# of the loss history, and of the model file, for PIN_CONFIG on PIN_CORPUS.
# The hybrid's file digest is of its tag-4 header plus the same arrays the
# nested hybrid trained, which its init still draws in the same order.
PIN_CORPUS = make_labeled_corpus(GeneratorConfig(), seed=41, count=60)
PIN_CONFIG = TrainConfig(
    learning_rate=0.5, epochs=30, seed=41, dim=8, filters=4, width=3, vocab_size=40
)
PINS = {
    "cnn": (
        "2b98ddd3f8eeb3e01475feeee74c28635c3d18b8f8195dd5ac45dd5e2256e578",
        "6227e0be2bd6dd4629244a0b7784a7339cd9a9beba8688a33c6a83004cf53ca0",
        "f8264299986946963f48e330a076b85f7f78d3b58ac1d483da04bbad2d456783",
    ),
    "attention": (
        "25a0f027a3a027e79e36b8b8497f5f5e5658e20776a6c5de2d34dc819b9c088f",
        "808ee97a239b99f2b45b4ef64af7a90f6b6c893ae9c57fed757f7e57f8edc854",
        "8c77c3ebb7cec8a05eef2bddcf7120dc1de09b4faf32c0ae2ad250d71177ed75",
    ),
    "hybrid": (
        "85722ca5e48ec7c14b1741bdd493846afe7b1e70d64f5149fc1b2033617cc9d5",
        "98de915ddca0a2267056b71706ff1a5331b8df6cd00a484e713bfac57f0ed872",
        "ca50ea77c1f3fb4dcfe18f081d5b4dc09b9d427db2a9bba4a60a60f2b0ada35e",
    ),
}


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_seeded_training_matches_pinned_digests(architecture):
    result = train(architecture, PIN_CORPUS, PIN_CONFIG)
    params = hashlib.sha256()
    for name, param in trainable_params(result.model).items():
        params.update(name.encode())
        params.update(np.ascontiguousarray(param, dtype="<f8").tobytes())
    losses = np.array(result.loss_history, dtype="<f8").tobytes()
    params_pin, loss_pin, file_pin = PINS[architecture]
    assert params.hexdigest() == params_pin
    assert hashlib.sha256(losses).hexdigest() == loss_pin
    assert hashlib.sha256(model_to_bytes(result.model)).hexdigest() == file_pin


def test_trained_parameters_stay_finite():
    result = train("cnn", CORPUS, TrainConfig(learning_rate=0.5, epochs=30))
    for param in trainable_params(result.model).values():
        assert np.isfinite(param).all()


def test_vocab_built_from_corpus():
    result = train("cnn", CORPUS, TrainConfig(epochs=1))
    assert result.vocab.size <= TrainConfig().vocab_size
    corpus_words = {w for text, _ in CORPUS for w in text.split()}
    assert set(result.vocab.index) <= corpus_words


def test_empty_corpus_rejected():
    with pytest.raises(DegenerateCorpus):
        train("cnn", [], TrainConfig(epochs=1))


def test_single_class_corpus_rejected():
    benign = [(text, label) for text, label in CORPUS if label is Label.BENIGN]
    with pytest.raises(DegenerateCorpus):
        train("attention", benign, TrainConfig(epochs=1))


def test_unknown_architecture_rejected():
    with pytest.raises(UnknownArchitecture):
        train("transformer", CORPUS, TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore:overflow")
def test_runaway_rate_reports_divergence():
    with pytest.raises(TrainingDiverged):
        train("cnn", CORPUS, TrainConfig(learning_rate=1e30, epochs=10))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(dim=0)
    with pytest.raises(ValueError):
        TrainConfig(vocab_size=1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_config_refuses_a_learning_rate_that_is_not_finite(rate):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=rate)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize(("name", "value"), [
    ("epochs", 2.5), ("dim", True), ("seed", 0.0),
    ("learning_rate", "0.5"), ("learning_rate", True),
])
def test_config_refuses_wrong_types(name, value):
    with pytest.raises(ValueError, match="must be of type"):
        TrainConfig(**{name: value})
    assert TrainConfig(learning_rate=1).learning_rate == 1  # an int is a float here


def test_group_by_length_buckets_padded_rows():
    token_lists = [[1, 2], [3], [4, 5, 6], [7, 8]]
    labels = [Label.SENSITIVE, Label.BENIGN, Label.SENSITIVE, Label.BENIGN]
    grouped = group_by_length(token_lists, labels, min_len=2)
    assert set(grouped) == {2, 3}
    rows, targets = grouped[2]
    assert rows.tolist() == [[1, 2], [3, 0], [7, 8]]
    assert targets.tolist() == [1.0, 0.0, 0.0]
    rows3, targets3 = grouped[3]
    assert rows3.tolist() == [[4, 5, 6]]
    assert targets3.tolist() == [1.0]


# -- classify / evaluate ---------------------------------------------------------


def test_threshold_tie_goes_sensitive():
    verdict = classify(flat_bias_cnn(0.0), [1, 2], threshold=0.5)
    assert verdict.score == 0.5
    assert verdict.label is Label.SENSITIVE


def test_score_below_threshold_is_benign():
    bias = math.log(0.49 / 0.51)  # sigmoid(bias) == 0.49
    verdict = classify(flat_bias_cnn(bias), [1, 2], threshold=0.5)
    assert verdict.score == pytest.approx(0.49)
    assert verdict.label is Label.BENIGN


def test_nan_score_is_sensitive():
    vocab = Vocab.from_texts(["my password is secret"])
    tokens = tokenize("my password is secret", vocab)
    verdict = classify(flat_bias_cnn(np.nan, vocab.size), tokens, threshold=0.5)
    assert math.isnan(verdict.score)
    assert verdict.label is Label.SENSITIVE


def test_threshold_must_be_strictly_interior():
    model = flat_bias_cnn(0.0)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            classify(model, [1], threshold=bad)


def test_evaluate_counts_matches():
    # bias > 0 scores everything sensitive
    model = flat_bias_cnn(1.0)
    vocab = Vocab({"a": 1})
    samples = [("a", Label.SENSITIVE), ("a a", Label.SENSITIVE), ("a", Label.BENIGN)]
    assert evaluate(model, vocab, samples) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        evaluate(model, vocab, [])


def test_training_actually_fits_the_corpus():
    config = TrainConfig(learning_rate=1.0, epochs=120, seed=0)
    result = train("cnn", CORPUS, config)
    assert evaluate(result.model, result.vocab, CORPUS) >= 0.9
    tokens = tokenize(CORPUS[0][0], result.vocab)
    assert classify(result.model, tokens).label is CORPUS[0][1]

"""Model and corpus file formats: round trips and rejection of mangled input."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teeguard.sense.modelio import (
    MODEL_MAGIC,
    CorpusFormatError,
    ModelFormatError,
    load_corpus,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_corpus,
    save_model,
)
from teeguard.sense.models import (
    init_attention,
    init_cnn,
    init_hybrid,
    trainable_params,
)
from teeguard.words import Label

HEADER_SIZE = struct.calcsize("<4s5I")


def models():
    rng = np.random.default_rng(17)
    return {
        "cnn": init_cnn(9, 5, 3, 2, rng),
        "attention": init_attention(9, 5, rng),
        "hybrid": init_hybrid(9, 5, 3, 2, rng),
    }


# -- model round trips ----------------------------------------------------------


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_model_round_trip_is_exact(name, tmp_path):
    model = models()[name]
    path = tmp_path / "model.bin"
    save_model(path, model)
    again = load_model(path)
    assert type(again) is type(model)
    for key, array in trainable_params(model).items():
        assert np.array_equal(trainable_params(again)[key], array), key


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_serialization_is_stable(name):
    model = models()[name]
    raw = model_to_bytes(model)
    assert raw[:4] == MODEL_MAGIC
    assert model_to_bytes(model_from_bytes(raw)) == raw


def test_loaded_arrays_are_writable():
    raw = model_to_bytes(models()["cnn"])
    model = model_from_bytes(raw)
    model.embedding[0, 0] = 42.0  # frombuffer views are read-only; these must not be
    assert model.embedding[0, 0] == 42.0


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_file_holds_exactly_the_trainable_arrays(name):
    model = models()[name]
    floats = sum(a.size for a in trainable_params(model).values())
    assert len(model_to_bytes(model)) == HEADER_SIZE + 8 * floats


def test_nested_hybrid_file_refused():
    v, d, f, w = 9, 5, 3, 2
    # tag 3 stored the CNN's arrays, the projection, then the encoder's arrays
    floats = (v * d + f * w * d + f + 1) + f * d + (v * d + 3 * d * d + d + 1)
    raw = struct.pack("<4s5I", MODEL_MAGIC, 3, v, d, f, w) + b"\x00" * (8 * floats)
    with pytest.raises(ModelFormatError, match="tag 3"):
        model_from_bytes(raw)
    relabelled = bytearray(model_to_bytes(models()["hybrid"]))
    assert struct.unpack_from("<I", relabelled, 4) == (4,)
    struct.pack_into("<I", relabelled, 4, 3)
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(relabelled))


def test_attention_header_has_zero_filter_fields():
    raw = model_to_bytes(models()["attention"])
    _, tag, v, d, f, w = struct.unpack_from("<4s5I", raw)
    assert (tag, v, d, f, w) == (2, 9, 5, 0, 0)
    mangled = bytearray(raw)
    struct.pack_into("<I", mangled, 16, 3)  # nonzero filter count
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(mangled))


# -- model rejection ---------------------------------------------------------------


def test_bad_magic_rejected():
    raw = bytearray(model_to_bytes(models()["cnn"]))
    raw[:4] = b"XXXX"
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(raw))


def test_unknown_tag_rejected():
    raw = bytearray(model_to_bytes(models()["cnn"]))
    struct.pack_into("<I", raw, 4, 9)
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(raw))


def test_truncation_rejected_at_every_boundary():
    raw = model_to_bytes(models()["attention"])
    for cut in (HEADER_SIZE - 1, HEADER_SIZE, HEADER_SIZE + 7, len(raw) - 8, len(raw) - 1):
        with pytest.raises(ModelFormatError):
            model_from_bytes(raw[:cut])


def test_trailing_bytes_rejected():
    raw = model_to_bytes(models()["hybrid"])
    with pytest.raises(ModelFormatError):
        model_from_bytes(raw + b"\x00" * 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_non_finite_weights_rejected(name, bad):
    raw = model_to_bytes(models()[name])
    word = np.array([bad], dtype="<f8").tobytes()
    for at in (HEADER_SIZE, len(raw) - 8):  # the first and the last weight
        mangled = raw[:at] + word + raw[at + 8 :]
        with pytest.raises(ModelFormatError):
            model_from_bytes(mangled)


def test_nan_fc_bias_file_refused_at_load(tmp_path):
    model = models()["cnn"]
    model.fc_bias = np.array(np.nan)
    path = tmp_path / "nan.tgm"
    save_model(path, model)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_zero_dims_rejected():
    raw = bytearray(model_to_bytes(models()["cnn"]))
    struct.pack_into("<I", raw, 8, 0)  # vocab size
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(raw))


@pytest.mark.parametrize(
    "tag, dims",
    [(2, (2**32 - 1, 2**32 - 1, 0, 0)), (1, (2, 2, 2**31, 2**31))],
    ids=["attention-huge-vocab-and-dim", "cnn-huge-filters"],
)
def test_huge_header_dims_rejected(tag, dims):
    # array sizes past 2**63 elements must not wrap into a passing size check
    raw = struct.pack("<4s5I", MODEL_MAGIC, tag, *dims) + b"\x00" * 64
    with pytest.raises(ModelFormatError):
        model_from_bytes(raw)


def _misshape(name, model):
    if name == "cnn":  # F == 3: the four floats would load as a (3,) head and bias 4.0
        model.fc_weights = np.array([1.0, 2.0])
        model.fc_bias = np.array([3.0, 4.0])
    elif name == "attention":  # d == 5
        model.head = np.zeros(4)
        model.head_bias = np.zeros(2)
    else:
        model.proj = np.zeros((2, 5))  # wrong filter count
    return model


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_misshapen_arrays_refused_at_write(name):
    model = _misshape(name, models()[name])
    with pytest.raises(ModelFormatError):
        model_to_bytes(model)


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_wrong_rank_embedding_refused_at_write(name):
    model = models()[name]
    model.embedding = model.embedding.reshape(-1)
    with pytest.raises(ModelFormatError):
        model_to_bytes(model)


def test_unsupported_object_rejected():
    with pytest.raises(ModelFormatError):
        model_to_bytes(object())


# -- corpus files ---------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    samples = [
        ("my pin is 1234", Label.SENSITIVE),
        ("turn on the lights", Label.BENIGN),
        ("", Label.BENIGN),
    ]
    path = tmp_path / "corpus.tsv"
    save_corpus(path, samples)
    assert load_corpus(path) == samples


def test_corpus_file_shape(tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(path, [("hello there", Label.BENIGN)])
    assert path.read_text() == "benign\thello there\n"
    save_corpus(path, [])
    assert path.read_text() == ""


def test_corpus_blank_lines_skipped(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("sensitive\tmy password\n\n   \nbenign\tok\n")
    assert load_corpus(path) == [
        ("my password", Label.SENSITIVE),
        ("ok", Label.BENIGN),
    ]


def test_corpus_errors_name_the_line(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("benign\tfine\nnot-a-label\toops\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)
    path.write_text("benign fine\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path)


def test_corpus_rejects_unwritable_text(tmp_path):
    path = tmp_path / "corpus.tsv"
    with pytest.raises(ValueError):
        save_corpus(path, [("has\ttab", Label.BENIGN)])
    for text in ("has\nnewline", "a\rb", "p\x85q", "a\r", "x\u2028y", "form\x0cfeed"):
        with pytest.raises(ValueError):
            save_corpus(path, [(text, Label.BENIGN)])


@given(st.text(), st.sampled_from(Label))
def test_corpus_text_the_writer_accepts_loads_back_unchanged(tmp_path_factory, text, label):
    path = tmp_path_factory.mktemp("corpus") / "corpus.tsv"
    try:
        save_corpus(path, [(text, label), ("next", Label.BENIGN)])
    except ValueError:
        return
    assert load_corpus(path) == [(text, label), ("next", Label.BENIGN)]

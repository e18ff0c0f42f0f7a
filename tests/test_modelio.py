"""Model and corpus file formats: round trips and rejection of mangled input."""

import struct

import numpy as np
import pytest

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
    AttentionEncoder,
    CnnModel,
    HybridModel,
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


def all_arrays(model):
    if isinstance(model, HybridModel):
        parts = trainable_params(model)
        parts["fc_weights"] = model.cnn.fc_weights
        parts["fc_bias"] = model.cnn.fc_bias
        parts["enc_embedding"] = model.encoder.embedding
        return parts
    return trainable_params(model)


# -- model round trips ----------------------------------------------------------


@pytest.mark.parametrize("name", ["cnn", "attention", "hybrid"])
def test_model_round_trip_is_exact(name, tmp_path):
    model = models()[name]
    path = tmp_path / "model.bin"
    save_model(path, model)
    again = load_model(path)
    assert type(again) is type(model)
    for key, array in all_arrays(model).items():
        assert np.array_equal(all_arrays(again)[key], array), key


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


def test_inconsistent_hybrid_rejected():
    rng = np.random.default_rng(0)
    broken = HybridModel(
        cnn=init_cnn(9, 5, 3, 2, rng),
        encoder=init_attention(7, 5, rng),  # vocab mismatch
        proj=rng.normal(size=(3, 5)),
    )
    with pytest.raises(ModelFormatError):
        model_to_bytes(broken)
    shapely = HybridModel(
        cnn=init_cnn(9, 5, 3, 2, rng),
        encoder=init_attention(9, 5, rng),
        proj=rng.normal(size=(2, 5)),  # wrong filter count
    )
    with pytest.raises(ModelFormatError):
        model_to_bytes(shapely)


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
    with pytest.raises(ValueError):
        save_corpus(path, [("has\nnewline", Label.BENIGN)])

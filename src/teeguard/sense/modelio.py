"""Binary model files and tab-separated corpus files.

Model layout: magic ``TGM1``, then five little-endian u32 header words
(architecture tag, vocab size, embedding dim, filter count, filter width),
then the model's trainable arrays as float64 little-endian, in field order:

- tag 1, cnn: embedding, conv_filters, fc_weights, fc_bias;
- tag 2, attention: embedding, query, key, value, head, head_bias (the
  filter fields are zero);
- tag 4, hybrid: embedding, conv_filters, proj, query, key, value, head,
  head_bias.

Tag 3, the hybrid layout that also stored the arrays it never read, is no
longer read: such a file is a `ModelFormatError` and must be retrained.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..words import Label
from .models import AttentionEncoder, CnnModel, HybridModel, Model, trainable_params

MODEL_MAGIC = b"TGM1"
_HEADER = struct.Struct("<4s5I")
_TAG_CNN, _TAG_ATTENTION, _TAG_NESTED_HYBRID, _TAG_HYBRID = 1, 2, 3, 4
_TAGS = {CnnModel: _TAG_CNN, AttentionEncoder: _TAG_ATTENTION, HybridModel: _TAG_HYBRID}
_CLASSES = {tag: cls for cls, tag in _TAGS.items()}


class ModelFormatError(ValueError):
    pass


class CorpusFormatError(ValueError):
    pass


def _shapes(tag: int, v: int, d: int, f: int, w: int) -> list[tuple[int, ...]]:
    """The shapes of a model's arrays in file order, from its header words."""
    if v < 1 or d < 1:
        raise ModelFormatError("vocab size and dim must be positive")
    if tag == _TAG_ATTENTION:
        if f != 0 or w != 0:
            raise ModelFormatError("filter fields must be zero")
        return [(v, d), (d, d), (d, d), (d, d), (d,), ()]
    if f < 1 or w < 1:
        raise ModelFormatError("filter fields must be positive")
    if tag == _TAG_CNN:
        return [(v, d), (f, w, d), (f,), ()]
    return [(v, d), (f, w, d), (f, d), (d, d), (d, d), (d, d), (d,), ()]


def model_to_bytes(model: Model) -> bytes:
    """Refuses a model whose arrays' shapes do not match the dims it would
    write, since that file would load as a different model."""
    tag = _TAGS.get(type(model))
    if tag is None:
        raise ModelFormatError(f"unsupported model type {type(model).__name__}")
    arrays = list(trainable_params(model).values())
    filter_dims = (0, 0) if tag == _TAG_ATTENTION else np.shape(model.conv_filters)[:2]
    dims = np.shape(model.embedding) + filter_dims
    if len(dims) != 4 or [np.shape(a) for a in arrays] != _shapes(tag, *dims):
        raise ModelFormatError("array shapes do not match the model's dimensions")
    header = _HEADER.pack(MODEL_MAGIC, tag, *dims)
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return header + body


def model_from_bytes(buf: bytes) -> Model:
    if len(buf) < _HEADER.size:
        raise ModelFormatError("model file shorter than its header")
    magic, tag, *dims = _HEADER.unpack_from(buf)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if tag == _TAG_NESTED_HYBRID:
        raise ModelFormatError("nested hybrid files (tag 3) are no longer read; retrain")
    cls = _CLASSES.get(tag)
    if cls is None:
        raise ModelFormatError(f"unknown architecture tag {tag}")

    arrays = []
    offset = _HEADER.size
    for shape in _shapes(tag, *dims):
        count = math.prod(shape)  # Python ints: no wraparound on huge headers
        need = count * 8
        if len(buf) - offset < need:
            raise ModelFormatError("model file truncated")
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise ModelFormatError("model weights must be finite")
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += need
    if offset != len(buf):
        raise ModelFormatError(f"{len(buf) - offset} trailing bytes after the arrays")
    return cls(*arrays)


def save_model(path: str | Path, model: Model) -> None:
    Path(path).write_bytes(model_to_bytes(model))


def load_model(path: str | Path) -> Model:
    return model_from_bytes(Path(path).read_bytes())


_LABELS = {label.value: label for label in Label}


def save_corpus(path: str | Path, samples: Sequence[tuple[str, Label]]) -> None:
    """One ``label<TAB>text`` line per sample.  Text holding a tab or any
    separator that `str.splitlines` splits on would not load back as written,
    so it is refused."""
    lines = []
    for text, label in samples:
        if "\t" in text or text.splitlines() not in ([], [text]):
            raise ValueError("sample text may not contain tabs or line separators")
        lines.append(f"{label.value}\t{text}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_corpus(path: str | Path) -> list[tuple[str, Label]]:
    samples = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        name, sep, text = line.partition("\t")
        if not sep:
            raise CorpusFormatError(f"line {lineno}: missing tab separator")
        label = _LABELS.get(name)
        if label is None:
            raise CorpusFormatError(f"line {lineno}: unknown label {name!r}")
        samples.append((text, label))
    return samples

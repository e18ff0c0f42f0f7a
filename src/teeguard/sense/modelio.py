"""Binary model files and tab-separated corpus files.

Model layout: magic ``TGM1``, then six little-endian u32 header words
(architecture tag, vocab size, embedding dim, filter count, filter width),
then the parameter arrays as float64 little-endian in a fixed order per
architecture.  The attention encoder stores zero for the filter fields.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..words import Label
from .models import AttentionEncoder, CnnModel, HybridModel, Model

MODEL_MAGIC = b"TGM1"
_HEADER = struct.Struct("<4s5I")
_TAG_CNN, _TAG_ATTENTION, _TAG_HYBRID = 1, 2, 3


class ModelFormatError(ValueError):
    pass


class CorpusFormatError(ValueError):
    pass


def _cnn_arrays(model: CnnModel) -> list[np.ndarray]:
    return [model.embedding, model.conv_filters, model.fc_weights, model.fc_bias]


def _attention_arrays(enc: AttentionEncoder) -> list[np.ndarray]:
    return [enc.embedding, enc.query, enc.key, enc.value, enc.head, enc.head_bias]


def _cnn_shapes(v: int, d: int, f: int, w: int) -> list[tuple[int, ...]]:
    return [(v, d), (f, w, d), (f,), ()]


def _attention_shapes(v: int, d: int) -> list[tuple[int, ...]]:
    return [(v, d), (d, d), (d, d), (d, d), (d,), ()]


def model_to_bytes(model: Model) -> bytes:
    if isinstance(model, CnnModel):
        tag, dims = _TAG_CNN, (model.vocab_size, model.dim, model.filters, model.width)
        arrays = _cnn_arrays(model)
    elif isinstance(model, AttentionEncoder):
        tag, dims = _TAG_ATTENTION, (model.vocab_size, model.dim, 0, 0)
        arrays = _attention_arrays(model)
    elif isinstance(model, HybridModel):
        cnn, enc = model.cnn, model.encoder
        if enc.embedding.shape != cnn.embedding.shape:
            raise ModelFormatError("hybrid parts disagree on vocab size or dim")
        if model.proj.shape != (cnn.filters, enc.dim):
            raise ModelFormatError("projection shape does not match the parts")
        tag, dims = _TAG_HYBRID, (cnn.vocab_size, cnn.dim, cnn.filters, cnn.width)
        arrays = _cnn_arrays(cnn) + [model.proj] + _attention_arrays(enc)
    else:
        raise ModelFormatError(f"unsupported model type {type(model).__name__}")
    header = _HEADER.pack(MODEL_MAGIC, tag, *dims)
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return header + body


def _read_arrays(
    buf: bytes, offset: int, shapes: Sequence[tuple[int, ...]]
) -> tuple[list[np.ndarray], int]:
    out = []
    for shape in shapes:
        count = math.prod(shape)  # Python ints: no wraparound on huge headers
        need = count * 8
        if len(buf) - offset < need:
            raise ModelFormatError("model file truncated")
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise ModelFormatError("model weights must be finite")
        out.append(arr.astype(np.float64).reshape(shape))
        offset += need
    return out, offset


def model_from_bytes(buf: bytes) -> Model:
    if len(buf) < _HEADER.size:
        raise ModelFormatError("model file shorter than its header")
    magic, tag, v, d, f, w = _HEADER.unpack_from(buf)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if v < 1 or d < 1:
        raise ModelFormatError("vocab size and dim must be positive")

    offset = _HEADER.size
    if tag == _TAG_CNN:
        if f < 1 or w < 1:
            raise ModelFormatError("filter fields must be positive")
        arrays, offset = _read_arrays(buf, offset, _cnn_shapes(v, d, f, w))
        model: Model = CnnModel(*arrays)
    elif tag == _TAG_ATTENTION:
        if f != 0 or w != 0:
            raise ModelFormatError("filter fields must be zero")
        arrays, offset = _read_arrays(buf, offset, _attention_shapes(v, d))
        model = AttentionEncoder(*arrays)
    elif tag == _TAG_HYBRID:
        if f < 1 or w < 1:
            raise ModelFormatError("filter fields must be positive")
        shapes = _cnn_shapes(v, d, f, w) + [(f, d)] + _attention_shapes(v, d)
        arrays, offset = _read_arrays(buf, offset, shapes)
        model = HybridModel(cnn=CnnModel(*arrays[:4]), proj=arrays[4],
                            encoder=AttentionEncoder(*arrays[5:]))
    else:
        raise ModelFormatError(f"unknown architecture tag {tag}")
    if offset != len(buf):
        raise ModelFormatError(f"{len(buf) - offset} trailing bytes after the arrays")
    return model


def save_model(path: str | Path, model: Model) -> None:
    Path(path).write_bytes(model_to_bytes(model))


def load_model(path: str | Path) -> Model:
    return model_from_bytes(Path(path).read_bytes())


_LABEL_NAMES = {Label.SENSITIVE: "sensitive", Label.BENIGN: "benign"}
_NAMES_TO_LABEL = {name: label for label, name in _LABEL_NAMES.items()}


def save_corpus(path: str | Path, samples: Sequence[tuple[str, Label]]) -> None:
    """One ``label<TAB>text`` line per sample."""
    lines = []
    for text, label in samples:
        if "\t" in text or "\n" in text:
            raise ValueError("sample text may not contain tabs or newlines")
        lines.append(f"{_LABEL_NAMES[label]}\t{text}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_corpus(path: str | Path) -> list[tuple[str, Label]]:
    samples = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        name, sep, text = line.partition("\t")
        if not sep:
            raise CorpusFormatError(f"line {lineno}: missing tab separator")
        label = _NAMES_TO_LABEL.get(name)
        if label is None:
            raise CorpusFormatError(f"line {lineno}: unknown label {name!r}")
        samples.append((text, label))
    return samples

"""Binary sensitivity classifiers built from scratch: a 1-D text CNN, a
single-head self-attention encoder, and a hybrid of the two (CNN features in,
attention classifier out).

Each model is a dataclass of exactly the arrays it trains, in field order;
`trainable_params` reads them from the fields.  Every model also has
`min_len` (the shortest token row it takes), `forward(token_rows)` returning
`(logits, cache)`, and `backward(cache, dlogits)` returning the analytic
gradients.  The conv+ReLU front end and the attention back end are module
functions that take the model, so the hybrid runs the same code as the CNN
and the encoder.  `score` runs `forward` on a batch of one, so inference and
training share one path.  All math is pure float64 numpy.  Batches hold
same-length token rows, so no masking is needed and batched math is exactly
the per-example math.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .text import UNKNOWN_INDEX


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def pad_tokens(tokens: Sequence[int], min_len: int) -> list[int]:
    """Right-pad with the unknown index up to `min_len`."""
    padded = list(tokens)
    if len(padded) < min_len:
        padded.extend([UNKNOWN_INDEX] * (min_len - len(padded)))
    return padded


def _embedding_grad(embedding: np.ndarray, tokens: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Scatter-add per-position input gradients back onto embedding rows."""
    dembedding = np.zeros_like(embedding)
    np.add.at(dembedding, tokens.reshape(-1), dx.reshape(-1, embedding.shape[1]))
    return dembedding


def _conv_relu(model: CnnModel | HybridModel, token_rows: np.ndarray) -> dict:
    """Front end: embed, convolve (valid padding), ReLU."""
    x = model.embedding[token_rows]  # (B, n, d)
    windows = sliding_window_view(x, model.conv_filters.shape[1], axis=1)  # (B, P, d, w)
    conv = np.einsum("bpji,fij->bpf", windows, model.conv_filters)
    feats = np.maximum(conv, 0.0)
    return {"tokens": token_rows, "x": x, "windows": windows, "conv": conv, "feats": feats}


def _conv_relu_backward(
    model: CnnModel | HybridModel, cache: dict, dfeats: np.ndarray
) -> dict[str, np.ndarray]:
    dconv = dfeats * (cache["conv"] > 0.0)
    dfilters = np.einsum("bpf,bpji->fij", dconv, cache["windows"])
    spread = np.einsum("bpf,fij->bpij", dconv, model.conv_filters)  # (B, P, w, d)
    dx = np.zeros_like(cache["x"])
    positions = spread.shape[1]
    for i in range(model.conv_filters.shape[1]):
        dx[:, i : i + positions, :] += spread[:, :, i, :]
    return {
        "embedding": _embedding_grad(model.embedding, cache["tokens"], dx),
        "conv_filters": dfilters,
    }


def _attend(model: AttentionEncoder | HybridModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Back end: self-attend over input rows x (B, n, d), mean-pool, dot
    with the head."""
    scale = 1.0 / np.sqrt(model.embedding.shape[1])
    q = x @ model.query
    k = x @ model.key
    v = x @ model.value
    scores = np.einsum("bnd,bmd->bnm", q, k) * scale
    shifted = scores - scores.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    attn = expd / expd.sum(axis=-1, keepdims=True)  # rows sum to 1
    context = np.einsum("bnm,bmd->bnd", attn, v)
    pooled = context.mean(axis=1)
    cache = {"x": x, "q": q, "k": k, "v": v, "attn": attn, "pooled": pooled}
    return pooled @ model.head + model.head_bias, cache


def _attend_backward(
    model: AttentionEncoder | HybridModel, cache: dict, dlogits: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Returns (parameter grads, gradient w.r.t. the input rows x)."""
    x, q, k, v, attn = cache["x"], cache["q"], cache["k"], cache["v"], cache["attn"]
    n = x.shape[1]
    scale = 1.0 / np.sqrt(model.embedding.shape[1])
    dhead = cache["pooled"].T @ dlogits
    dbias = np.asarray(dlogits.sum())
    dpooled = dlogits[:, None] * model.head[None, :]  # (B, d)
    dcontext = np.repeat(dpooled[:, None, :], n, axis=1) / n
    dattn = np.einsum("bnd,bmd->bnm", dcontext, v)
    dv = np.einsum("bnm,bnd->bmd", attn, dcontext)
    # softmax backward, rowwise
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = np.einsum("bnm,bmd->bnd", dscores, k) * scale
    dk = np.einsum("bnm,bnd->bmd", dscores, q) * scale
    grads = {
        "query": np.einsum("bni,bnj->ij", x, dq),
        "key": np.einsum("bni,bnj->ij", x, dk),
        "value": np.einsum("bni,bnj->ij", x, dv),
        "head": dhead,
        "head_bias": dbias,
    }
    dx = dq @ model.query.T + dk @ model.key.T + dv @ model.value.T
    return grads, dx


class _Embedded:
    """Every model's first field is its (V, d) embedding table."""

    embedding: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]


@dataclass
class CnnModel(_Embedded):
    """Embed, convolve, ReLU, max-pool over positions, dot with the FC head."""

    embedding: np.ndarray  # (V, d)
    conv_filters: np.ndarray  # (F, w, d)
    fc_weights: np.ndarray  # (F,)
    fc_bias: np.ndarray  # ()

    @property
    def min_len(self) -> int:
        return self.conv_filters.shape[1]

    def forward(self, token_rows: np.ndarray) -> tuple[np.ndarray, dict]:
        cache = _conv_relu(self, token_rows)
        cache["argmax"] = cache["feats"].argmax(axis=1)  # (B, F)
        cache["pooled"] = cache["feats"].max(axis=1)  # (B, F)
        return cache["pooled"] @ self.fc_weights + self.fc_bias, cache

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        dpooled = dlogits[:, None] * self.fc_weights[None, :]
        dfeats = np.zeros_like(cache["feats"])
        np.put_along_axis(dfeats, cache["argmax"][:, None, :], dpooled[:, None, :], axis=1)
        grads = _conv_relu_backward(self, cache, dfeats)
        grads["fc_weights"] = cache["pooled"].T @ dlogits
        grads["fc_bias"] = np.asarray(dlogits.sum())
        return grads


@dataclass
class AttentionEncoder(_Embedded):
    """Embed, then the attention back end (single head, scaled dot product)."""

    embedding: np.ndarray  # (V, d)
    query: np.ndarray  # (d, d)
    key: np.ndarray  # (d, d)
    value: np.ndarray  # (d, d)
    head: np.ndarray  # (d,)
    head_bias: np.ndarray  # ()

    min_len = 1

    def forward(self, token_rows: np.ndarray) -> tuple[np.ndarray, dict]:
        logits, cache = _attend(self, self.embedding[token_rows])
        cache["tokens"] = token_rows
        return logits, cache

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        grads, dx = _attend_backward(self, cache, dlogits)
        grads["embedding"] = _embedding_grad(self.embedding, cache["tokens"], dx)
        return grads


@dataclass
class HybridModel(_Embedded):
    """The conv+ReLU front end's feature maps (no pooling), projected from F
    to d dims and classified by the attention back end."""

    embedding: np.ndarray  # (V, d)
    conv_filters: np.ndarray  # (F, w, d)
    proj: np.ndarray  # (F, d)
    query: np.ndarray  # (d, d)
    key: np.ndarray  # (d, d)
    value: np.ndarray  # (d, d)
    head: np.ndarray  # (d,)
    head_bias: np.ndarray  # ()

    @property
    def min_len(self) -> int:
        return self.conv_filters.shape[1]

    def forward(self, token_rows: np.ndarray) -> tuple[np.ndarray, dict]:
        conv_cache = _conv_relu(self, token_rows)
        projected = conv_cache["feats"] @ self.proj  # (B, P, d)
        logits, attn_cache = _attend(self, projected)
        return logits, {"conv": conv_cache, "attn": attn_cache}

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        grads, dprojected = _attend_backward(self, cache["attn"], dlogits)
        feats = cache["conv"]["feats"]
        grads["proj"] = np.einsum("bpf,bpd->fd", feats, dprojected)
        dfeats = dprojected @ self.proj.T
        grads.update(_conv_relu_backward(self, cache["conv"], dfeats))
        return grads


Model = CnnModel | AttentionEncoder | HybridModel


def init_cnn(
    vocab_size: int, dim: int, filters: int, width: int, rng: np.random.Generator
) -> CnnModel:
    return CnnModel(
        embedding=rng.normal(0.0, 0.1, (vocab_size, dim)),
        conv_filters=rng.normal(0.0, 0.1, (filters, width, dim)),
        fc_weights=rng.normal(0.0, 0.1, filters),
        fc_bias=np.zeros(()),
    )


def init_attention(vocab_size: int, dim: int, rng: np.random.Generator) -> AttentionEncoder:
    return AttentionEncoder(
        embedding=rng.normal(0.0, 0.1, (vocab_size, dim)),
        query=rng.normal(0.0, 0.1, (dim, dim)),
        key=rng.normal(0.0, 0.1, (dim, dim)),
        value=rng.normal(0.0, 0.1, (dim, dim)),
        head=rng.normal(0.0, 0.1, dim),
        head_bias=np.zeros(()),
    )


def init_hybrid(
    vocab_size: int, dim: int, filters: int, width: int, rng: np.random.Generator
) -> HybridModel:
    """Draws a whole CNN and a whole encoder, then the projection, and keeps
    the arrays the hybrid uses, so the seeded draws are those of all three."""
    cnn = init_cnn(vocab_size, dim, filters, width, rng)
    encoder = init_attention(vocab_size, dim, rng)
    return HybridModel(
        embedding=cnn.embedding,
        conv_filters=cnn.conv_filters,
        proj=rng.normal(0.0, 0.1, (filters, dim)),
        query=encoder.query,
        key=encoder.key,
        value=encoder.value,
        head=encoder.head,
        head_bias=encoder.head_bias,
    )


def trainable_params(model: Model) -> dict[str, np.ndarray]:
    """The model's fields, in order: every field is a trained array."""
    return {f.name: getattr(model, f.name) for f in fields(model)}


def min_length(model: Model) -> int:
    """Shortest token row the model accepts without padding."""
    return model.min_len


def score(model: Model, tokens: Sequence[int]) -> float:
    """Sensitivity score in [0, 1] for one token sequence, padded with unknown
    tokens to `model.min_len` and checked against the vocabulary."""
    padded = pad_tokens(tokens, model.min_len)
    if any(t < 0 or t >= model.vocab_size for t in padded):
        raise ValueError(f"token index outside [0, {model.vocab_size})")
    logits, _ = model.forward(np.array([padded]))
    return float(sigmoid(logits)[0])

"""Classifier forward passes against hand-computed oracles, symmetry
properties, and analytic-vs-numeric gradient agreement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.sense.models import (
    AttentionEncoder,
    CnnModel,
    HybridModel,
    init_attention,
    init_cnn,
    init_hybrid,
    pad_tokens,
    score,
    sigmoid,
    trainable_params,
)
from teeguard.sense.training import group_by_length, loss_and_gradients, min_length
from teeguard.words import Label


def zero_cnn(vocab=5, dim=3, filters=2, width=2):
    return CnnModel(
        embedding=np.zeros((vocab, dim)),
        conv_filters=np.zeros((filters, width, dim)),
        fc_weights=np.zeros(filters),
        fc_bias=np.zeros(()),
    )


def zero_attention(vocab=5, dim=3):
    return AttentionEncoder(
        embedding=np.zeros((vocab, dim)),
        query=np.zeros((dim, dim)),
        key=np.zeros((dim, dim)),
        value=np.zeros((dim, dim)),
        head=np.zeros(dim),
        head_bias=np.zeros(()),
    )


def zero_hybrid(vocab=5, dim=3, filters=2, width=2):
    cnn, encoder = zero_cnn(vocab, dim, filters, width), zero_attention(vocab, dim)
    return HybridModel(
        embedding=cnn.embedding,
        conv_filters=cnn.conv_filters,
        proj=np.zeros((filters, dim)),
        query=encoder.query,
        key=encoder.key,
        value=encoder.value,
        head=encoder.head,
        head_bias=encoder.head_bias,
    )


# -- hand-computed forward oracles ---------------------------------------------


def test_zero_parameters_score_half():
    assert score(zero_cnn(), [1, 2, 3]) == 0.5
    assert score(zero_attention(), [1, 2]) == 0.5
    assert score(zero_hybrid(), [1, 2, 3]) == 0.5


def test_cnn_single_filter_scalar_oracle():
    # d=2, one width-2 filter; every intermediate is small enough to do by hand
    model = CnnModel(
        embedding=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]),
        conv_filters=np.array([[[0.1, -0.2], [0.3, 0.4]]]),
        fc_weights=np.array([2.0]),
        fc_bias=np.array(0.25),
    )
    # tokens [1, 2, 3] -> conv positions: 0.2 and 0.85; max-pool -> 0.85
    # logit = 0.85 * 2.0 + 0.25 = 1.95
    expected = 1.0 / (1.0 + math.exp(-1.95))
    assert score(model, [1, 2, 3]) == pytest.approx(expected, abs=1e-9)


def test_cnn_relu_clamps_negative_maps():
    model = CnnModel(
        embedding=np.array([[0.0], [1.0], [2.0]]),
        conv_filters=np.array([[[-1.0]]]),  # width 1: conv = -x
        fc_weights=np.array([5.0]),
        fc_bias=np.array(0.3),
    )
    # all feature maps clamp to zero, so only the bias survives
    assert score(model, [1, 2]) == pytest.approx(1.0 / (1.0 + math.exp(-0.3)))


def test_attention_identity_projections_pass_embedding_through():
    eye = np.eye(2)
    encoder = AttentionEncoder(
        embedding=np.array([[0.0, 0.0], [0.3, -0.7]]),
        query=eye.copy(),
        key=eye.copy(),
        value=eye.copy(),
        head=np.array([2.0, 1.0]),
        head_bias=np.array(0.5),
    )
    # one token: attention is the 1x1 identity, context == embedding row
    # logit = 0.3*2 - 0.7*1 + 0.5 = 0.4
    expected = 1.0 / (1.0 + math.exp(-0.4))
    assert score(encoder, [1]) == pytest.approx(expected, abs=1e-9)


def test_attention_repeated_token_changes_nothing():
    encoder = init_attention(6, 4, np.random.default_rng(3))
    single = score(encoder, [2])
    assert score(encoder, [2, 2]) == pytest.approx(single, abs=1e-12)
    assert score(encoder, [2, 2, 2]) == pytest.approx(single, abs=1e-12)


def test_hybrid_uniform_attention_oracle():
    # F == d == 1 with zeroed q/k projections: attention becomes a plain mean
    model = HybridModel(
        embedding=np.array([[0.0], [0.5], [-1.0], [2.0]]),
        conv_filters=np.array([[[2.0]]]),
        proj=np.eye(1),
        query=np.zeros((1, 1)),
        key=np.zeros((1, 1)),
        value=np.eye(1),
        head=np.array([0.4]),
        head_bias=np.array(-0.6),
    )
    # tokens [1, 3]: feature maps relu(2x) = [1.0, 4.0]; mean 2.5
    # logit = 2.5 * 0.4 - 0.6 = 0.4
    expected = 1.0 / (1.0 + math.exp(-0.4))
    assert score(model, [1, 3]) == pytest.approx(expected, abs=1e-9)


# -- symmetries ----------------------------------------------------------------


def test_cnn_filter_permutation_symmetry():
    model = init_cnn(8, 4, 3, 2, np.random.default_rng(0))
    tokens = [1, 5, 2, 7]
    baseline = score(model, tokens)
    perm = [2, 0, 1]
    shuffled = CnnModel(
        embedding=model.embedding,
        conv_filters=model.conv_filters[perm],
        fc_weights=model.fc_weights[perm],
        fc_bias=model.fc_bias,
    )
    assert score(shuffled, tokens) == pytest.approx(baseline, abs=1e-12)


def test_embedding_row_permutation_symmetry():
    rng = np.random.default_rng(1)
    cnn = init_cnn(6, 4, 2, 2, rng)
    att = init_attention(6, 4, rng)
    tokens = [1, 4, 2, 2, 5]
    perm = np.array([0, 3, 1, 5, 2, 4])  # index 0 stays put
    remapped = [int(np.where(perm == t)[0][0]) for t in tokens]

    cnn2 = CnnModel(cnn.embedding[perm], cnn.conv_filters, cnn.fc_weights, cnn.fc_bias)
    assert score(cnn2, remapped) == pytest.approx(score(cnn, tokens), abs=1e-12)

    att2 = AttentionEncoder(
        att.embedding[perm], att.query, att.key, att.value, att.head, att.head_bias
    )
    assert score(att2, remapped) == pytest.approx(
        score(att, tokens), abs=1e-12
    )


def test_hybrid_holds_only_the_arrays_it_trains():
    model = init_hybrid(8, 4, 3, 2, np.random.default_rng(2))
    assert [f.name for f in dataclasses.fields(model)] == [
        "embedding", "conv_filters", "proj", "query", "key", "value", "head", "head_bias",
    ]
    assert list(trainable_params(model)) == [f.name for f in dataclasses.fields(model)]


# -- scores, weights, padding, validation ----------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 9), max_size=12))
def test_scores_always_in_unit_interval(seed, tokens):
    rng = np.random.default_rng(seed)
    for model in (
        init_cnn(10, 4, 3, 2, rng),
        init_attention(10, 4, rng),
        init_hybrid(10, 4, 3, 2, rng),
    ):
        value = score(model, tokens)
        assert 0.0 <= value <= 1.0


@pytest.mark.parametrize(
    "init, dims",
    [(init_cnn, (10, 4, 3, 2)), (init_attention, (10, 4)), (init_hybrid, (10, 4, 3, 2))],
    ids=["cnn", "attention", "hybrid"],
)
def test_batched_forward_equals_single_scores(init, dims):
    rng = np.random.default_rng(21)
    model = init(*dims, rng)
    rows = rng.integers(0, 10, size=(50, 7))
    logits, _ = model.forward(rows)
    assert np.array_equal(sigmoid(logits), [score(model, list(r)) for r in rows])


def test_attention_rows_sum_to_one():
    encoder = init_attention(12, 6, np.random.default_rng(9))
    _, cache = encoder.forward(np.array([[3, 1, 4, 1, 5]]))
    weights = cache["attn"][0]
    assert weights.shape == (5, 5)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert (weights >= 0.0).all()


def test_short_inputs_are_padded_with_unknown():
    model = init_cnn(8, 4, 3, 3, np.random.default_rng(4))
    assert score(model, [5]) == score(model, [5, 0, 0])
    assert score(model, []) == score(model, [0, 0, 0])
    encoder = init_attention(8, 4, np.random.default_rng(4))
    assert score(encoder, []) == score(encoder, [0])


def test_pad_tokens_keeps_long_inputs():
    assert pad_tokens([7, 8], 2) == [7, 8]
    assert pad_tokens([7, 8, 9], 2) == [7, 8, 9]
    assert pad_tokens([], 3) == [0, 0, 0]


def test_out_of_range_tokens_rejected():
    model = init_cnn(8, 4, 3, 2, np.random.default_rng(5))
    with pytest.raises(ValueError):
        score(model, [1, 8])
    with pytest.raises(ValueError):
        score(init_attention(8, 4, np.random.default_rng(5)), [-1])


# -- gradient checks -------------------------------------------------------------


def numeric_vs_analytic(model, seed=7, step=1e-5):
    """Worst relative error between analytic gradients and central differences
    over every parameter element."""
    rng = np.random.default_rng(seed)
    vocab = trainable_params(model)["embedding"].shape[0]
    lengths = (3, 4, 4, 5, 3, 6)
    token_lists = [list(map(int, rng.integers(0, vocab, n))) for n in lengths]
    labels = [Label.SENSITIVE if i % 2 else Label.BENIGN for i in range(len(lengths))]
    grouped = group_by_length(token_lists, labels, min_length(model))
    count = len(token_lists)

    _, grads = loss_and_gradients(model, grouped, count)
    worst = 0.0
    for name, param in trainable_params(model).items():
        flat = param.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            plus, _ = loss_and_gradients(model, grouped, count)
            flat[i] = saved - step
            minus, _ = loss_and_gradients(model, grouped, count)
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * step)
            scale = max(1e-6, abs(numeric), abs(analytic[i]))
            worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst


def test_cnn_gradients_match_finite_differences():
    model = init_cnn(8, 4, 3, 2, np.random.default_rng(11))
    assert numeric_vs_analytic(model) < 1e-4


def test_attention_gradients_match_finite_differences():
    model = init_attention(8, 4, np.random.default_rng(12))
    assert numeric_vs_analytic(model) < 1e-4


def test_hybrid_gradients_match_finite_differences():
    model = init_hybrid(8, 4, 3, 2, np.random.default_rng(13))
    assert numeric_vs_analytic(model) < 1e-4

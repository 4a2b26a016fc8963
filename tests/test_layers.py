"""Tests for the neural building blocks and their invariants.

The encoder block is :func:`beatformer.model._encoder_block`, which reads
block ``i``'s weights from the model's tensor table by name.
"""

import math

import numpy as np
import pytest

from beatformer.errors import ConfigError, ConfigMismatchError, ShapeError
from beatformer.model import (
    LN_EPS,
    ModelConfig,
    _encoder_block,
    _patches,
    build_model,
    dropout_mask,
    forward,
    sinusoidal_table,
    tiny_config,
)
from beatformer.tensor import (
    Tensor,
    add_layer_norm,
    attention,
    embed_tokens,
    grad_check,
    mean_tokens,
)

from conftest import mul, sum_all
from reference import layer_norm, reference_attention


def one_block_model(d=8, heads=2, d_head=4, d_ff=16, seed=0):
    """A one-block model of width ``d``; only its block's weights are used."""
    return build_model(ModelConfig(d_model=d, heads=heads, d_head=d_head, encoder_layers=1,
                                   d_ff=d_ff, mlp_units=(4,), seed=seed))


def block_weights(model, i=0):
    """Block ``i``'s tensors by their names within the block, e.g. ``attn.w_o``."""
    prefix = f"block{i}."
    return {name[len(prefix):]: t for name, t in model.tensors.items()
            if name.startswith(prefix)}


def zero(*tensors):
    for t in tensors:
        t.data[...] = 0.0


def restore_with(model, name, value):
    """restore_model of ``model``'s weights with tensor ``name`` replaced by ``value``."""
    from beatformer.data import NormStats
    from beatformer.train import Checkpoint, restore_model

    params = {n: t.data for n, t in model.parameters()}
    params[name] = value
    n = model.config.input_len
    norm = NormStats(mean=np.zeros(n), std=np.ones(n), mode="standard", fitted_on="x")
    return restore_model(Checkpoint(config=model.config, params=params, norm=norm,
                                    best_val_loss=1.0, epoch=0))


class TestPatchEmbed:
    """``forward`` splits each signal into patch rows and embeds them with ``embed_tokens``."""

    def test_187_divides_into_17_tokens(self):
        rows = _patches(np.arange(187.0)[None, :], 11)
        assert rows.shape == (17, 11)
        w = Tensor(np.zeros((11, 4)))
        b = Tensor(np.zeros(4))
        assert embed_tokens(Tensor(rows), w, b, Tensor(np.zeros((17, 4)))).shape == (17, 4)
        with pytest.raises(ShapeError, match="16 tokens"):
            embed_tokens(Tensor(rows), w, b, Tensor(np.zeros((16, 4))))

    def test_identity_embedding_recovers_patches(self):
        w = Tensor(np.eye(11))
        b = Tensor(np.zeros(11))
        sig = np.arange(22.0)
        out = embed_tokens(Tensor(_patches(sig[None, :], 11)), w, b, Tensor(np.zeros((2, 11))))
        np.testing.assert_array_equal(out.data, sig.reshape(2, 11))

    def test_right_padding(self):
        rows = _patches(np.ones((2, 185)), 11)
        assert rows.shape == (2 * 17, 11)
        # last two slots of each signal's final patch are the zero padding
        for last in (rows[16], rows[33]):
            np.testing.assert_array_equal(last[-2:], [0.0, 0.0])
            np.testing.assert_array_equal(last[:-2], np.ones(9))

    def test_bad_patch_len(self):
        for patch_len in (0, 21):
            with pytest.raises(ConfigError, match="patch_len"):
                build_model(tiny_config(input_len=20, patch_len=patch_len))


class TestPositionalEmbedding:
    """The table is added to every sample's tokens inside ``embed_tokens``."""

    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(0)
        patches = Tensor(rng.normal(size=(2 * 17, 11)))
        w, b = Tensor(rng.normal(size=(11, 8))), Tensor(rng.normal(size=8))
        out = embed_tokens(patches, w, b, Tensor(np.zeros((17, 8))))
        np.testing.assert_array_equal(out.data, patches.data @ w.data + b.data)

    def test_slicing_contract(self):
        # each sample's block of token rows gets the whole table, row t at token t
        table = Tensor(np.random.default_rng(0).normal(size=(17, 64)))
        out = embed_tokens(Tensor(np.zeros((3 * 17, 11))), Tensor(np.zeros((11, 64))),
                           Tensor(np.zeros(64)), table)
        assert out.shape == (3 * 17, 64)
        for i in range(3):
            np.testing.assert_array_equal(out.data[i * 17:(i + 1) * 17], table.data)

    def test_identical_patches_distinct_positions(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        embedded = embed_tokens(Tensor(np.ones((4, 2))), Tensor(np.eye(2)),
                                Tensor(np.zeros(2)), table).data
        assert not np.array_equal(embedded[0], embedded[1])

    def test_too_many_rows(self):
        # the table has exactly n_tokens rows; a checkpoint with any other
        # count is refused instead of being sliced or padded
        model = build_model(tiny_config(input_len=44))
        with pytest.raises(ConfigMismatchError, match="pos.table"):
            restore_with(model, "pos.table", np.zeros((5, 8)))

    def test_sinusoidal_table_shape_and_range(self):
        t = sinusoidal_table(17, 8)
        assert t.shape == (17, 8)
        assert np.all(np.abs(t) <= 1.0)
        assert not np.array_equal(t[0], t[1])


def scaled_dot_attention(q, k, v):
    """:func:`~beatformer.tensor.attention` on one sample and one head.

    ``q``, ``k`` and ``v`` are the (t, d) query, key and value blocks, packed
    side by side into the op's (t, 3 * d) input.
    """
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    return attention(Tensor(np.hstack([q, k, v])), 1, q.shape[0], 1, q.shape[1]).data


def attention_weights(q, k):
    """The (t, t) weights of :func:`scaled_dot_attention` for square (t, t) q and k.

    With the identity as the values, the op's output is its weight matrix.
    """
    return scaled_dot_attention(q, k, np.eye(len(q)))


class TestScaledDotAttention:
    """softmax(Q K^T / sqrt(d)) V invariants, checked on the fused op the encoder runs."""

    def test_single_row(self):
        q, k, v = [[1.0, 2.0, 3.0]], [[0.5, -1.0, 2.0]], [[7.0, 8.0, 9.0]]
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_array_equal(out, v)  # a single key takes weight 1
        np.testing.assert_array_equal(scaled_dot_attention([[1.0]], [[0.5]], [[1.0]]), [[1.0]])

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(5, 5))
        k = np.tile(rng.normal(size=(1, 5)), (5, 1))
        v = rng.normal(size=(5, 5))
        np.testing.assert_allclose(attention_weights(q, k), np.full((5, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(scaled_dot_attention(q, k, v),
                                   np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_saturated_softmax_case(self):
        # query 0 scores 100 against key 0 and 0 against key 1, before the 1/sqrt(2)
        q = [[10.0, 0.0], [0.0, 10.0]]
        k = [[10.0, 0.0], [0.0, 10.0]]
        weights = attention_weights(q, k)
        z = 100.0 / math.sqrt(2.0)
        expected0 = 1.0 / (1.0 + math.exp(-z))
        assert np.all(np.isfinite(weights))
        np.testing.assert_allclose(weights[0], [expected0, 1.0 - expected0], atol=1e-8)
        # the weights are also the output here, since the values are the identity
        np.testing.assert_allclose(weights[0], [1.0, 0.0], atol=1e-8)

    def test_width_mismatch(self):
        # query, key and value blocks of different widths do not pack into one head
        with pytest.raises(ShapeError):
            attention(Tensor(np.hstack([np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4))])),
                      1, 2, 1, 4)

    def test_row_stochastic_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = int(rng.integers(1, 7))
            weights = attention_weights(rng.normal(scale=3.0, size=(t, t)),
                                        rng.normal(scale=3.0, size=(t, t)))
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(weights >= 0.0) and np.all(weights <= 1.0)

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q, k, v = rng.normal(size=(3, 6, 4))
        perm = rng.permutation(6)
        out = scaled_dot_attention(q, k, v)
        out_p = scaled_dot_attention(q[perm], k, v)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_joint_key_value_permutation_invariance(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(3, 6, 4))
        perm = rng.permutation(6)
        out = scaled_dot_attention(q, k, v)
        out_p = scaled_dot_attention(q, k[perm], v[perm])
        np.testing.assert_allclose(out_p, out, atol=1e-12)


class TestMultiHeadAttention:
    """The attention sublayer of the encoder block: packed QKV, attention, output projection."""

    def test_identity_chain_single_token(self):
        # one token attends only to itself, so with the identity as its value
        # projection the sublayer is x @ w_o + b_o
        model = one_block_model(d=4, heads=1, d_head=4)
        w = block_weights(model)
        w["attn.w_qkv"].data[...] = np.hstack([np.eye(4)] * 3)
        zero(w["attn.b_qkv"], w["ffn.w1"], w["ffn.b1"], w["ffn.w2"], w["ffn.b2"])
        x = np.array([[0.3, -0.7, 1.1, 0.2]])
        expected = layer_norm(layer_norm(x + x @ w["attn.w_o"].data + w["attn.b_o"].data,
                                         1.0, 0.0), 1.0, 0.0)
        np.testing.assert_allclose(_encoder_block(model, 0, Tensor(x), 1).data, expected,
                                   rtol=0, atol=1e-12)

    def test_zero_projections_give_zero_output(self):
        # zero attention weights leave only the residual in the first step
        model = one_block_model(seed=1)
        w = block_weights(model)
        zero(w["attn.w_qkv"], w["attn.b_qkv"], w["attn.w_o"], w["attn.b_o"])
        w["ffn.b1"].data[...] = 0.1
        x = np.random.default_rng(1).normal(size=(5, 8))
        a = layer_norm(x, 1.0, 0.0)
        ffn = np.maximum(a @ w["ffn.w1"].data + 0.1, 0.0) @ w["ffn.w2"].data
        np.testing.assert_allclose(_encoder_block(model, 0, Tensor(x), 1).data,
                                   layer_norm(a + ffn, 1.0, 0.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads,d_head", [(1, 4), (2, 3), (4, 2)])
    def test_output_shape_contract(self, heads, d_head):
        model = one_block_model(d=6, heads=heads, d_head=d_head, seed=heads)
        w = block_weights(model)
        assert w["attn.w_qkv"].shape == (6, 3 * heads * d_head)
        assert w["attn.w_o"].shape == (heads * d_head, 6)
        x = Tensor(np.random.default_rng(heads).normal(size=(7, 6)))
        assert _encoder_block(model, 0, x, 1).shape == (7, 6)

    def test_output_projection_width_validated(self):
        # a stored output projection must take heads * d_head input rows
        model = build_model(tiny_config())
        with pytest.raises(ConfigMismatchError, match=r"block0.attn.w_o has shape \(3, 8\)"):
            restore_with(model, "block0.attn.w_o", np.zeros((3, 8)))

    def test_packed_width_must_split_into_heads(self):
        # a stored packed projection must be 3 * heads * d_head wide
        model = build_model(tiny_config())
        with pytest.raises(ConfigMismatchError, match=r"block1.attn.w_qkv has shape \(8, 15\)"):
            restore_with(model, "block1.attn.w_qkv", np.zeros((8, 15)))

    def test_batch_of_samples_matches_each_alone(self):
        model = build_model(tiny_config(seed=12))
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3 * 5, 8))
        batched = _encoder_block(model, 0, Tensor(x), 3).data
        for i in range(3):
            alone = _encoder_block(model, 0, Tensor(x[i * 5:(i + 1) * 5]), 1).data
            np.testing.assert_allclose(batched[i * 5:(i + 1) * 5], alone, rtol=0, atol=1e-12)


class TestFeedForward:
    """The position-wise FFN sublayer of the encoder block."""

    def test_zero_weights(self):
        # a zero FFN leaves the second step a LayerNorm of the first step's output
        model = build_model(tiny_config())
        w = block_weights(model)
        zero(w["ffn.w1"], w["ffn.b1"], w["ffn.w2"], w["ffn.b2"])
        x = np.random.default_rng(2).normal(size=(4, 8))
        weights = lambda name: w[name].data
        a = layer_norm(x + reference_attention(x, weights, 2, 4), 1.0, 0.0)
        np.testing.assert_allclose(_encoder_block(model, 0, Tensor(x), 1).data,
                                   layer_norm(a, 1.0, 0.0), rtol=0, atol=1e-12)

    def test_position_wise_permutation(self):
        # no positions inside a block: permuting a sample's tokens permutes its output
        model = build_model(tiny_config(seed=3))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = _encoder_block(model, 0, Tensor(x), 1).data
        out_p = _encoder_block(model, 0, Tensor(x[perm]), 1).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


class TestEncoderBlock:
    def test_shape_preserved_across_configs(self):
        for seed, (t, d) in enumerate([(3, 8), (17, 8), (5, 8)]):
            model = build_model(tiny_config(seed=seed))
            x = Tensor(np.random.default_rng(seed).normal(size=(t, d)))
            assert _encoder_block(model, 0, x, 1).shape == (t, d)

    def test_eval_mode_deterministic(self):
        # no generator, no dropout: the same output, also for a high dropout
        model = build_model(tiny_config(seed=5, dropout=0.5))
        x = Tensor(np.random.default_rng(8).normal(size=(4, 8)))
        a = _encoder_block(model, 0, x, 1).data
        b = _encoder_block(model, 0, x, 1).data
        np.testing.assert_array_equal(a, b)
        no_dropout = build_model(tiny_config(seed=5, dropout=0.0))
        np.testing.assert_array_equal(a, _encoder_block(no_dropout, 0, x, 1).data)

    def test_zero_sublayers_reduce_to_double_layer_norm(self):
        model = build_model(tiny_config(seed=6))
        w = block_weights(model)
        zero(*(t for name, t in w.items() if name.startswith(("attn.", "ffn."))))
        x = Tensor(np.random.default_rng(10).normal(size=(4, 8)))
        got = _encoder_block(model, 0, x, 1).data
        ones = Tensor(np.ones(8))
        zeros = Tensor(np.zeros(8))
        no_residual = Tensor(np.zeros((4, 8)))
        once = add_layer_norm(x, no_residual, ones, zeros, LN_EPS)
        expected = add_layer_norm(once, no_residual, ones, zeros, LN_EPS).data
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestClassificationHead:
    """The head :func:`~beatformer.model.forward` runs on the pooled tokens."""

    def test_zero_weights_yield_biases(self):
        model = build_model(tiny_config(seed=7))
        zero(*(t for name, t in model.tensors.items() if name.startswith("head.")))
        model.tensors["head.out.b"].data[...] = [0.1, 0.2, 0.3, 0.4, 0.5]
        x = np.random.default_rng(11).normal(size=(4, 187))
        logits = forward(model, x)
        np.testing.assert_allclose(logits.data, np.tile([0.1, 0.2, 0.3, 0.4, 0.5], (4, 1)))

    def test_pooling_of_identical_rows(self):
        row = np.random.default_rng(12).normal(size=8)
        x = Tensor(np.tile(row, (2 * 5, 1)))
        np.testing.assert_allclose(mean_tokens(x, 2).data, np.tile(row, (2, 1)), atol=1e-12)

    def test_default_config_emits_five_logits(self):
        model = build_model(tiny_config(seed=8))
        x = np.random.default_rng(13).normal(size=187)
        assert forward(model, x).shape == (1, 5)


class TestDropout:
    def test_eval_mode_identity(self):
        # without a generator there is no mask, whatever p is
        assert dropout_mask((20, 20), 0.9, None) is None

    def test_p_zero_identity(self):
        rng = np.random.default_rng(0)
        assert dropout_mask((3, 3), 0.0, rng) is None
        # and no draw was made
        assert rng.random() == np.random.default_rng(0).random()

    def test_inverted_scaling_preserves_mean(self):
        mask = dropout_mask((200, 200), 0.5, np.random.default_rng(15))
        assert set(np.unique(mask)) == {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.05

    def test_invalid_p(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                dropout_mask((3,), p, np.random.default_rng(0))
            with pytest.raises(ConfigError):
                dropout_mask((3,), p, None)

    def test_seeded_mask_reproducible(self):
        a = dropout_mask((10, 10), 0.3, np.random.default_rng(42))
        b = dropout_mask((10, 10), 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


def test_whole_stack_gradient_check():
    """Analytic vs central-difference gradients through the full tiny stack."""
    cfg = tiny_config(input_len=44)  # 4 tokens of 11 samples
    model = build_model(cfg)
    rng = np.random.default_rng(99)
    batch = rng.normal(size=(2, 44))
    weight = Tensor(rng.normal(size=(2, 5)))

    def f():
        return sum_all(mul(forward(model, batch), weight))

    params = model.param_tensors()
    names = [n for n, _ in model.parameters()]
    report = grad_check(f, params, eps=1e-5, tol=1e-4, names=names)
    assert report.passed, report.summary()

"""Tests for the neural building blocks and their invariants."""

import math

import numpy as np
import pytest

from beatformer.errors import ConfigError, ConfigMismatchError, ShapeError
from beatformer.layers import (
    AttentionParams,
    dropout_mask,
    encoder_block,
    feed_forward,
    multi_head_attention,
    patch_embed,
    sinusoidal_table,
)
from beatformer.model import build_model, forward, tiny_config
from beatformer.tensor import Tensor, attention, embed_tokens, grad_check, mean_tokens

from conftest import mul, sum_all


def identity_attention(d):
    """One head whose query, key, value and output projections are all I_d."""
    return AttentionParams(
        w_qkv=Tensor(np.hstack([np.eye(d)] * 3), needs_grad=True),
        b_qkv=Tensor(np.zeros(3 * d), needs_grad=True),
        w_o=Tensor(np.eye(d), needs_grad=True), b_o=Tensor(np.zeros(d), needs_grad=True),
        heads=1,
    )


class TestPatchEmbed:
    def test_187_divides_into_17_tokens(self):
        w = Tensor(np.zeros((11, 4)))
        b = Tensor(np.zeros(4))
        out = patch_embed(np.arange(187.0), 11, w, b, Tensor(np.zeros((17, 4))))
        assert out.shape == (17, 4)
        with pytest.raises(ShapeError, match="17 tokens"):
            patch_embed(np.arange(187.0), 11, w, b, Tensor(np.zeros((16, 4))))

    def test_identity_embedding_recovers_patches(self):
        w = Tensor(np.eye(11))
        b = Tensor(np.zeros(11))
        sig = np.arange(22.0)
        out = patch_embed(sig, 11, w, b, Tensor(np.zeros((2, 11))))
        np.testing.assert_array_equal(out.data, sig.reshape(2, 11))

    def test_right_padding(self):
        w = Tensor(np.eye(11))
        b = Tensor(np.zeros(11))
        sig = np.ones(185)
        out = patch_embed(sig, 11, w, b, Tensor(np.zeros((17, 11))))
        assert out.shape == (17, 11)
        # last two slots of the final patch are the zero padding
        np.testing.assert_array_equal(out.data[-1, -2:], [0.0, 0.0])
        np.testing.assert_array_equal(out.data[-1, :-2], np.ones(9))

    def test_bad_patch_len(self):
        w = Tensor(np.zeros((11, 4)))
        b = Tensor(np.zeros(4))
        pos = Tensor(np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            patch_embed(np.ones(20), 0, w, b, pos)
        with pytest.raises(ConfigError):
            patch_embed(np.ones(20), 21, w, b, pos)


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
        from beatformer.data import NormStats
        from beatformer.train import Checkpoint, restore_model

        model = build_model(tiny_config(input_len=44))
        params = {name: t.data for name, t in model.parameters()}
        params["pos.table"] = np.zeros((5, 8))
        norm = NormStats(mean=np.zeros(44), std=np.ones(44), fitted_on="x")
        ckpt = Checkpoint(config=model.config, params=params, norm=norm, best_val_loss=1.0,
                          epoch=0, seed=0)
        with pytest.raises(ConfigMismatchError, match="pos.table"):
            restore_model(ckpt)

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
    def test_identity_chain_single_token(self):
        params = identity_attention(2)
        x = Tensor([[0.3, -0.7]])
        out = multi_head_attention(x, params)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_zero_projections_give_zero_output(self):
        d, h, dh = 4, 2, 2
        params = AttentionParams(
            w_qkv=Tensor(np.zeros((d, 3 * h * dh)), needs_grad=True),
            b_qkv=Tensor(np.zeros(3 * h * dh), needs_grad=True),
            w_o=Tensor(np.zeros((h * dh, d)), needs_grad=True),
            b_o=Tensor(np.zeros(d), needs_grad=True),
            heads=h,
        )
        x = Tensor(np.random.default_rng(1).normal(size=(5, d)))
        out = multi_head_attention(x, params)
        np.testing.assert_array_equal(out.data, np.zeros((5, d)))

    @pytest.mark.parametrize("heads,d_head", [(1, 4), (2, 3), (4, 2)])
    def test_output_shape_contract(self, heads, d_head):
        rng = np.random.default_rng(heads)
        d = 6
        params = AttentionParams(
            w_qkv=Tensor(rng.normal(size=(d, 3 * heads * d_head))),
            b_qkv=Tensor(np.zeros(3 * heads * d_head)),
            w_o=Tensor(rng.normal(size=(heads * d_head, d))),
            b_o=Tensor(np.zeros(d)),
            heads=heads,
        )
        assert params.d_head == d_head
        x = Tensor(rng.normal(size=(7, d)))
        assert multi_head_attention(x, params).shape == (7, d)

    def test_output_projection_width_validated(self):
        d = 4
        with pytest.raises(ConfigError):
            AttentionParams(
                w_qkv=Tensor(np.zeros((d, 3 * 2))), b_qkv=Tensor(np.zeros(3 * 2)),
                w_o=Tensor(np.zeros((3, d))), b_o=Tensor(np.zeros(d)),
                heads=1,
            )

    def test_packed_width_must_split_into_heads(self):
        d = 4
        with pytest.raises(ConfigError, match="heads"):
            AttentionParams(
                w_qkv=Tensor(np.zeros((d, 3 * 5))), b_qkv=Tensor(np.zeros(3 * 5)),
                w_o=Tensor(np.zeros((5, d))), b_o=Tensor(np.zeros(d)),
                heads=2,
            )

    def test_batch_of_samples_matches_each_alone(self):
        model = build_model(tiny_config(seed=12))
        attn = model.blocks[0].attn
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3 * 5, 8))
        batched = multi_head_attention(Tensor(x), attn, batch=3).data
        for i in range(3):
            alone = multi_head_attention(Tensor(x[i * 5:(i + 1) * 5]), attn).data
            np.testing.assert_allclose(batched[i * 5:(i + 1) * 5], alone, rtol=0, atol=1e-12)


class TestFeedForward:
    def test_zero_weights(self):
        model = build_model(tiny_config())
        block = model.blocks[0]
        for t in (block.w1, block.b1, block.w2, block.b2):
            t.data[...] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
        np.testing.assert_array_equal(feed_forward(x, block).data, np.zeros((4, 8)))

    def test_position_wise_permutation(self):
        model = build_model(tiny_config(seed=3))
        block = model.blocks[0]
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = feed_forward(Tensor(x), block).data
        out_p = feed_forward(Tensor(x[perm]), block).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_hand_computed_two_by_two(self):
        model = build_model(tiny_config())
        block = model.blocks[0]
        # shrink to d_model=2, d_ff=2 with hand-picked weights
        block.w1 = Tensor([[1.0, 0.0], [0.0, -1.0]])
        block.b1 = Tensor([0.0, 0.5])
        block.w2 = Tensor([[2.0, 0.0], [0.0, 3.0]])
        block.b2 = Tensor([1.0, -1.0])
        x = Tensor([[3.0, 1.0]])
        # hidden = relu([3, -0.5]) = [3, 0]; out = [3*2+1, 0*3-1] = [7, -1]
        np.testing.assert_allclose(feed_forward(x, block).data, [[7.0, -1.0]])


class TestEncoderBlock:
    def test_shape_preserved_across_configs(self):
        for seed, (t, d) in enumerate([(3, 8), (17, 8), (5, 8)]):
            model = build_model(tiny_config(seed=seed))
            x = Tensor(np.random.default_rng(seed).normal(size=(t, d)))
            out = encoder_block(x, model.blocks[0])
            assert out.shape == (t, d)

    def test_eval_mode_deterministic(self):
        # no generator, no dropout: the same output, also for a high dropout_p
        model = build_model(tiny_config(seed=5))
        x = Tensor(np.random.default_rng(8).normal(size=(4, 8)))
        a = encoder_block(x, model.blocks[0], dropout_p=0.5).data
        b = encoder_block(x, model.blocks[0], dropout_p=0.5).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, encoder_block(x, model.blocks[0]).data)

    def test_zero_sublayers_reduce_to_double_layer_norm(self):
        from beatformer.layers import LN_EPS
        from beatformer.tensor import add_layer_norm

        model = build_model(tiny_config(seed=6))
        block = model.blocks[0]
        for name, t in block.attn.tensors():
            t.data[...] = 0.0
        for t in (block.w1, block.b1, block.w2, block.b2):
            t.data[...] = 0.0
        x = Tensor(np.random.default_rng(10).normal(size=(4, 8)))
        got = encoder_block(x, block).data
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
        head = model.head
        for _, t in head.tensors():
            t.data[...] = 0.0
        head.out_b.data[...] = [0.1, 0.2, 0.3, 0.4, 0.5]
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

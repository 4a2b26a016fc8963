"""Tests for the neural building blocks and their invariants."""

import math

import numpy as np
import pytest

from beatformer.errors import ConfigError, ShapeError
from beatformer.layers import (
    AttentionParams,
    classification_head,
    dropout,
    encoder_block,
    feed_forward,
    multi_head_attention,
    patch_embed,
    positional_embedding,
    scaled_dot_attention,
    sinusoidal_table,
)
from beatformer.model import build_model, tiny_config
from beatformer.tensor import GradTape, Tensor, backward, grad_check, mul, sum_all, zero_grads


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
        out = patch_embed(np.arange(187.0), 11, w, b)
        assert out.shape == (17, 4)

    def test_identity_embedding_recovers_patches(self):
        w = Tensor(np.eye(11))
        b = Tensor(np.zeros(11))
        sig = np.arange(22.0)
        out = patch_embed(sig, 11, w, b)
        np.testing.assert_array_equal(out.data, sig.reshape(2, 11))

    def test_right_padding(self):
        w = Tensor(np.eye(11))
        b = Tensor(np.zeros(11))
        sig = np.ones(185)
        out = patch_embed(sig, 11, w, b)
        assert out.shape == (17, 11)
        # last two slots of the final patch are the zero padding
        np.testing.assert_array_equal(out.data[-1, -2:], [0.0, 0.0])
        np.testing.assert_array_equal(out.data[-1, :-2], np.ones(9))

    def test_bad_patch_len(self):
        w = Tensor(np.zeros((11, 4)))
        b = Tensor(np.zeros(4))
        with pytest.raises(ConfigError):
            patch_embed(np.ones(20), 0, w, b)
        with pytest.raises(ConfigError):
            patch_embed(np.ones(20), 21, w, b)


class TestPositionalEmbedding:
    def test_zero_table_is_identity(self):
        table = Tensor(np.zeros((17, 8)))
        np.testing.assert_array_equal(positional_embedding(17, table).data, np.zeros((17, 8)))

    def test_slicing_contract(self):
        table = Tensor(np.random.default_rng(0).normal(size=(20, 64)))
        out = positional_embedding(17, table)
        assert out.shape == (17, 64)
        np.testing.assert_array_equal(out.data, table.data[:17])

    def test_identical_patches_distinct_positions(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        tokens = Tensor(np.ones((4, 2)))
        from beatformer.tensor import add

        embedded = add(tokens, positional_embedding(4, table)).data
        assert not np.array_equal(embedded[0], embedded[1])

    def test_too_many_rows(self):
        with pytest.raises(ConfigError):
            positional_embedding(5, Tensor(np.zeros((4, 2))))

    def test_sinusoidal_table_shape_and_range(self):
        t = sinusoidal_table(17, 8)
        assert t.shape == (17, 8)
        assert np.all(np.abs(t) <= 1.0)
        assert not np.array_equal(t[0], t[1])


class TestScaledDotAttention:
    def test_single_row(self):
        q = Tensor([[1.0, 2.0]])
        k = Tensor([[0.5, -1.0]])
        v = Tensor([[7.0, 8.0, 9.0]])
        out, weights = scaled_dot_attention(q, k, v)
        np.testing.assert_array_equal(weights.data, [[1.0]])
        np.testing.assert_array_equal(out.data, v.data)

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(3, 4)))
        k = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
        v = Tensor(rng.normal(size=(5, 2)))
        out, weights = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(weights.data, np.full((3, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_saturated_softmax_case(self):
        q = Tensor([[10.0, 0.0]])
        k = Tensor([[10.0, 0.0], [0.0, 10.0]])
        v = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out, weights = scaled_dot_attention(q, k, v)
        z = 100.0 / math.sqrt(2.0)
        expected0 = 1.0 / (1.0 + math.exp(-z))
        np.testing.assert_allclose(weights.data, [[expected0, 1.0 - expected0]], atol=1e-8)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-8)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                                 Tensor(np.zeros((2, 4))))

    def test_row_stochastic_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t, dk, dv = rng.integers(1, 7, size=3)
            q = Tensor(rng.normal(scale=3.0, size=(t, dk)))
            k = Tensor(rng.normal(scale=3.0, size=(t, dk)))
            v = Tensor(rng.normal(size=(t, dv)))
            _, weights = scaled_dot_attention(q, k, v)
            np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(weights.data >= 0.0) and np.all(weights.data <= 1.0)

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(6, 4))
        k = Tensor(rng.normal(size=(6, 4)))
        v = Tensor(rng.normal(size=(6, 3)))
        perm = rng.permutation(6)
        out, _ = scaled_dot_attention(Tensor(q), k, v)
        out_p, _ = scaled_dot_attention(Tensor(q[perm]), k, v)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)

    def test_joint_key_value_permutation_invariance(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(4, 4)))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        out, _ = scaled_dot_attention(q, Tensor(k), Tensor(v))
        out_p, _ = scaled_dot_attention(q, Tensor(k[perm]), Tensor(v[perm]))
        np.testing.assert_allclose(out_p.data, out.data, atol=1e-12)


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
        model = build_model(tiny_config(seed=5))
        x = Tensor(np.random.default_rng(8).normal(size=(4, 8)))
        a = encoder_block(x, model.blocks[0], dropout_p=0.5, mode="eval").data
        b = encoder_block(x, model.blocks[0], dropout_p=0.5, mode="eval").data
        np.testing.assert_array_equal(a, b)

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
    def test_zero_weights_yield_biases(self):
        model = build_model(tiny_config(seed=7))
        head = model.head
        for _, t in head.tensors():
            t.data[...] = 0.0
        head.out_b.data[...] = [0.1, 0.2, 0.3, 0.4, 0.5]
        x = Tensor(np.random.default_rng(11).normal(size=(4, 8)))
        logits = classification_head(x, head)
        np.testing.assert_allclose(logits.data, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_pooling_of_identical_rows(self):
        from beatformer.tensor import mean_rows

        row = np.random.default_rng(12).normal(size=8)
        x = Tensor(np.tile(row, (5, 1)))
        np.testing.assert_allclose(mean_rows(x).data, row, atol=1e-12)

    def test_default_config_emits_five_logits(self):
        model = build_model(tiny_config(seed=8))
        x = Tensor(np.random.default_rng(13).normal(size=(17, 8)))
        assert classification_head(x, model.head).shape == (5,)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.random.default_rng(14).normal(size=(20, 20)))
        out = dropout(x, 0.9, "eval", np.random.default_rng(0))
        assert out is x

    def test_p_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(15)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.5, "train", rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_invalid_p(self):
        x = Tensor(np.ones(3))
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                dropout(x, p, "train", np.random.default_rng(0))

    def test_seeded_mask_reproducible(self):
        x = Tensor(np.ones((10, 10)))
        a = dropout(x, 0.3, "train", np.random.default_rng(42)).data
        b = dropout(x, 0.3, "train", np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)


def test_whole_stack_gradient_check():
    """Analytic vs central-difference gradients through the full tiny stack."""
    cfg = tiny_config(input_len=44)  # 4 tokens of 11 samples
    model = build_model(cfg)
    rng = np.random.default_rng(99)
    batch = rng.normal(size=(2, 44))
    weight = Tensor(rng.normal(size=(2, 5)))

    from beatformer.model import forward

    def f():
        return sum_all(mul(forward(model, batch, mode="eval"), weight))

    params = model.param_tensors()
    names = [n for n, _ in model.parameters()]
    report = grad_check(f, params, eps=1e-5, tol=1e-4, names=names)
    assert report.passed, report.summary()

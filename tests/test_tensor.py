"""Tests for the tensor engine: forward values, backward rules, gradient checks."""

import ast
import importlib
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

import beatformer.tensor as tensor_mod
from beatformer.errors import ShapeError
from beatformer.model import sinusoidal_table
from beatformer.tensor import (
    LN_EPS,
    GradTape,
    Tensor,
    add_layer_norm,
    attention,
    backward,
    embed_tokens,
    grad_check,
    linear,
    mean_tokens,
    relu,
)

from conftest import add, grad_arrays, mul, sum_all
from reference import query_major_attention, sum_then_add_backward


def naive_matmul(a, b):
    """Triple-loop reference used as the independent matmul oracle."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def product(a, b):
    """A @ B as the model computes it: :func:`linear` with a constant zero bias."""
    return linear(a, b, Tensor(np.zeros(b.shape[1])))


class TestMatmul:
    """The matrix product inside :func:`linear`, run with a zero bias."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(product(a, b).data, [[3, 4], [5, 6]])

    def test_hand_expansion(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(product(a, b).data, [[19, 22], [43, 50]])

    def test_zero_annihilator(self):
        a = Tensor(np.zeros((2, 2)))
        b = Tensor(np.arange(4.0).reshape(2, 2))
        np.testing.assert_array_equal(product(a, b).data, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.integers(-8, 9, size=(m, k)).astype(np.float64)
            b = rng.integers(-8, 9, size=(k, n)).astype(np.float64)
            got = product(Tensor(a), Tensor(b)).data
            np.testing.assert_array_equal(got, naive_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            product(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward_rule(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        grads = grad_arrays(a, b)
        with GradTape() as tape:
            loss = sum_all(product(a, b))
        backward(tape, loss, grads)
        ones = np.ones((2, 2))
        np.testing.assert_allclose(grads[a], ones @ b.data.T)
        np.testing.assert_allclose(grads[b], a.data.T @ ones)


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        np.testing.assert_array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)

    def test_bias_gradient_is_column_sum(self):
        x = Tensor(np.ones((3, 2)))
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor(np.zeros(2))
        g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        grads = grad_arrays(x, w, b)
        with GradTape() as tape:
            loss = sum_all(mul(linear(x, w, b), Tensor(g)))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[b], [9.0, 12.0])
        # an input gets its gradient whenever it is mapped: every tensor is differentiable
        np.testing.assert_array_equal(grads[x], g @ w.data.T)

    def test_shapes_validated(self):
        with pytest.raises(ShapeError, match="inner"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="bias"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


class TestAttention:
    def test_matches_per_sample_per_head_loop(self):
        b, t, heads, d = 3, 4, 2, 5
        rng = np.random.default_rng(9)
        qkv = rng.normal(size=(b * t, 3 * heads * d))
        got = attention(Tensor(qkv), b, t, heads, d).data
        assert got.shape == (b * t, heads * d)
        for i in range(b):
            rows = qkv[i * t:(i + 1) * t]
            for h in range(heads):
                q, k, v = (rows[:, (j * heads + h) * d:(j * heads + h + 1) * d] for j in range(3))
                z = q @ k.T / math.sqrt(d)
                w = np.exp(z - z.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                np.testing.assert_allclose(got[i * t:(i + 1) * t, h * d:(h + 1) * d], w @ v,
                                           rtol=0, atol=1e-12)

    def test_samples_do_not_mix(self):
        rng = np.random.default_rng(10)
        qkv = rng.normal(size=(2 * 3, 3 * 4))
        both = attention(Tensor(qkv), 2, 3, 1, 4).data
        second = attention(Tensor(qkv[3:]), 1, 3, 1, 4).data
        np.testing.assert_allclose(both[3:], second, rtol=0, atol=1e-15)

    def test_packed_width_validated(self):
        with pytest.raises(ShapeError, match="packed"):
            attention(Tensor(np.zeros((6, 11))), 2, 3, 1, 4)
        with pytest.raises(ShapeError, match="packed"):
            attention(Tensor(np.zeros((5, 12))), 2, 3, 1, 4)

    @pytest.mark.parametrize("t", [1, 5, 17, 130])
    def test_equals_query_major_formulation_bit_for_bit(self, t):
        """Key-major scores give the query-major output and gradient exactly.

        Head size 16 is the default config's. BLAS may round a product with a
        transposed operand differently at other head sizes (see README).
        """
        b, heads, d = 3, 2, 16
        rng = np.random.default_rng(t)
        qkv = Tensor(rng.normal(scale=2.0, size=(b * t, 3 * heads * d)))
        g = rng.normal(size=(b * t, heads * d))
        want_out, want_grad = query_major_attention(qkv.data, b, t, heads, d, g)
        grads = grad_arrays(qkv)
        with GradTape() as tape:
            out = attention(qkv, b, t, heads, d)
            loss = sum_all(mul(out, Tensor(g)))
        backward(tape, loss, grads)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(grads[qkv], want_grad)


@pytest.mark.parametrize("n", range(1, 301))
def test_pairwise_sum_equals_ndarray_sum_bit_for_bit(n):
    """The key-major softmax's sum adds in numpy's order for one contiguous row.

    1..300 terms cover the running sum below 8, the eight-way tree and its
    leftover terms, and the halving beyond 128. A numpy whose order differs
    fails here rather than changing the attention weights' bits.
    """
    rng = np.random.default_rng(n)
    x = rng.random((n, 4, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 4, 3))
    x[:, 0, 0] = -0.0  # numpy's sum of negative zeros is +0.0
    want = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
    assert tensor_mod._pairwise_sum(x).tobytes() == want.tobytes()


def attention_softmax(z):
    """Row-wise softmax of a square (t, t) logit matrix, read off :func:`attention`.

    One sample and one head of size t: the queries are sqrt(t) * z and the keys
    and values the identity, so the op's output is its weight matrix softmax(z).
    """
    z = np.asarray(z, dtype=np.float64)
    t = z.shape[0]
    qkv = np.hstack([z * math.sqrt(t), np.eye(t), np.eye(t)])
    return attention(Tensor(qkv), 1, t, 1, t).data


class TestSoftmaxRows:
    """The softmax over each query's scores inside :func:`attention`."""

    def test_symmetry(self):
        np.testing.assert_allclose(attention_softmax(np.zeros((2, 2))), np.full((2, 2), 0.5))

    def test_analytic_ratio(self):
        got = attention_softmax([[0.0, math.log(3.0)]] * 2)
        np.testing.assert_allclose(got, [[0.25, 0.75]] * 2, atol=1e-12)

    def test_overflow_safety(self):
        got = attention_softmax([[1000.0, 1000.0 + math.log(2.0)]] * 2)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [[1 / 3, 2 / 3]] * 2, atol=1e-12)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(11)
        y = attention_softmax(rng.normal(scale=20.0, size=(50, 50)))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 8))
        c = rng.normal(scale=30.0, size=(8, 1))
        np.testing.assert_allclose(attention_softmax(x + c), attention_softmax(x), atol=1e-9)


def layer_norm(x, gamma, beta):
    """LayerNorm alone: the fused residual op with a zero residual."""
    return add_layer_norm(x, Tensor(np.zeros(x.shape)), gamma, beta)


class TestLayerNorm:
    def test_constant_input_yields_beta(self):
        x = Tensor(np.full(6, 3.7))
        gamma = Tensor(np.full(6, 2.0))
        beta = Tensor(np.linspace(-1, 1, 6))
        np.testing.assert_allclose(layer_norm(x, gamma, beta).data, beta.data, atol=1e-9)

    def test_plus_minus_one(self):
        # variance 1, so x_hat = x / sqrt(1 + LN_EPS)
        y = layer_norm(Tensor([1.0, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, np.array([1.0, -1.0]) / math.sqrt(1.0 + LN_EPS),
                                   rtol=1e-15)

    def test_scaled_shifted_hand_case(self):
        y = layer_norm(Tensor([2.0, 4.0]), Tensor([3.0, 3.0]), Tensor([1.0, 1.0]))
        np.testing.assert_allclose(y.data, 3.0 * np.array([-1.0, 1.0]) / math.sqrt(1.0 + LN_EPS)
                                   + 1.0, rtol=1e-15)

    def test_output_standardized(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 32)))
        ones = Tensor(np.ones(32))
        zeros = Tensor(np.zeros(32))
        y = layer_norm(x, ones, zeros).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)

    def test_residual_shapes_must_agree(self):
        with pytest.raises(ShapeError, match="residual"):
            add_layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)),
                           Tensor(np.ones(3)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("gamma, beta", [((1,), (3,)), ((3,), (1,)), ((3,), (2, 3))],
                             ids=["gamma", "beta", "beta-rank-2"])
    def test_gamma_and_beta_must_each_match_the_width(self, gamma, beta):
        # a (1,) beta would broadcast over the width, not refuse
        with pytest.raises(ShapeError, match=r"gamma/beta must have shape \(3,\)"):
            add_layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                           Tensor(np.ones(gamma)), Tensor(np.zeros(beta)))

    def test_fused_op_is_bit_equal_to_add_then_unfused_layer_norm(self):
        # the unfused formulas with np.mean / np.var, as an add op followed by a
        # LayerNorm op computed them; the fused op must not change a single bit
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=(2, 17, 8))
        gamma, beta = rng.normal(size=(2, 8))
        g = rng.normal(size=(17, 8))
        s = x + y
        inv = 1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + LN_EPS)
        xhat = (s - s.mean(axis=-1, keepdims=True)) * inv
        gxh = g * gamma
        want_gx = inv / 8 * (8 * gxh - gxh.sum(axis=-1, keepdims=True)
                             - xhat * (gxh * xhat).sum(axis=-1, keepdims=True))

        tx, ty = Tensor(x), Tensor(y)
        tg, tb = Tensor(gamma), Tensor(beta)
        grads = grad_arrays(tx, ty, tg, tb)
        with GradTape() as tape:
            out = add_layer_norm(tx, ty, tg, tb)
            loss = sum_all(mul(out, Tensor(g)))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(out.data, gamma * xhat + beta)
        np.testing.assert_array_equal(grads[tx], want_gx)
        np.testing.assert_array_equal(grads[ty], want_gx)
        np.testing.assert_array_equal(grads[tg], (g * xhat).sum(axis=0))
        np.testing.assert_array_equal(grads[tb], g.sum(axis=0))

    def test_dropout_mask_is_bit_equal_to_mul_then_add_layer_norm(self):
        # LN(x + keep * y) as a mul by the constant mask, then the unfused
        # residual LayerNorm, computed them
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=(2, 17, 8))
        gamma, beta = rng.normal(size=(2, 8))
        g = rng.normal(size=(17, 8))
        keep = rng.random((17, 8)) >= 0.3
        scale = keep / (1 - 0.3)
        s = x + y * scale
        inv = 1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + LN_EPS)
        xhat = (s - s.mean(axis=-1, keepdims=True)) * inv
        gxh = g * gamma
        want_gx = inv / 8 * (8 * gxh - gxh.sum(axis=-1, keepdims=True)
                             - xhat * (gxh * xhat).sum(axis=-1, keepdims=True))

        tx, ty = Tensor(x), Tensor(y)
        tg, tb = Tensor(gamma), Tensor(beta)
        grads = grad_arrays(tx, ty, tg, tb)
        with GradTape() as tape:
            out = add_layer_norm(tx, ty, tg, tb, keep=keep, p=0.3)
            loss = sum_all(mul(out, Tensor(g)))
        backward(tape, loss, grads)
        assert len(tape) == 3
        np.testing.assert_array_equal(out.data, gamma * xhat + beta)
        np.testing.assert_array_equal(grads[tx], want_gx)
        np.testing.assert_array_equal(grads[ty], want_gx * scale)
        np.testing.assert_array_equal(grads[tg], (g * xhat).sum(axis=0))
        np.testing.assert_array_equal(grads[tb], g.sum(axis=0))


class TestElementwise:
    def test_additive_identity(self):
        # a zero positional table adds nothing to the embedded patches
        rng = np.random.default_rng(16)
        p, w, b = (Tensor(rng.normal(size=shape)) for shape in ((6, 4), (4, 3), (3,)))
        got = embed_tokens(p, w, b, Tensor(np.zeros((3, 3)))).data
        np.testing.assert_array_equal(got, linear(p, w, b).data)

    def test_relu_definition(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])
        keep = np.array([True, True, False])
        np.testing.assert_array_equal(relu(Tensor([-1.0, 3.0, 2.0]), keep, 0.5).data, [0, 6, 0])

    def test_scale_by_inverse_sqrt(self):
        got = relu(Tensor([[2.0, 4.0]]), np.full((1, 2), 1 / math.sqrt(4))).data
        np.testing.assert_allclose(got, [[1, 2]])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError, match="mask"):
            relu(Tensor(np.zeros((2, 3))), np.ones((3, 2)))
        with pytest.raises(ShapeError, match="mask"):
            add_layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                           Tensor(np.ones(3)), Tensor(np.zeros(3)), keep=np.ones(3))
        p, w, b = Tensor(np.zeros((6, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match="columns"):
            embed_tokens(p, w, b, Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match="samples"):
            embed_tokens(p, w, b, Tensor(np.zeros((4, 3))))
        with pytest.raises(ShapeError, match="samples"):
            mean_tokens(Tensor(np.zeros((6, 3))), 4)

    def test_bias_broadcast_backward_sums_rows(self):
        # the positional table is broadcast over the samples, so its gradient
        # sums each token's rows
        x = Tensor(np.ones((3, 2)))
        w = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        pos = Tensor([[1.0, 2.0]])
        grads = grad_arrays(w, b, pos)
        with GradTape() as tape:
            loss = sum_all(embed_tokens(x, w, b, pos))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[pos], [[3.0, 3.0]])
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])


class TestFusedOpsBitEqual:
    """Each fused op against the composition of unfused ops it replaced, in
    plain numpy: output and every gradient equal to the last bit."""

    @staticmethod
    def run(op, inputs, g):
        grads = grad_arrays(*inputs)
        with GradTape() as tape:
            out = op()
            loss = sum_all(mul(out, Tensor(g)))
        backward(tape, loss, grads)
        assert len(tape) == 3
        return out.data, grads

    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "fixed"])
    def test_embed_tokens_is_linear_then_tile_rows_then_add(self, learned):
        # fixed: the sinusoidal table a model without a learned one adds
        rng = np.random.default_rng(17)
        n, t, k, d = 3, 5, 4, 6
        p, w, b = rng.normal(size=(n * t, k)), rng.normal(size=(k, d)), rng.normal(size=d)
        pos = rng.normal(size=(t, d)) if learned else sinusoidal_table(t, d)
        g = rng.normal(size=(n * t, d))
        tp, tw, tb, tpos = (Tensor(v) for v in (p, w, b, pos))
        y = p @ w
        y += b
        out, grads = self.run(lambda: embed_tokens(tp, tw, tb, tpos), (tp, tw, tb, tpos), g)
        np.testing.assert_array_equal(out, y + np.tile(pos, (n, 1)))
        np.testing.assert_array_equal(grads[tp], g @ w.T)
        np.testing.assert_array_equal(grads[tw], p.T @ g)
        np.testing.assert_array_equal(grads[tb], g.sum(axis=0))
        np.testing.assert_array_equal(grads[tpos], g.reshape(n, t, d).sum(axis=0))

    def test_mean_tokens_is_reshape_then_mean_axis1(self):
        rng = np.random.default_rng(18)
        n, t, d = 4, 7, 5
        x = rng.normal(size=(n * t, d))
        g = rng.normal(size=(n, d))
        tx = Tensor(x)
        out, grads = self.run(lambda: mean_tokens(tx, n), (tx,), g)
        np.testing.assert_array_equal(out, x.reshape(n, t, d).mean(axis=1))
        want = np.broadcast_to(g[:, None, :] / t, (n, t, d)).copy().reshape(n * t, d)
        np.testing.assert_array_equal(grads[tx], want)

    def test_relu_keep_is_relu_then_mul(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 5))
        keep = rng.random((6, 5)) >= 0.15
        scale = keep / (1 - 0.15)
        g = rng.normal(size=(6, 5))
        ta = Tensor(a)
        out, grads = self.run(lambda: relu(ta, keep, 0.15), (ta,), g)
        np.testing.assert_array_equal(out, np.maximum(a, 0.0) * scale)
        np.testing.assert_array_equal(grads[ta], g * scale * (a > 0))


class TestBackward:
    def test_power_rule(self):
        w = Tensor(np.asarray(3.0))
        grads = grad_arrays(w)
        with GradTape() as tape:
            loss = mul(w, w)
        backward(tape, loss, grads)
        assert grads[w] == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with GradTape() as tape:
            y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y, grad_arrays(x))

    def test_detached_parameter_gets_zeros(self):
        p = Tensor([1.0, 2.0])
        q = Tensor([3.0, 4.0])
        grads = grad_arrays(p, q)
        with GradTape() as tape:
            loss = sum_all(mul(q, q))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[p], [0.0, 0.0])

    def test_unmapped_tensor_gets_nothing(self):
        # a tensor holds no gradient slot (its key is a serial number, not an
        # array): what grads does not map, backward neither writes nor allocates
        assert Tensor.__slots__ == ("data", "key")
        p = Tensor([1.0, 2.0])
        assert not hasattr(p, "__dict__") and isinstance(p.key, int)
        q = Tensor([3.0, 4.0])
        before = p.data.copy()
        grads = grad_arrays(q)
        with GradTape() as tape:
            loss = sum_all(mul(p, q))
        backward(tape, loss, grads)
        assert list(grads) == [q]
        np.testing.assert_array_equal(grads[q], [1.0, 2.0])
        assert p.data.tobytes() == before.tobytes()

    def test_freed_intermediates_keep_their_gradients(self):
        # add, relu and add_layer_norm keep no input, so each round frees the
        # tensors of the round before and CPython hands their ids to the
        # tensors made next, here a weight built mid-forward: a tape keyed by
        # id() would add a freed tensor's gradient into that weight's array
        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 4))
        w_values = rng.normal(size=(6, 5, 4))
        gamma = Tensor(rng.normal(size=4))
        beta = Tensor(rng.normal(size=4))
        weight = Tensor(rng.normal(size=(5, 4)))

        def run(rule, hold):
            held, ids, ws = [], [], []
            with GradTape() as tape:
                h = Tensor(x)
                for value in w_values:
                    ws.append(Tensor(value))
                    y = add(h, ws[-1])
                    r = relu(y)
                    h = add_layer_norm(h, r, gamma, beta)
                    ids += [id(ws[-1]), id(y), id(r), id(h)]
                    if hold:
                        held += [y, r, h]
                    del y, r
                loss = sum_all(mul(h, weight))
            grads = grad_arrays(*ws, gamma, beta)
            rule(tape, loss, grads)
            return list(grads.values()), len(set(ids)) < len(ids)

        got, reused = run(backward, hold=False)
        want, held_reused = run(sum_then_add_backward, hold=True)
        assert reused and not held_reused
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.any() and a.tobytes() == b.tobytes(), i

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.asarray(3.0))
        grads = grad_arrays(w)
        with GradTape() as tape:
            loss = mul(w, w)
        backward(tape, loss, grads)
        backward(tape, loss, grads)
        assert grads[w] == pytest.approx(12.0)

    def test_shared_subexpression(self):
        # loss = (w * w) + w  =>  dloss/dw = 2w + 1
        w = Tensor(np.asarray(2.0))
        grads = grad_arrays(w)
        with GradTape() as tape:
            loss = add(mul(w, w), w)
        backward(tape, loss, grads)
        assert grads[w] == pytest.approx(5.0)

    def test_fan_in_through_one_op(self):
        # add's backward hands the same array to both inputs; accumulating into
        # it in place would report 4 here instead of 3
        x = Tensor([1.0, -2.0])
        grads = grad_arrays(x)
        with GradTape() as tape:
            loss = sum_all(add(add(x, x), x))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[x], [3.0, 3.0])

    def test_fan_in_through_two_ops(self):
        # loss = sum(2x + x*x)  =>  dloss/dx = 2 + 2x
        x = Tensor([1.5, -2.0, 0.0])
        grads = grad_arrays(x)
        with GradTape() as tape:
            loss = sum_all(add(mul(x, Tensor(2.0)), mul(x, x)))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[x], [5.0, -2.0, 2.0])

    def test_constant_inputs_get_their_gradient(self):
        # a tensor no optimizer updates is differentiable all the same: mapped,
        # it gets its gradient
        c = Tensor([1.0, 2.0])
        w = Tensor([3.0, 4.0])
        grads = grad_arrays(c, w)
        with GradTape() as tape:
            loss = sum_all(mul(c, w))
        backward(tape, loss, grads)
        np.testing.assert_array_equal(grads[c], [3.0, 4.0])
        np.testing.assert_array_equal(grads[w], [1.0, 2.0])

    def test_peak_memory_does_not_grow_with_chain_length(self):
        import tracemalloc

        array_bytes = 512 * 512 * 8

        def backward_peak(n_ops):
            x = Tensor(np.ones((512, 512)))
            one = Tensor(1.0)
            grads = grad_arrays(x)
            with GradTape() as tape:
                h = x
                for _ in range(n_ops):
                    h = mul(h, one)
                loss = sum_all(h)
            tracemalloc.start()
            try:
                backward(tape, loss, grads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(grads[x], 1.0)
            return peak

        # each adjoint is dropped once its producer has run, so backward holds
        # a few arrays at a time, not one per op in the chain
        short, long = backward_peak(4), backward_peak(32)
        assert long - short <= 2 * array_bytes, (
            f"backward peak grew from {short / array_bytes:.1f} to "
            f"{long / array_bytes:.1f} arrays of 512x512"
        )

    def test_independent_tapes_in_parallel_threads(self):
        import threading

        results = {}

        def worker(value, key):
            w = Tensor(np.asarray(value))
            grads = grad_arrays(w)
            with GradTape() as tape:
                loss = mul(w, w)
            backward(tape, loss, grads)
            results[key] = grads[w].item()

        threads = [threading.Thread(target=worker, args=(v, k))
                   for k, v in (("a", 3.0), ("b", 5.0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {"a": 6.0, "b": 10.0}


class TestStructuralOps:
    def test_mean_rows(self):
        # mean over each sample's token rows
        x = Tensor([[1.0, 3.0], [5.0, 7.0]])
        np.testing.assert_array_equal(mean_tokens(x, 1).data, [[3.0, 5.0]])


class TestGradCheck:
    def test_square_function(self):
        w = Tensor(np.asarray(3.0))
        report = grad_check(lambda: mul(w, w), [w])
        assert report.passed
        assert report.analytic == pytest.approx(6.0, abs=1e-6)
        assert report.numeric == pytest.approx(6.0, abs=1e-6)

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 3)))
        w1 = Tensor(rng.normal(size=(3, 5)))
        b1 = Tensor(rng.normal(size=5))
        w2 = Tensor(rng.normal(size=(5, 2)))
        b2 = Tensor(rng.normal(size=2))
        c = Tensor(rng.normal(size=(4, 2)))

        def f():
            h = relu(linear(x, w1, b1))
            y = linear(h, w2, b2)
            return sum_all(mul(y, c))

        report = grad_check(f, [w1, b1, w2, b2])
        assert report.passed, report.summary()

    def test_nondeterministic_target_flagged(self):
        w = Tensor(np.asarray(1.0))
        state = {"n": 0}

        def f():
            state["n"] += 1
            return mul(mul(w, w), Tensor(float(state["n"])))

        with pytest.raises(ValueError, match="gradient check target is not deterministic"):
            grad_check(f, [w])

    def test_detects_corrupted_gradient(self):
        w = Tensor(np.asarray(2.0))

        def f():
            # scale op whose backward lies by a factor of 2
            from beatformer.tensor import record_op

            out = Tensor(w.data * 3.0)
            record_op(out, (w,), lambda g: (g * 6.0,))
            return out

        report = grad_check(f, [w])
        assert not report.passed


@pytest.mark.parametrize("op_name", ["matmul", "relu", "relu_keep", "scale", "layer_norm",
                                     "add_layer_norm", "add_layer_norm_keep", "embed_tokens",
                                     "embed_tokens_fixed_table", "mean_tokens", "mean_axis1",
                                     "reshape", "linear", "attention", "attention_one_head"])
def test_every_op_matches_finite_differences(op_name):
    # a stable seed per case (str hashes are salted per process), so a failure replays
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))

    def t(shape):
        return Tensor(rng.normal(size=shape))

    if op_name == "matmul":  # linear's product alone, with a constant zero bias
        a, b = t((3, 4)), t((4, 2))
        weight = Tensor(rng.normal(size=(3, 2)))
        f = lambda: sum_all(mul(product(a, b), weight))
        params = [a, b]
    elif op_name in ("relu", "relu_keep"):
        a = t((3, 4))
        keep = rng.random((3, 4)) >= 0.3 if op_name == "relu_keep" else None
        weight = Tensor(rng.normal(size=(3, 4)))
        f = lambda: sum_all(mul(relu(a, keep, 0.3), weight))
        params = [a]
    elif op_name == "scale":  # mul by a constant scalar
        a = t((3, 4))
        weight = Tensor(rng.normal(size=(3, 4)))
        f = lambda: sum_all(mul(mul(a, Tensor(0.37)), weight))
        params = [a]
    elif op_name == "layer_norm":  # the fused op with a constant zero residual
        a, g, b = t((3, 6)), t((6,)), t((6,))
        weight = Tensor(rng.normal(size=(3, 6)))
        f = lambda: sum_all(mul(layer_norm(a, g, b), weight))
        params = [a, g, b]
    elif op_name in ("add_layer_norm", "add_layer_norm_keep"):
        a, r, g, b = t((3, 6)), t((3, 6)), t((6,)), t((6,))
        keep = rng.random((3, 6)) >= 0.3 if op_name == "add_layer_norm_keep" else None
        weight = Tensor(rng.normal(size=(3, 6)))
        f = lambda: sum_all(mul(add_layer_norm(a, r, g, b, keep=keep, p=0.3), weight))
        params = [a, r, g, b]
    elif op_name in ("embed_tokens", "embed_tokens_fixed_table"):  # 3 samples of 2 tokens
        p, w, b = t((6, 4)), t((4, 3)), t((3,))
        pos = Tensor(rng.normal(size=(2, 3)))
        weight = Tensor(rng.normal(size=(6, 3)))
        f = lambda: sum_all(mul(embed_tokens(p, w, b, pos), weight))
        params = [p, w, b] + ([pos] if op_name == "embed_tokens" else [])
    elif op_name in ("mean_tokens", "mean_axis1", "reshape"):
        # mean_tokens pools (b * t, d) rows by viewing them as (b, t, d) and
        # averaging axis 1. mean_tokens: 2 samples of 4 tokens; mean_axis1: the
        # token-axis mean alone, one sample of 5 tokens; reshape: the split of
        # rows into samples, 4 samples of 2 tokens, where each sample's gradient
        # must land on its own rows
        b, t_len, d = {"mean_tokens": (2, 4, 3), "mean_axis1": (1, 5, 3),
                       "reshape": (4, 2, 2)}[op_name]
        a = t((b * t_len, d))
        weight = Tensor(rng.normal(size=(b, d)))
        f = lambda: sum_all(mul(mean_tokens(a, b), weight))
        params = [a]
    elif op_name == "linear":
        x, w, b = t((5, 4)), t((4, 3)), t((3,))
        weight = Tensor(rng.normal(size=(5, 3)))
        f = lambda: sum_all(mul(linear(x, w, b), weight))
        params = [x, w, b]
    elif op_name == "attention":  # 2 samples of 5 tokens, 2 heads of size 3
        qkv = t((2 * 5, 3 * 2 * 3))
        weight = Tensor(rng.normal(size=(2 * 5, 2 * 3)))
        f = lambda: sum_all(mul(attention(qkv, 2, 5, 2, 3), weight))
        params = [qkv]
    else:  # attention_one_head: one sample, one head
        qkv = t((5, 3 * 4))
        weight = Tensor(rng.normal(size=(5, 4)))
        f = lambda: sum_all(mul(attention(qkv, 1, 5, 1, 4), weight))
        params = [qkv]

    report = grad_check(f, params)
    assert report.passed, report.summary()


# the autodiff engine itself; every other name ``tensor`` exports is an op
ENGINE_API = {"Tensor", "GradTape", "backward", "record_op", "grad_check", "GradCheckReport"}


def test_every_exported_op_is_called_by_the_model():
    """No op outlives its last caller: each one is called from model or train."""
    called = set()
    for module in ("model.py", "train.py"):
        tree = ast.parse((Path(tensor_mod.__file__).parent / module).read_text(encoding="utf-8"))
        # local name -> tensor name, for every ``from .tensor import ...``
        imported = {alias.asname or alias.name: alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "tensor"
                    for alias in node.names}
        called |= {imported[node.func.id] for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in imported}
    ops = set(tensor_mod.__all__) - ENGINE_API
    assert ops, "tensor exports no ops"
    assert not ops - called, f"ops with no caller in model or train: {sorted(ops - called)}"


def _referenced_names(tree: ast.Module) -> set:
    """Every ``Name`` and ``Attribute`` a module uses, except inside the
    top-level definition of that same name (a function naming itself)."""
    refs = set()
    for top in tree.body:
        own = {top.name} if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else set()
        refs |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, (ast.Name, ast.Attribute))} - own
    return refs


@pytest.mark.parametrize("module", ["train", "data", "metrics", "model", "tensor"])
def test_every_public_name_is_reached_from_the_package(module):
    """Each name in ``__all__`` is used by a ``src`` module other than
    ``__init__.py``, or by its own module outside its definition."""
    package = Path(tensor_mod.__file__).parent
    refs = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            refs |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    exported = set(importlib.import_module(f"beatformer.{module}").__all__)
    assert not exported - refs, f"{module} exports names nothing uses: {sorted(exported - refs)}"


class _Scoped(ast.NodeVisitor):
    """Walks one module keeping the ``module.function`` scope of each node;
    subclasses add the scopes of what they look for to ``found``."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_scope


def _found_in_src(finder: type) -> list:
    """The scopes that ``finder`` reports over every module of ``src``."""
    found = []
    for path in sorted(Path(tensor_mod.__file__).parent.glob("*.py")):
        visitor = finder(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


class _UnseededGenerators(_Scoped):
    """Collects ``module.function`` for each ``default_rng()`` call with no
    seed (or a ``None`` seed) in one module."""

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        seeds = node.args + [k.value for k in node.keywords]
        if name == "default_rng" and all(
                isinstance(a, ast.Constant) and a.value is None for a in seeds):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_no_src_function_draws_from_an_unseeded_generator():
    """Every generator in ``src`` is seeded: a training step's dropout masks
    come from the seeded generator ``draw_masks`` is given, never from a fresh
    OS-seeded one."""
    found = _found_in_src(_UnseededGenerators)
    assert not found, f"unseeded np.random.default_rng() in {sorted(found)}"


class _RandomDraws(_Scoped):
    """Collects ``module.function`` for each ``<generator>.random(...)`` call
    in one module."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "random":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_draw_masks_draws_dropout_masks():
    """``model.draw_masks`` is the only ``.random(`` call in ``src``, so every
    mask of a step is drawn, named and ordered in one place and no op of the
    forward draws its own."""
    assert _found_in_src(_RandomDraws) == ["model.draw_masks"]


def test_no_cli_command_catches_an_error():
    """Only ``cli.main`` maps errors to exit codes: no ``cmd_*`` function holds
    a ``try``, so every command raises and none picks its own exit code."""
    tree = ast.parse((Path(tensor_mod.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 4
    catching = [node.name for node in commands
                if any(isinstance(inner, (ast.Try, getattr(ast, "TryStar", ast.Try)))
                       for inner in ast.walk(node))]
    assert not catching, f"commands that catch errors: {catching}"


def _package_imports(module: str) -> set:
    """The package modules that ``module``'s source imports, by name."""
    tree = ast.parse((Path(tensor_mod.__file__).parent / f"{module}.py").read_text(
        encoding="utf-8"))
    full = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("beatformer" + (f".{node.module}" if node.module else "") if node.level
                    else node.module)
            full += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in full if name.startswith("beatformer.")}


def test_the_settings_stay_in_config():
    """``config`` stands on ``errors`` alone, ``data`` needs no ``model``, and
    ``cli`` defines no settings class and no ``SCHEMA``, so the settings and
    their text form cannot spread back out of ``config``."""
    assert _package_imports("config") <= {"errors"}
    assert "model" not in _package_imports("data")
    tree = ast.parse((Path(tensor_mod.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assigned = {target.id for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)}
    assert "SCHEMA" not in assigned


def test_training_writes_no_file():
    """``train`` hands out checkpoints and their bytes and never imports the
    writer, so only ``cli`` lands a training file, in its epoch's set."""
    assert "output" not in _package_imports("train")


# calls that create, replace or write a file; ``open`` counts in a write mode
WRITE_CALLS = {("os", "replace"), ("os", "rename"), ("os", "open"), ("os", "fdopen"),
               ("tempfile", "mkstemp"), ("tempfile", "NamedTemporaryFile"),
               ("tempfile", "TemporaryFile"), ("shutil", "copyfile"), ("shutil", "move")}


class _FileWrites(_Scoped):
    """Collects ``module.function`` for each call in one module that writes a
    file, and each import that would hide such a call from the check."""

    def visit_ImportFrom(self, node):
        if any((node.module, alias.name) in WRITE_CALLS for alias in node.names):
            self.found.append(".".join(self.scope))

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            writes = ((owner, func.attr) in WRITE_CALLS
                      or func.attr in ("write_text", "write_bytes"))
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = (node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"])
            writes = bool(mode) and not (isinstance(mode[0], ast.Constant)
                                         and not set("wax+") & set(str(mode[0].value)))
        else:
            writes = False
        if writes:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_every_file_is_written_by_the_one_writer():
    """Only ``output.write_files`` creates, writes or renames a file, so every
    output lands whole, by rename, and a new output cannot add a second path."""
    found = _found_in_src(_FileWrites)
    assert "output.write_files" in found
    assert set(found) == {"output.write_files"}, sorted(found)


# what starts a thread or a worker process; ``threading.local`` starts none
THREAD_STARTERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "start_new_thread",
                   "Pool", "Process"}


class _Concurrency(_Scoped):
    """Collects ``("thread", scope)`` for each call of a thread or worker
    starter and ``("fork", scope)`` for each ``fork`` call, in one module;
    an import of either by name counts too, since it would hide the call."""

    def _found(self, name):
        if name in THREAD_STARTERS:
            self.found.append(("thread", ".".join(self.scope)))
        elif name in ("fork", "forkpty"):
            self.found.append(("fork", ".".join(self.scope)))

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._found(alias.name)

    def visit_Call(self, node):
        func = node.func
        self._found(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        self.generic_visit(node)


def test_only_infer_forks_and_nothing_starts_a_thread():
    """``src`` starts no thread, and only ``train.infer`` forks: the benchmark's
    tracer keeps one span stack per process, so spans of two threads would
    interleave and fail a traced run ("closed out of order"). See ROADMAP
    item 2's note on the bench's single span stack before adding either."""
    found = _found_in_src(_Concurrency)
    assert [scope for kind, scope in found if kind == "thread"] == [], (
        "src starts a thread; see ROADMAP item 2 on the bench's single span stack")
    assert [scope for kind, scope in found if kind == "fork"] == ["train.infer"], (
        "only train.infer may fork; see ROADMAP item 2 on the bench's single span stack")


def test_each_name_has_one_home():
    """The package root holds nothing but its docstring, so every name is
    imported from the one module that defines it; and each entry of a
    module's ``__all__`` is defined there, so a deleted name leaves no
    export behind."""
    src = Path(tensor_mod.__file__).parent
    root = ast.parse((src / "__init__.py").read_text(encoding="utf-8")).body
    assert len(root) == 1 and isinstance(root[0], ast.Expr)
    assert isinstance(root[0].value, ast.Constant) and isinstance(root[0].value.value, str)
    exported = {}
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        defined |= {target.id for node in body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    if isinstance(target, ast.Name)}
        for node in body:
            if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None)
                                                              for t in node.targets]:
                names = ast.literal_eval(node.value)
                exported[path.stem] = [name for name in names if name not in defined]
    assert {"model", "tensor", "train"} <= set(exported)
    assert not any(exported.values()), {m: bad for m, bad in exported.items() if bad}


# a default that only tests override: main's argv is the console script's None
DEFAULT_ONLY_FOR_CALLERS_OUTSIDE = {("cli", "main", "argv")}


def test_every_parameter_default_is_overridden_by_the_package():
    """Each parameter with a default, of every ``def`` in ``src``, is passed
    by some call in ``src``, positionally or by keyword: a value that only
    tests set is a constant, not a parameter. A call to a class counts as a
    call to its ``__init__``; calls match their function by name."""
    package = Path(tensor_mod.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    passed = {}  # called name -> (most positional args, keywords); None for */**
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n_args, keywords = passed.get(name, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in call.args)
            n_args = math.inf if star else max(n_args, len(call.args))
            keywords = keywords | {k.arg for k in call.keywords}
            passed[name] = n_args, keywords
    unpassed = []
    for module, tree in trees.items():
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            # a method's positional slots start after self; __init__ is called by class name
            offset = int(id(fn) in methods and "staticmethod" not in
                         {getattr(d, "id", None) for d in fn.decorator_list})
            name = methods[id(fn)] if fn.name == "__init__" else fn.name
            n_args, keywords = passed.get(name, (0, set()))
            if None in keywords:  # a ** call passes any keyword
                n_args = math.inf
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(math.inf, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                            fn.args.kw_defaults) if d]
            for i, arg in defaulted:
                if i - offset >= n_args and arg not in keywords \
                        and (module, fn.name, arg) not in DEFAULT_ONLY_FOR_CALLERS_OUTSIDE:
                    unpassed.append(f"{module}.{fn.name}({arg})")
    assert not unpassed, f"defaults that no package call overrides: {unpassed}"

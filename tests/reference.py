"""Plain-numpy references, independent of the tape and fused ops.

:func:`reference_forward` runs one sample at a time and, inside each encoder
block, one head at a time (:func:`reference_attention`), taking every head's
query, key and value matrices as column slices of the packed ``w_qkv``. Tests
compare :func:`beatformer.model.forward` with it.

:func:`per_tensor_adam_step` is the Adam update applied one parameter tensor
at a time. Tests hold the flat :class:`beatformer.train.Adam` to it bit for
bit.

:func:`sum_then_add_backward` is the reverse pass's earlier accumulation rule:
it sums every contribution to a tensor first and adds the sum into its array
at the end. Tests hold :func:`beatformer.tensor.backward`, which adds each
contribution as it comes, to it bit for bit on a zeroed buffer.

:func:`query_major_attention` is the attention op's earlier formulation, with
each query's scores in one contiguous row. Tests hold the key-major
:func:`beatformer.tensor.attention` to it bit for bit.
"""

import math

import numpy as np

from beatformer.tensor import LN_EPS


def layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + LN_EPS) + beta


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_attention(x, w, heads, d_head):
    """Multi-head self-attention over the (t, d) rows of one sample, head by head.

    ``w(name)`` returns one block's weight array by its name within the block,
    such as ``"attn.w_qkv"``.
    """
    w_qkv, b_qkv = w("attn.w_qkv"), w("attn.b_qkv")
    outputs = []
    for h in range(heads):
        # columns are ordered q|k|v, then head, then position in the head
        q, k, v = (
            x @ w_qkv[:, cols] + b_qkv[cols]
            for cols in (slice((j * heads + h) * d_head, (j * heads + h + 1) * d_head)
                         for j in range(3))
        )
        outputs.append(_softmax_rows(q @ k.T / np.sqrt(d_head)) @ v)
    return np.hstack(outputs) @ w("attn.w_o") + w("attn.b_o")


def sinusoidal_positions(t_max, d):
    """The fixed positional table from its formula, entry by entry:
    sin(t / 10000^(j/d)) in even column j, cos(t / 10000^((j-1)/d)) in odd j."""
    return np.array([[math.sin(t / 10000 ** (j / d)) if j % 2 == 0
                      else math.cos(t / 10000 ** ((j - 1) / d)) for j in range(d)]
                     for t in range(t_max)])


def reference_forward(model, features) -> np.ndarray:
    """Eval-mode (B, n_classes) logits, sample by sample and head by head. A
    sinusoidal model's table comes from :func:`sinusoidal_positions`."""
    cfg = model.config
    p = {name: t.data for name, t in model.tensors.items()}
    pos = (p["pos.table"] if cfg.positional == "learned"
           else sinusoidal_positions(cfg.n_tokens, cfg.d_model))
    logits = []
    for signal in np.atleast_2d(np.asarray(features, dtype=np.float64)):
        padded = np.zeros(cfg.n_tokens * cfg.patch_len)
        padded[: cfg.input_len] = signal
        patches = padded.reshape(cfg.n_tokens, cfg.patch_len)
        x = patches @ p["embed.w"] + p["embed.b"]
        x = x + pos
        for i in range(cfg.encoder_layers):
            w = lambda name, i=i: p[f"block{i}.{name}"]
            a = layer_norm(x + reference_attention(x, w, cfg.heads, cfg.d_head),
                            w("ln1.gamma"), w("ln1.beta"))
            hidden = np.maximum(a @ w("ffn.w1") + w("ffn.b1"), 0.0)
            x = layer_norm(a + hidden @ w("ffn.w2") + w("ffn.b2"),
                            w("ln2.gamma"), w("ln2.beta"))
        h = x.mean(axis=0)
        for j in range(len(cfg.mlp_units)):
            h = np.maximum(h @ p[f"head.dense{j}.w"] + p[f"head.dense{j}.b"], 0.0)
        logits.append(h @ p["head.out.w"] + p["head.out.b"])
    return np.array(logits)


def per_tensor_adam_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    """Adam step ``t`` (counted from 1) on parallel lists of arrays, in place.

    ``m`` and ``v`` hold one moment array per parameter array.
    """
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * g * g
        p -= lr * (m_i / c1) / (np.sqrt(v_i / c2) + eps)


def query_major_attention(qkv, b, t, heads, d_head, g):
    """Output and input gradient of attention for packed ``qkv`` and output gradient ``g``.

    The (b, heads, query, key) weights come from a row-wise softmax over the
    contiguous last axis.
    """
    s = 1.0 / math.sqrt(d_head)
    q, k, v = qkv.reshape(b, t, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    weights = np.matmul(q, k.swapaxes(-1, -2))
    weights *= s
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = np.empty((b, t, heads, d_head))
    np.matmul(weights, v, out=out.transpose(0, 2, 1, 3))

    g_out = g.reshape(b, t, heads, d_head).transpose(0, 2, 1, 3)
    grad = np.empty((b, t, 3, heads, d_head))
    gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
    np.matmul(weights.swapaxes(-1, -2), g_out, out=gv)
    g_scores = np.matmul(g_out, v.swapaxes(-1, -2))
    g_scores -= np.einsum("...ij,...ij->...i", g_scores, weights)[..., None]
    g_scores *= weights
    g_scores *= s
    np.matmul(g_scores, k, out=gq)
    np.matmul(g_scores.swapaxes(-1, -2), q, out=gk)
    return out.reshape(b * t, heads * d_head), grad.reshape(b * t, 3 * heads * d_head)


def sum_then_add_backward(tape, loss, grads):
    """Reverse pass that adds each mapped tensor's summed adjoint into ``grads`` last.

    Every adjoint is kept until the replay ends, then the adjoint of each
    tensor that no recorded op produced is added into its array in ``grads``.
    Records name tensors by ``Tensor.key``; an input that needs no gradient
    has the key None.
    """
    adjoints = {loss.key: np.ones_like(loss.data)}
    produced = {rec.out for rec in tape._records}
    for rec in reversed(tape._records):
        out_adj = adjoints.pop(rec.out, None)
        if out_adj is None:
            continue
        for key, g in zip(rec.inputs, rec.backward_fn(out_adj)):
            if g is None or key is None:
                continue
            adjoints[key] = adjoints[key] + g if key in adjoints else g
    leaves = {t.key: arr for t, arr in grads.items()}
    for key, adj in adjoints.items():
        if key not in produced and key in leaves:
            leaves[key] += adj

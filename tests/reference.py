"""Plain-numpy references, independent of the tape and fused ops.

:func:`reference_forward` runs one sample at a time and, inside each encoder
block, one head at a time, taking every head's query, key and value matrices
as column slices of the packed ``w_qkv``. Tests compare
:func:`beatformer.model.forward` with it.

:func:`query_major_attention` is the attention op's earlier formulation, with
each query's scores in one contiguous row. Tests hold the key-major
:func:`beatformer.tensor.attention` to it bit for bit.
"""

import math

import numpy as np

from beatformer.layers import LN_EPS


def _layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + LN_EPS) + beta


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _attention(x, attn):
    heads, d_head = attn.heads, attn.d_head
    w_qkv, b_qkv = attn.w_qkv.data, attn.b_qkv.data
    outputs = []
    for h in range(heads):
        # columns are ordered q|k|v, then head, then position in the head
        q, k, v = (
            x @ w_qkv[:, cols] + b_qkv[cols]
            for cols in (slice((j * heads + h) * d_head, (j * heads + h + 1) * d_head)
                         for j in range(3))
        )
        outputs.append(_softmax_rows(q @ k.T / np.sqrt(d_head)) @ v)
    return np.hstack(outputs) @ attn.w_o.data + attn.b_o.data


def reference_forward(model, features) -> np.ndarray:
    """Eval-mode (B, n_classes) logits, sample by sample and head by head."""
    cfg = model.config
    logits = []
    for signal in np.atleast_2d(np.asarray(features, dtype=np.float64)):
        padded = np.zeros(cfg.n_tokens * cfg.patch_len)
        padded[: cfg.input_len] = signal
        patches = padded.reshape(cfg.n_tokens, cfg.patch_len)
        x = patches @ model.embed_w.data + model.embed_b.data
        x = x + model.pos_table.data[: cfg.n_tokens]
        for block in model.blocks:
            a = _layer_norm(x + _attention(x, block.attn),
                            block.ln1_gamma.data, block.ln1_beta.data)
            hidden = np.maximum(a @ block.w1.data + block.b1.data, 0.0)
            x = _layer_norm(a + hidden @ block.w2.data + block.b2.data,
                            block.ln2_gamma.data, block.ln2_beta.data)
        h = x.mean(axis=0)
        for w, b in model.head.hidden:
            h = np.maximum(h @ w.data + b.data, 0.0)
        logits.append(h @ model.head.out_w.data + model.head.out_b.data)
    return np.array(logits)


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

"""Plain-numpy reference forward pass, independent of the tape and fused ops.

It runs one sample at a time and, inside each encoder block, one head at a
time, taking every head's query, key and value matrices as column slices of
the packed ``w_qkv``. Tests compare :func:`beatformer.model.forward` with it.
"""

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

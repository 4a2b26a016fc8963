"""Neural building blocks: patch embedding, attention, FFN, encoder block.

All functions are pure graph builders over :mod:`beatformer.tensor` ops over
parameter containers. Those that apply dropout take a generator for its masks:
with one they are a training forward, without one (the default) they are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, add_layer_norm, attention, embed_tokens, linear, relu

LN_EPS = 1e-6

__all__ = [
    "LN_EPS",
    "AttentionParams",
    "EncoderBlockParams",
    "HeadParams",
    "dropout_mask",
    "patch_embed",
    "sinusoidal_table",
    "multi_head_attention",
    "feed_forward",
    "encoder_block",
]


@dataclass
class AttentionParams:
    """Packed query/key/value projection plus the output projection.

    The columns of ``w_qkv`` and ``b_qkv`` are ordered q|k|v, then head, then
    position within the head: head i's query matrix is
    ``w_qkv[:, i * d_head:(i + 1) * d_head]`` and its key matrix starts
    ``heads * d_head`` columns later.
    """

    w_qkv: Tensor  # (d_model, 3 * heads * d_head)
    b_qkv: Tensor  # (3 * heads * d_head,)
    w_o: Tensor  # (heads * d_head, d_model)
    b_o: Tensor  # (d_model,)
    heads: int

    def __post_init__(self):
        width = self.w_qkv.shape[1]
        if self.heads < 1 or width % (3 * self.heads):
            raise ConfigError(
                f"packed projection width {width} is not 3 * heads * head size "
                f"for {self.heads} heads"
            )
        if self.b_qkv.shape != (width,):
            raise ConfigError(f"packed bias must have shape ({width},), got {self.b_qkv.shape}")
        if self.w_o.shape[0] != width // 3:
            raise ConfigError(
                f"output projection expects {width // 3} input columns "
                f"(heads * head size), got {self.w_o.shape[0]}"
            )

    @property
    def d_head(self) -> int:
        return self.w_qkv.shape[1] // (3 * self.heads)

    def tensors(self):
        yield "w_qkv", self.w_qkv
        yield "b_qkv", self.b_qkv
        yield "w_o", self.w_o
        yield "b_o", self.b_o


@dataclass
class EncoderBlockParams:
    """One encoder block: attention, position-wise FFN, two LayerNorm pairs."""

    attn: AttentionParams
    w1: Tensor  # (d_model, d_ff)
    b1: Tensor
    w2: Tensor  # (d_ff, d_model)
    b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor

    def __post_init__(self):
        d_model = self.w1.shape[0]
        if self.w2.shape[1] != d_model:
            raise ConfigError(
                f"FFN must map back to width {d_model} for the residual sum, "
                f"got output width {self.w2.shape[1]}"
            )

    def tensors(self):
        for name, t in self.attn.tensors():
            yield f"attn.{name}", t
        yield "ffn.w1", self.w1
        yield "ffn.b1", self.b1
        yield "ffn.w2", self.w2
        yield "ffn.b2", self.b2
        yield "ln1.gamma", self.ln1_gamma
        yield "ln1.beta", self.ln1_beta
        yield "ln2.gamma", self.ln2_gamma
        yield "ln2.beta", self.ln2_beta


@dataclass
class HeadParams:
    """Classification head: dense ReLU stack on the pooled token mean."""

    hidden: list[tuple[Tensor, Tensor]] = field(default_factory=list)  # (w, b) pairs
    out_w: Tensor = None
    out_b: Tensor = None

    def tensors(self):
        for i, (w, b) in enumerate(self.hidden):
            yield f"dense{i}.w", w
            yield f"dense{i}.b", b
        yield "out.w", self.out_w
        yield "out.b", self.out_b


def dropout_mask(shape: tuple, p: float,
                 rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout mask: keep with prob 1-p, kept entries scaled by 1/(1-p).

    ``None`` (no dropout) when there is no generator or p is 0; no draw is
    made then.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def patch_embed(signal, patch_len: int, w: Tensor, b: Tensor, pos: Tensor) -> Tensor:
    """Split signals into contiguous patches and embed each, with its position.

    ``signal`` is one rank-1 signal or a rank-2 batch of them. Each is
    right-padded with zeros to a multiple of ``patch_len``; token t is
    patch_t @ w + b + pos[t], giving ceil(L / patch_len) token rows per signal,
    stacked sample after sample.
    """
    sig = signal.data if isinstance(signal, Tensor) else np.asarray(signal, dtype=np.float64)
    if sig.ndim not in (1, 2):
        raise ShapeError(
            f"patch_embed expects a rank-1 signal or a rank-2 batch, got shape {sig.shape}"
        )
    rows = sig.reshape(-1, sig.shape[-1])
    length = rows.shape[1]
    if patch_len <= 0 or patch_len > length:
        raise ConfigError(f"patch_len must lie in [1, {length}], got {patch_len}")
    if patch_len != w.shape[0]:
        raise ShapeError(f"embedding matrix expects patches of {w.shape[0]}, got {patch_len}")
    n_tokens = -(-length // patch_len)
    if pos.shape[0] != n_tokens:
        raise ShapeError(f"positional table has {pos.shape[0]} rows for {n_tokens} tokens")
    padded = np.zeros((rows.shape[0], n_tokens * patch_len))
    padded[:, :length] = rows
    return embed_tokens(Tensor(padded.reshape(-1, patch_len)), w, b, pos)


def sinusoidal_table(t_max: int, d_model: int) -> np.ndarray:
    """Classic fixed sin/cos positional table, an ablation alternative."""
    table = np.zeros((t_max, d_model))
    position = np.arange(t_max)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d_model, 2) * -(math.log(10000.0) / d_model))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: d_model // 2])
    return table


def multi_head_attention(x: Tensor, params: AttentionParams, batch: int = 1) -> Tensor:
    """Self-attention over the token rows of ``x`` with h parallel heads.

    ``x`` stacks the tokens of ``batch`` samples, (batch * t, d_model); tokens
    attend only within their own sample. One packed projection gives every
    head's queries, keys and values, and the heads' outputs are projected back
    to d_model.
    """
    if x.shape[0] % batch:
        raise ShapeError(f"{x.shape[0]} token rows do not split into {batch} samples")
    qkv = linear(x, params.w_qkv, params.b_qkv)
    heads = attention(qkv, batch, x.shape[0] // batch, params.heads, params.d_head)
    return linear(heads, params.w_o, params.b_o)


def feed_forward(x: Tensor, params: EncoderBlockParams) -> Tensor:
    """Position-wise FFN: relu(x w1 + b1) w2 + b2, identical at every token."""
    return linear(relu(linear(x, params.w1, params.b1)), params.w2, params.b2)


def encoder_block(
    x: Tensor,
    params: EncoderBlockParams,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    batch: int = 1,
) -> Tensor:
    """Post-norm encoder block: LN(x + MHA(x)) then LN(a + FFN(a)).

    ``x`` stacks the tokens of ``batch`` samples, as in
    :func:`multi_head_attention`. Each residual step is one
    :func:`~beatformer.tensor.add_layer_norm`; with a generator, dropout
    hits each sublayer output inside it, LN(x + Dropout(sublayer(x))).
    """
    attn_out = multi_head_attention(x, params.attn, batch)
    keep = dropout_mask(attn_out.shape, dropout_p, rng)
    a = add_layer_norm(x, attn_out, params.ln1_gamma, params.ln1_beta, LN_EPS, keep)
    ffn_out = feed_forward(a, params)
    keep = dropout_mask(ffn_out.shape, dropout_p, rng)
    return add_layer_norm(a, ffn_out, params.ln2_gamma, params.ln2_beta, LN_EPS, keep)

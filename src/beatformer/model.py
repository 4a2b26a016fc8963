"""Model assembly: the parameter table and its flat buffer, seeded
initialization, the encoder block and the batch forward."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .tensor import Tensor, add_layer_norm, attention, embed_tokens, linear, mean_tokens, relu

logger = logging.getLogger(__name__)

# Published parameter count of the reference variant this default config
# approximates. The reference under-specifies model width, pooling and the
# positional scheme, so the count is reported with a delta, never asserted.
REFERENCE_PARAM_COUNT = 36_301

__all__ = [
    "Model",
    "tiny_config",
    "build_model",
    "forward",
    "parameter_breakdown",
    "format_param_report",
    "REFERENCE_PARAM_COUNT",
    "draw_masks",
    "sinusoidal_table",
    "weight_views",
]


def tiny_config(input_len: int = 187, **overrides) -> ModelConfig:
    """Small verification variant used by gradient checks and overfit tests."""
    cfg = ModelConfig(
        input_len=input_len,
        patch_len=11,
        d_model=8,
        d_head=4,
        heads=2,
        encoder_layers=2,
        d_ff=16,
        mlp_units=(16,),
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class Model:
    """A config and its weights: one table of named tensors in checkpoint order.

    Every tensor is a trainable weight whose ``data`` is a view into
    ``flat_data``, laid out in table order, so an optimizer updates every
    weight with whole-buffer ops. The model holds no gradients; training
    places them with :meth:`views`.
    """

    config: ModelConfig
    tensors: dict[str, Tensor]
    flat_data: np.ndarray

    def views(self, flat: np.ndarray) -> dict[Tensor, np.ndarray]:
        """Each tensor mapped to its reshaped slice of ``flat``, a buffer laid
        out like ``flat_data`` (see :func:`weight_views`): the weights are
        these views of ``flat_data``, and a training step's ``grads`` for
        ``backward`` are these views of one gradient buffer."""
        return dict(zip(self.tensors.values(), weight_views(self.config, flat).values()))


def weight_views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each weight's name mapped to its view of ``flat``, a float64 buffer of
    shape ``(config.n_params(),)`` laid out in the order of
    :meth:`~beatformer.config.ModelConfig.param_shapes`. Any other buffer
    raises ``ShapeError``: none is broadcast or cast."""
    n = config.n_params()
    if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (n,):
        raise ShapeError(f"the weights of this config are a float64 buffer of shape ({n},), "
                         f"got {getattr(flat, 'dtype', type(flat).__name__)} of shape "
                         f"{np.shape(flat)}")
    views, offset = {}, 0
    for name, shape in config.param_shapes():
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def _mask_shapes(cfg: ModelConfig, b: int) -> list[tuple[str, tuple[int, int]]]:
    """``(name, shape)`` of each dropout mask of a ``b``-sample step, in draw order."""
    tokens = (b * cfg.n_tokens, cfg.d_model)
    shapes = [(f"block{i}.{norm}", tokens)
              for i in range(cfg.encoder_layers) for norm in ("ln1", "ln2")]
    return shapes + [(f"head.dense{j}", (b, units)) for j, units in enumerate(cfg.mlp_units)]


def draw_masks(cfg: ModelConfig, b: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A training step's dropout keep-masks for ``b`` samples, keyed by the
    layer they hit and drawn from ``rng`` in this order: per block
    ``block<i>.ln1`` then ``block<i>.ln2``, each ``(b * n_tokens, d_model)``;
    then ``head.dense<j>``, each ``(b, units)``. At p = 0: none, no draw.

    Each is True (keep) with probability 1 - p, one byte per entry; ``relu``
    and ``add_layer_norm`` scale kept entries by 1/(1-p). Token rows are
    stacked sample after sample, so the masks of samples ``[s, e)`` are rows
    ``[s*t, e*t)`` of each block mask and rows ``[s, e)`` of each head mask.
    :func:`forward` refuses a missing, unknown or misshapen mask, but one drawn
    at another rate cannot be told from a bool array: it is scaled by the
    model's p.
    """
    if cfg.dropout == 0.0:
        return {}
    return {name: rng.random(shape) >= cfg.dropout for name, shape in _mask_shapes(cfg, b)}


def sinusoidal_table(t_max: int, d_model: int) -> np.ndarray:
    """Classic fixed sin/cos positional table, an ablation alternative."""
    table = np.zeros((t_max, d_model))
    position = np.arange(t_max)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d_model, 2) * -(math.log(10000.0) / d_model))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: d_model // 2])
    return table


def build_model(config: ModelConfig, weights: np.ndarray | None = None) -> Model:
    """The model of ``config``: one tensor per entry of
    :meth:`~beatformer.config.ModelConfig.param_shapes`, each a view of
    ``flat_data`` in table order (see :func:`weight_views`). Logs the total
    parameter count and its delta from the reference variant's count.

    With ``weights``, a flat buffer in that layout (a checkpoint's), the
    model holds a bit-exact copy of it and nothing is drawn: no generator is
    made. A buffer of another dtype or shape raises ``ShapeError``. Without,
    the weights are drawn from the config's seed, deterministic per seed, in
    table order: each rank-2 weight but the positional table is uniform in
    +/- sqrt(6 / (fan_in + fan_out)), the packed q/k/v projection drawn as
    ``3 * heads`` column blocks of ``d_head`` (q heads, then k, then v); layer
    norm gains start at one; biases and a learned positional table at zero.
    """
    violations = config.validate()
    if violations:
        raise ConfigError(violations)
    # a copy keeps the dtype and shape that weight_views checks
    flat_data = np.zeros(config.n_params()) if weights is None else weights.copy()
    views = weight_views(config, flat_data)
    model = Model(config=config, flat_data=flat_data,
                  tensors={name: Tensor(view, needs_grad=True) for name, view in views.items()})
    if weights is None:
        rng = np.random.default_rng(config.seed)
        for name, view in views.items():
            if name.endswith(".gamma"):
                view[...] = 1.0
            elif view.ndim == 2 and name != "pos.table":
                blocks = 3 * config.heads if name.endswith("attn.w_qkv") else 1
                fan_in, fan_out = view.shape[0], view.shape[1] // blocks
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                view.reshape(fan_in, blocks, fan_out)[...] = rng.uniform(
                    -limit, limit, size=(blocks, fan_in, fan_out)).transpose(1, 0, 2)
    total = flat_data.size
    logger.info(
        "built model: %d trainable parameters (reference variant reports %d, delta %+d)",
        total, REFERENCE_PARAM_COUNT, total - REFERENCE_PARAM_COUNT,
    )
    return model


def _patches(features: np.ndarray, patch_len: int) -> np.ndarray:
    """(B, L) signals as (B * ceil(L / patch_len), patch_len) patch rows.

    Each signal is right-padded with zeros to a whole number of patches;
    its patches follow each other, sample after sample.
    """
    n_tokens = -(-features.shape[1] // patch_len)
    padded = np.zeros((features.shape[0], n_tokens * patch_len))
    padded[:, :features.shape[1]] = features
    return padded.reshape(-1, patch_len)


def _encoder_block(model: Model, i: int, x: Tensor, b: int,
                   masks: dict[str, np.ndarray]) -> Tensor:
    """Post-norm encoder block ``i``: LN(x + MHA(x)) then LN(a + FFN(a)).

    ``x`` stacks the token rows of ``b`` samples; tokens attend only within
    their own sample. One packed projection gives every head's queries, keys
    and values. Where ``masks`` holds ``block<i>.ln1`` and ``block<i>.ln2``,
    dropout hits each sublayer output inside its residual step,
    LN(x + Dropout(sublayer(x))).
    """
    cfg = model.config
    w, k = model.tensors, f"block{i}."
    heads = attention(linear(x, w[k + "attn.w_qkv"], w[k + "attn.b_qkv"]),
                      b, x.shape[0] // b, cfg.heads, cfg.d_head)
    y = linear(heads, w[k + "attn.w_o"], w[k + "attn.b_o"])
    a = add_layer_norm(x, y, w[k + "ln1.gamma"], w[k + "ln1.beta"],
                       keep=masks.get(k + "ln1"), p=cfg.dropout)
    y = linear(relu(linear(a, w[k + "ffn.w1"], w[k + "ffn.b1"])),
               w[k + "ffn.w2"], w[k + "ffn.b2"])
    return add_layer_norm(a, y, w[k + "ln2.gamma"], w[k + "ln2.beta"],
                          keep=masks.get(k + "ln2"), p=cfg.dropout)


def forward(model: Model, features, masks: dict[str, np.ndarray] | None = None) -> Tensor:
    """Batch forward pass: (B, input_len) features to (B, n_classes) logits.

    Samples are processed independently (attention only ever mixes tokens of
    the same sample), so each row's logits depend only on that row and the
    parameters; a single sample is a batch of one. With ``masks`` (a step's
    :func:`draw_masks` for these rows) this is a training forward that applies
    each mask at the layer it names; a key it does not name, or a missing one,
    raises ``ShapeError``. It draws nothing: it is deterministic.
    """
    cfg = model.config
    p = model.tensors
    masks = masks or {}
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != cfg.input_len:
        raise ShapeError(
            f"expected features of width {cfg.input_len}, got shape {feats.shape}"
        )
    b = feats.shape[0]
    if masks:
        names = [name for name, _ in _mask_shapes(cfg, b)]
        odd = [f"unknown {n}" for n in masks if n not in names]
        odd += [f"missing {n}" for n in names if n not in masks]
        if odd:
            raise ShapeError(f"dropout masks do not fit the model: {odd[0]}")

    # a sinusoidal model's table is a constant, which backward skips
    pos = (p["pos.table"] if "pos.table" in p
           else Tensor(sinusoidal_table(cfg.n_tokens, cfg.d_model)))
    x = embed_tokens(Tensor(_patches(feats, cfg.patch_len)), p["embed.w"], p["embed.b"], pos)
    for i in range(cfg.encoder_layers):
        x = _encoder_block(model, i, x, b, masks)

    h = mean_tokens(x, b)
    for j in range(len(cfg.mlp_units)):
        h = linear(h, p[f"head.dense{j}.w"], p[f"head.dense{j}.b"])
        h = relu(h, masks.get(f"head.dense{j}"), cfg.dropout)
    return linear(h, p["head.out.w"], p["head.out.b"])


# report component of each tensor-name prefix other than ``block<i>``
_COMPONENTS = {"embed": "patch embedding", "pos": "positional table",
               "head": "classification head"}


def parameter_breakdown(config: ModelConfig) -> list[tuple[str, int]]:
    """Component-level parameter counts of ``config``'s weight table, for the
    reconciliation report."""
    rows: dict[str, int] = {}
    for name, shape in config.param_shapes():
        prefix = name.split(".", 1)[0]
        component = (f"encoder block {prefix[len('block'):]}" if prefix.startswith("block")
                     else _COMPONENTS[prefix])
        rows[component] = rows.get(component, 0) + math.prod(shape)
    return list(rows.items())


def format_param_report(config: ModelConfig) -> str:
    """Reconciliation table: per-component counts, total, and reference delta."""
    rows = parameter_breakdown(config)
    total = sum(count for _, count in rows)
    width = max(len(name) for name, _ in rows) + 2
    lines = ["parameter reconciliation:"]
    for name, count in rows:
        lines.append(f"  {name:<{width}}{count:>10,}")
    lines.append(f"  {'total':<{width}}{total:>10,}")
    lines.append(
        f"  reference variant reports {REFERENCE_PARAM_COUNT:,}; "
        f"delta {total - REFERENCE_PARAM_COUNT:+,}"
    )
    return "\n".join(lines)

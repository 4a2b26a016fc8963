"""Model assembly: config validation, seeded initialization, batch forward."""

from __future__ import annotations

import logging
import math
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (
    AttentionParams,
    EncoderBlockParams,
    HeadParams,
    dropout_mask,
    encoder_block,
    patch_embed,
    sinusoidal_table,
)
from .tensor import Tensor, linear, mean_tokens, relu

logger = logging.getLogger(__name__)

# Published parameter count of the reference variant this default config
# approximates. The reference under-specifies model width, pooling and the
# positional scheme, so the count is reported with a delta, never asserted.
REFERENCE_PARAM_COUNT = 36_301

__all__ = [
    "ModelConfig",
    "field_casters",
    "field_text",
    "Model",
    "tiny_config",
    "build_model",
    "forward",
    "count_params",
    "parameter_breakdown",
    "format_param_report",
    "REFERENCE_PARAM_COUNT",
]


def field_casters(cls) -> dict:
    """Field name -> parser of the field's text form, taken from its type.

    ``int``, ``float`` and ``str`` fields parse with the type itself; a
    ``tuple[T, ...]`` field parses a comma list of ``T`` (empty text is ``()``).
    """
    casters = {}
    for name, tp in typing.get_type_hints(cls).items():
        if typing.get_origin(tp) is tuple:
            elem = typing.get_args(tp)[0]
            casters[name] = lambda text, elem=elem: tuple(
                elem(u) for u in str(text).split(",") if u.strip()
            )
        else:
            casters[name] = tp
    return casters


def field_text(value) -> str:
    """Text form of a config value, the inverse of :func:`field_casters`."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


@dataclass(frozen=True)
class ModelConfig:
    """Every architecture knob, serializable and validated as a whole."""

    input_len: int = 187
    patch_len: int = 11
    d_model: int = 64
    d_head: int = 16
    heads: int = 8
    encoder_layers: int = 4
    d_ff: int = 128
    mlp_units: tuple[int, ...] = (128, 64)
    n_classes: int = 5
    dropout_p: float = 0.15
    positional: str = "learned"
    seed: int = 0

    @property
    def n_tokens(self) -> int:
        return -(-self.input_len // self.patch_len)

    def validate(self) -> list[str]:
        """Return every constraint violation (empty list when valid)."""
        bad = []
        for name in ("input_len", "patch_len", "d_model", "d_head", "heads",
                     "encoder_layers", "d_ff"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                bad.append(f"{name} must be a positive integer, got {v!r}")
        if isinstance(self.patch_len, int) and isinstance(self.input_len, int):
            if 0 < self.input_len < self.patch_len:
                bad.append(f"patch_len {self.patch_len} exceeds input_len {self.input_len}")
        if not self.mlp_units:
            bad.append("mlp_units must be non-empty")
        elif any(not isinstance(u, int) or u <= 0 for u in self.mlp_units):
            bad.append(f"mlp_units must all be positive integers, got {self.mlp_units}")
        if not isinstance(self.n_classes, int) or self.n_classes < 2:
            bad.append(f"n_classes must be an integer >= 2, got {self.n_classes!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            bad.append(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.positional not in ("learned", "sinusoidal"):
            bad.append(f"positional must be 'learned' or 'sinusoidal', got {self.positional!r}")
        return bad

    def to_dict(self) -> dict[str, str]:
        return {f.name: field_text(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on an unparsable value."""
        casters = field_casters(cls)
        return cls(**{k: casters[k](v) for k, v in d.items()})


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
    config: ModelConfig
    embed_w: Tensor
    embed_b: Tensor
    pos_table: Tensor  # trainable iff config.positional == "learned"
    blocks: list[EncoderBlockParams] = field(default_factory=list)
    head: HeadParams = None

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in a stable, documented order."""
        out = [("embed.w", self.embed_w), ("embed.b", self.embed_b)]
        if self.pos_table.needs_grad:
            out.append(("pos.table", self.pos_table))
        for i, block in enumerate(self.blocks):
            out.extend((f"block{i}.{name}", t) for name, t in block.tensors())
        out.extend((f"head.{name}", t) for name, t in self.head.tensors())
        return out

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), needs_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), needs_grad=True)


def _ones(n) -> Tensor:
    return Tensor(np.ones(n), needs_grad=True)


def build_model(config: ModelConfig) -> Model:
    """Initialize all weights from the config's seed; deterministic per seed.

    Weight matrices are uniform in +/- sqrt(6 / (fan_in + fan_out)); biases,
    and the learned positional table, start at zero. Logs the total trainable
    parameter count and its delta from the reference variant's count.
    """
    violations = config.validate()
    if violations:
        raise ConfigError(violations)
    rng = np.random.default_rng(config.seed)

    embed_w = _glorot(rng, config.patch_len, config.d_model)
    embed_b = _zeros(config.d_model)
    if config.positional == "learned":
        pos = Tensor(np.zeros((config.n_tokens, config.d_model)), needs_grad=True)
    else:
        pos = Tensor(sinusoidal_table(config.n_tokens, config.d_model), needs_grad=False)

    blocks = []
    for _ in range(config.encoder_layers):
        # one Glorot draw per head and projection, q heads then k then v,
        # packed side by side in that order
        per_head = [_glorot(rng, config.d_model, config.d_head).data
                    for _ in range(3 * config.heads)]
        attn = AttentionParams(
            w_qkv=Tensor(np.hstack(per_head), needs_grad=True),
            b_qkv=_zeros(3 * config.heads * config.d_head),
            w_o=_glorot(rng, config.heads * config.d_head, config.d_model),
            b_o=_zeros(config.d_model),
            heads=config.heads,
        )
        blocks.append(
            EncoderBlockParams(
                attn=attn,
                w1=_glorot(rng, config.d_model, config.d_ff),
                b1=_zeros(config.d_ff),
                w2=_glorot(rng, config.d_ff, config.d_model),
                b2=_zeros(config.d_model),
                ln1_gamma=_ones(config.d_model),
                ln1_beta=_zeros(config.d_model),
                ln2_gamma=_ones(config.d_model),
                ln2_beta=_zeros(config.d_model),
            )
        )

    hidden = []
    width = config.d_model
    for units in config.mlp_units:
        hidden.append((_glorot(rng, width, units), _zeros(units)))
        width = units
    head = HeadParams(hidden=hidden, out_w=_glorot(rng, width, config.n_classes),
                      out_b=_zeros(config.n_classes))

    model = Model(config=config, embed_w=embed_w, embed_b=embed_b, pos_table=pos,
                  blocks=blocks, head=head)
    total = count_params(model)
    logger.info(
        "built model: %d trainable parameters (reference variant reports %d, delta %+d)",
        total, REFERENCE_PARAM_COUNT, total - REFERENCE_PARAM_COUNT,
    )
    return model


def forward(model: Model, features, rng: np.random.Generator | None = None) -> Tensor:
    """Batch forward pass: (B, input_len) features to (B, n_classes) logits.

    Samples are processed independently (attention only ever mixes tokens of
    the same sample), so each row's logits depend only on that row and the
    parameters; a single sample is a batch of one. With a generator this is a
    training forward, which draws its dropout masks from it; without one it is
    deterministic.
    """
    cfg = model.config
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != cfg.input_len:
        raise ShapeError(
            f"expected features of width {cfg.input_len}, got shape {feats.shape}"
        )
    b = feats.shape[0]

    x2 = patch_embed(feats, cfg.patch_len, model.embed_w, model.embed_b, model.pos_table)
    for block in model.blocks:
        x2 = encoder_block(x2, block, cfg.dropout_p, rng, batch=b)

    h = mean_tokens(x2, b)
    for w, bias in model.head.hidden:
        h = linear(h, w, bias)
        h = relu(h, dropout_mask(h.shape, cfg.dropout_p, rng))
    return linear(h, model.head.out_w, model.head.out_b)


def count_params(model: Model) -> int:
    return sum(t.size for _, t in model.parameters())


def parameter_breakdown(model: Model) -> list[tuple[str, int]]:
    """Component-level parameter counts for the reconciliation report."""
    rows = [("patch embedding", model.embed_w.size + model.embed_b.size)]
    if model.pos_table.needs_grad:
        rows.append(("positional table", model.pos_table.size))
    else:
        rows.append(("positional table (fixed)", 0))
    for i, block in enumerate(model.blocks):
        rows.append((f"encoder block {i}", sum(t.size for _, t in block.tensors())))
    rows.append(("classification head", sum(t.size for _, t in model.head.tensors())))
    return rows


def format_param_report(model: Model) -> str:
    """Reconciliation table: per-component counts, total, and reference delta."""
    rows = parameter_breakdown(model)
    total = count_params(model)
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

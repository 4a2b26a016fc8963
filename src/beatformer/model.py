"""Model assembly: config validation, the parameter table and its flat
buffer, seeded initialization, the encoder block and the batch forward."""

from __future__ import annotations

import logging
import math
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, add_layer_norm, attention, embed_tokens, linear, mean_tokens, relu

logger = logging.getLogger(__name__)

# Published parameter count of the reference variant this default config
# approximates. The reference under-specifies model width, pooling and the
# positional scheme, so the count is reported with a delta, never asserted.
REFERENCE_PARAM_COUNT = 36_301

LN_EPS = 1e-6

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
    "LN_EPS",
    "dropout_mask",
    "sinusoidal_table",
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
    dropout: float = 0.15
    positional: str = "learned"
    # seeds init, and in training the subset, split, shuffling and dropout
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
        if not 0.0 <= self.dropout < 1.0:
            bad.append(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.positional not in ("learned", "sinusoidal"):
            bad.append(f"positional must be 'learned' or 'sinusoidal', got {self.positional!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            bad.append(f"seed must be a non-negative integer, got {self.seed!r}")
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
    """A config and its weights: one table of named tensors in checkpoint order.

    Every trainable tensor's ``data`` is a view into ``flat_data``, laid out
    in the order of :meth:`parameters`, so an optimizer updates every weight
    with whole-buffer ops. A sinusoidal ``pos.table`` is fixed: it is in the
    table but not in the buffer. The model holds no gradients; training
    places them with :meth:`views`.
    """

    config: ModelConfig
    tensors: dict[str, Tensor]
    flat_data: np.ndarray

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in a stable, documented order."""
        return [(name, t) for name, t in self.tensors.items() if t.needs_grad]

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def views(self, flat: np.ndarray) -> dict[Tensor, np.ndarray]:
        """Each trainable tensor mapped to its reshaped slice of ``flat``, a
        buffer laid out like ``flat_data``: the weights are these views of
        ``flat_data``, and a training step's ``grads`` for ``backward`` are
        these views of one gradient buffer."""
        out, offset = {}, 0
        for t in self.param_tensors():
            out[t] = flat[offset:offset + t.size].reshape(t.shape)
            offset += t.size
        return out


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


def sinusoidal_table(t_max: int, d_model: int) -> np.ndarray:
    """Classic fixed sin/cos positional table, an ablation alternative."""
    table = np.zeros((t_max, d_model))
    position = np.arange(t_max)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d_model, 2) * -(math.log(10000.0) / d_model))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: d_model // 2])
    return table


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def build_model(config: ModelConfig) -> Model:
    """Initialize all weights from the config's seed; deterministic per seed.

    Weight matrices are uniform in +/- sqrt(6 / (fan_in + fan_out)), drawn
    in checkpoint order; biases, and the learned positional table, start at
    zero. Logs the total trainable parameter count and its delta from the
    reference variant's count.
    """
    violations = config.validate()
    if violations:
        raise ConfigError(violations)
    rng = np.random.default_rng(config.seed)
    d, width = config.d_model, config.heads * config.d_head
    learned = config.positional == "learned"

    init = {
        "embed.w": _glorot(rng, config.patch_len, d),
        "embed.b": np.zeros(d),
        "pos.table": (np.zeros((config.n_tokens, d)) if learned
                      else sinusoidal_table(config.n_tokens, d)),
    }
    for i in range(config.encoder_layers):
        block = {
            # one Glorot draw per head and projection, q heads then k then v,
            # packed side by side in that order
            "attn.w_qkv": np.hstack([_glorot(rng, d, config.d_head)
                                     for _ in range(3 * config.heads)]),
            "attn.b_qkv": np.zeros(3 * width),
            "attn.w_o": _glorot(rng, width, d),
            "attn.b_o": np.zeros(d),
            "ffn.w1": _glorot(rng, d, config.d_ff),
            "ffn.b1": np.zeros(config.d_ff),
            "ffn.w2": _glorot(rng, config.d_ff, d),
            "ffn.b2": np.zeros(d),
            "ln1.gamma": np.ones(d),
            "ln1.beta": np.zeros(d),
            "ln2.gamma": np.ones(d),
            "ln2.beta": np.zeros(d),
        }
        init.update((f"block{i}.{name}", value) for name, value in block.items())
    fan_in = d
    for j, units in enumerate(config.mlp_units):
        init[f"head.dense{j}.w"] = _glorot(rng, fan_in, units)
        init[f"head.dense{j}.b"] = np.zeros(units)
        fan_in = units
    init["head.out.w"] = _glorot(rng, fan_in, config.n_classes)
    init["head.out.b"] = np.zeros(config.n_classes)

    trainable = {name: value for name, value in init.items()
                 if learned or name != "pos.table"}
    model = Model(config=config,
                  tensors={name: Tensor(value, needs_grad=name in trainable)
                           for name, value in init.items()},
                  flat_data=np.concatenate([value.ravel() for value in trainable.values()]))
    for t, view in model.views(model.flat_data).items():
        t.data = view
    total = count_params(model)
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
                   rng: np.random.Generator | None = None) -> Tensor:
    """Post-norm encoder block ``i``: LN(x + MHA(x)) then LN(a + FFN(a)).

    ``x`` stacks the token rows of ``b`` samples; tokens attend only within
    their own sample. One packed projection gives every head's queries, keys
    and values. With a generator, dropout hits each sublayer output inside
    its residual step, LN(x + Dropout(sublayer(x))).
    """
    cfg = model.config
    w, k = model.tensors, f"block{i}."
    heads = attention(linear(x, w[k + "attn.w_qkv"], w[k + "attn.b_qkv"]),
                      b, x.shape[0] // b, cfg.heads, cfg.d_head)
    y = linear(heads, w[k + "attn.w_o"], w[k + "attn.b_o"])
    a = add_layer_norm(x, y, w[k + "ln1.gamma"], w[k + "ln1.beta"], LN_EPS,
                       dropout_mask(y.shape, cfg.dropout, rng))
    y = linear(relu(linear(a, w[k + "ffn.w1"], w[k + "ffn.b1"])),
               w[k + "ffn.w2"], w[k + "ffn.b2"])
    return add_layer_norm(a, y, w[k + "ln2.gamma"], w[k + "ln2.beta"], LN_EPS,
                          dropout_mask(y.shape, cfg.dropout, rng))


def forward(model: Model, features, rng: np.random.Generator | None = None) -> Tensor:
    """Batch forward pass: (B, input_len) features to (B, n_classes) logits.

    Samples are processed independently (attention only ever mixes tokens of
    the same sample), so each row's logits depend only on that row and the
    parameters; a single sample is a batch of one. With a generator this is a
    training forward, which draws its dropout masks from it; without one it is
    deterministic.
    """
    cfg = model.config
    p = model.tensors
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != cfg.input_len:
        raise ShapeError(
            f"expected features of width {cfg.input_len}, got shape {feats.shape}"
        )
    b = feats.shape[0]

    x = embed_tokens(Tensor(_patches(feats, cfg.patch_len)), p["embed.w"], p["embed.b"],
                     p["pos.table"])
    for i in range(cfg.encoder_layers):
        x = _encoder_block(model, i, x, b, rng)

    h = mean_tokens(x, b)
    for j in range(len(cfg.mlp_units)):
        h = linear(h, p[f"head.dense{j}.w"], p[f"head.dense{j}.b"])
        h = relu(h, dropout_mask(h.shape, cfg.dropout, rng))
    return linear(h, p["head.out.w"], p["head.out.b"])


def count_params(model: Model) -> int:
    return model.flat_data.size


# report component of each tensor-name prefix other than ``block<i>``
_COMPONENTS = {"embed": "patch embedding", "pos": "positional table",
               "head": "classification head"}


def parameter_breakdown(model: Model) -> list[tuple[str, int]]:
    """Component-level parameter counts for the reconciliation report."""
    rows: dict[str, int] = {}
    for name, t in model.tensors.items():
        prefix = name.split(".", 1)[0]
        component = (f"encoder block {prefix[len('block'):]}" if prefix.startswith("block")
                     else _COMPONENTS[prefix])
        if not t.needs_grad:
            component += " (fixed)"
        rows[component] = rows.get(component, 0) + (t.size if t.needs_grad else 0)
    return list(rows.items())


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

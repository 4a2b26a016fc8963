"""The run's settings and their ``key = value`` text form.

Three dataclasses hold every setting with its type, default and constraints;
:data:`SCHEMA` maps each config key to its field's caster and default, and a
run resolves defaults < config file < command-line flags. One codec,
:func:`format_pairs` and :func:`read_pairs`, writes and reads config files,
``config.resolved`` and the checkpoint's meta block.
"""

from __future__ import annotations

import math
import re
import typing
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

# per-feature training stats, or each row standardized on its own
NORM_MODES = ("standard", "per_sample")

# Most trainable weights a model may hold. Training keeps four float64 copies
# of them (weights, gradients and Adam's two moments), so at the cap that is
# 4 GiB; the default model (218,949) has about 600 times this room.
MAX_PARAMS = 1 << 27

# The number grammar of every config value, flag and checkpoint meta value:
# ASCII digits only, no digit separators. A float is a decimal with an
# optional exponent (every form ``repr`` writes), or inf or nan, which
# ``validate`` refuses where a value must be finite.
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)")


def parse_int(text) -> int:
    """An integer of the form ``[+-]?[0-9]+``; anything else raises ``ValueError``."""
    if not _INT.fullmatch(str(text)):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_float(text) -> float:
    """A float in ASCII decimal or exponent form, or ``inf``/``nan``; anything
    else raises ``ValueError``."""
    if not _FLOAT.fullmatch(str(text)):
        raise ValueError(f"not a number: {text!r}")
    return float(text)


_PARSERS = {int: parse_int, float: parse_float, str: str}


def field_casters(cls) -> dict:
    """Field name -> parser of the field's text form, taken from its type.

    ``int`` and ``float`` fields parse with :func:`parse_int` and
    :func:`parse_float`, ``str`` fields take the text as it is; a
    ``tuple[T, ...]`` field parses a comma list of ``T`` (empty text is ``()``).
    """
    casters = {}
    for name, tp in typing.get_type_hints(cls).items():
        if typing.get_origin(tp) is tuple:
            elem = _PARSERS[typing.get_args(tp)[0]]
            casters[name] = lambda text, elem=elem: tuple(elem(u.strip())
                                                          for u in str(text).split(",")
                                                          if u.strip())
        else:
            casters[name] = _PARSERS[tp]
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

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """``(name, shape)`` of each trainable weight, in checkpoint order: the
        patch embedding, the learned positional table (a sinusoidal model has
        none), each encoder block's packed q/k/v projection of every head,
        output projection, FFN and two layer norms, then the head's dense
        layers and its output layer."""
        d, width, ff = self.d_model, self.heads * self.d_head, self.d_ff
        shapes = [("embed.w", (self.patch_len, d)), ("embed.b", (d,))]
        if self.positional == "learned":
            shapes.append(("pos.table", (self.n_tokens, d)))
        for i in range(self.encoder_layers):
            shapes += [(f"block{i}.{name}", shape) for name, shape in (
                ("attn.w_qkv", (d, 3 * width)), ("attn.b_qkv", (3 * width,)),
                ("attn.w_o", (width, d)), ("attn.b_o", (d,)), ("ffn.w1", (d, ff)),
                ("ffn.b1", (ff,)), ("ffn.w2", (ff, d)), ("ffn.b2", (d,)), ("ln1.gamma", (d,)),
                ("ln1.beta", (d,)), ("ln2.gamma", (d,)), ("ln2.beta", (d,)))]
        fan_in = d
        for j, units in enumerate(self.mlp_units):
            shapes += [(f"head.dense{j}.w", (fan_in, units)), (f"head.dense{j}.b", (units,))]
            fan_in = units
        return shapes + [("head.out.w", (fan_in, self.n_classes)),
                         ("head.out.b", (self.n_classes,))]

    def n_params(self) -> int:
        """The count of trainable weights, in Python ints: the table without
        blocks plus ``encoder_layers`` times one block's, so that a huge block
        count costs nothing to count."""
        def count(layers: int) -> int:
            return sum(math.prod(shape) for _, shape in
                       replace(self, encoder_layers=layers).param_shapes())
        return count(0) + self.encoder_layers * (count(1) - count(0))

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
        if not bad and self.n_params() > MAX_PARAMS:
            bad.append(f"the model would hold {self.n_params():,} parameters, more than "
                       f"the {MAX_PARAMS:,} a model may hold")
        return bad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    # optional per-class loss weights (imbalance remedy); empty reproduces the
    # unweighted objective, which is the default
    class_weights: tuple[float, ...] = ()

    def validate(self) -> list[str]:
        bad = []
        if not isinstance(self.epochs, int) or self.epochs < 1:
            bad.append(f"epochs must be a positive integer, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            bad.append(f"batch_size must be a positive integer, got {self.batch_size!r}")
        # inf passes a bare "> 0": an infinite eps zeroes every Adam update
        if not 0 < self.lr < math.inf:
            bad.append(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                bad.append(f"{name} must lie in [0, 1), got {v}")
        if not 0 < self.eps < math.inf:
            bad.append(f"eps must be finite and > 0, got {self.eps}")
        if not all(0 < w < math.inf for w in self.class_weights):
            bad.append(f"class_weights must all be finite and > 0, got {self.class_weights}")
        return bad


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings: input files, validation carve-out, normalization, output."""

    val_fraction: float = 0.1
    normalization: str = "standard"  # one of NORM_MODES
    subset: int = 0  # 0 = use the full training file
    out: str = "run"
    data_train: str = ""
    data_test: str = ""

    def validate(self) -> list[str]:
        """Return every constraint violation (empty list when valid)."""
        bad = []
        if not 0.0 < self.val_fraction < 1.0:
            bad.append(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.subset < 0:
            bad.append(f"subset must be >= 0, got {self.subset}")
        if self.normalization not in NORM_MODES:
            bad.append(f"normalization must be one of {NORM_MODES}, "
                       f"got {self.normalization!r}")
        return bad


# Every config-file key is the name of exactly one field of one of these
# dataclasses, which holds its type and default.
CONFIGS = (ModelConfig, TrainConfig, RunConfig)

# key -> (caster, default)
SCHEMA = {f.name: (casters[f.name], f.default)
          for cls, casters in zip(CONFIGS, map(field_casters, CONFIGS)) for f in fields(cls)}


def build_config(cls, resolved: dict):
    """An instance of one of :data:`CONFIGS` from resolved config values."""
    return cls(**{f.name: resolved[f.name] for f in fields(cls)})


# a zero-width split after each line end: "\r\n", a lone "\r", or "\n"
_LINE_ENDS = re.compile(rb"(?<=\n)|(?<=\r)(?!\n)")

# a value holding any of these does not read back: a comment mark, a line
# end, or a lone surrogate, which has no UTF-8 form
_UNREADABLE = re.compile("[#\r\n\ud800-\udfff]")


def format_pairs(pairs) -> str:
    """One ``key = value`` line per ``(key, value)`` pair, the value in its
    :func:`field_text` form. Raises ``ConfigError`` naming every value that
    :func:`read_pairs` would not give back."""
    lines, bad = [], []
    for key, value in pairs:
        text = field_text(value)
        if text != text.strip() or _UNREADABLE.search(text):
            bad.append(f"config key {key}: {text!r} would not read back ('#', a line "
                       f"break, surrounding whitespace or invalid UTF-8)")
        lines.append(f"{key} = {text}\n")
    if bad:
        raise ConfigError(bad)
    return "".join(lines)


def read_pairs(data: bytes) -> tuple[dict, list]:
    """``{key: (value, line, offset)}`` of the ``key = value`` lines of ``data``
    (1-based line number, byte offset of the line), and ``(line, offset,
    problem)`` for each line that is not UTF-8, has no ``=`` or repeats a key.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` only, so a value may hold any
    other separator. ``#`` starts a comment; keys and values are stripped.
    """
    pairs: dict[str, tuple[str, int, int]] = {}
    problems: list[tuple[int, int, str]] = []
    offset = 0
    for lineno, raw in enumerate(_LINE_ENDS.split(data), start=1):
        at, offset = offset, offset + len(raw)
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            problems.append((lineno, at, "not valid UTF-8"))
            continue
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            problems.append((lineno, at, f"expected 'key = value', got {line!r}"))
        elif key in pairs:
            problems.append((lineno, at, f"key {key!r} repeats line {pairs[key][1]}"))
        else:
            pairs[key] = (value.strip(), lineno, at)
    return pairs, problems


def parse_config_file(path: str) -> tuple[dict, list[str]]:
    """A config file's raw string values, plus violations that name ``path:line``:
    a line that does not read, an unknown key, or a value its key's caster
    refuses (which is then left out)."""
    try:
        with open(path, "rb") as fh:
            pairs, problems = read_pairs(fh.read())
    except OSError as err:
        return {}, [f"cannot read config file {path}: {err}"]
    values = {}
    for key, (value, line, at) in pairs.items():
        if key not in SCHEMA:
            problems.append((line, at, f"unknown key {key!r}"))
            continue
        try:
            SCHEMA[key][0](value)
        except ValueError:
            problems.append((line, at, f"config key {key}: cannot parse {value!r}"))
            continue
        values[key] = value
    return values, [f"{path}:{line}: {problem}" for line, _, problem in sorted(problems)]


def resolve_config(file_values: dict, overrides: dict) -> tuple[dict, list[str]]:
    """Defaults < config file < command line; returns typed values + violations.

    An override that is ``None`` or whose key is not a config key is ignored."""
    resolved, violations = {}, []
    merged = {**file_values, **{k: v for k, v in overrides.items() if v is not None}}
    for key, (caster, default) in SCHEMA.items():
        resolved[key] = default
        if key in merged:
            try:
                resolved[key] = caster(merged[key])
            except (TypeError, ValueError):
                violations.append(f"config key {key}: cannot parse {merged[key]!r}")
    # config.resolved must give every value back
    try:
        format_resolved(resolved)
    except ConfigError as err:
        violations.extend(err.violations)
    for cls in CONFIGS:
        violations.extend(build_config(cls, resolved).validate())
    if resolved["class_weights"] and len(resolved["class_weights"]) != resolved["n_classes"]:
        violations.append(f"class_weights needs {resolved['n_classes']} entries, got "
                          f"{len(resolved['class_weights'])}")
    return resolved, violations


def resolve(config_path, overrides: dict) -> dict:
    """Defaults < ``config_path`` < ``overrides``; raises ``ConfigError`` with every violation."""
    file_values, violations = parse_config_file(config_path) if config_path else ({}, [])
    resolved, more = resolve_config(file_values, overrides)
    if violations + more:
        raise ConfigError(violations + more)
    return resolved


def format_resolved(resolved: dict) -> str:
    """The text of ``config.resolved``: every key, sorted."""
    return format_pairs((key, resolved[key]) for key in sorted(SCHEMA))

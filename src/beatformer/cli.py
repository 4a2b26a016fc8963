"""Command-line entry point: train, eval, predict, gradcheck.

Config files are flat ``key = value`` UTF-8 text with ``#`` comments;
command-line flags override file values. Every run writes its fully resolved
config to the output directory before any real work starts, so a completed
run is reproducible from that file plus the input CSVs.

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from .errors import CheckpointError, ConfigError, DataError, NumericalError
from .metrics import (
    classification_report,
    confusion_matrix,
    confusion_to_csv,
    format_report,
    report_to_csv,
)
from .model import (
    ModelConfig,
    build_model,
    count_params,
    field_casters,
    field_text,
    format_param_report,
    forward,
    tiny_config,
)
from .tensor import grad_check
from .train import (
    TrainConfig,
    history_to_csv,
    infer,
    load_checkpoint,
    predict,
    restore_model,
    score_logits,
    sparse_ce_loss,
    train_loop,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRADCHECK_TOL = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings: input files, validation carve-out, normalization, output."""

    val_fraction: float = 0.1
    normalization: str = "standard"  # one of data.NORM_MODES
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
        if self.normalization not in data_mod.NORM_MODES:
            bad.append(f"normalization must be one of {data_mod.NORM_MODES}, "
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


def parse_config_file(path: str) -> tuple[dict, list[str]]:
    """Read ``key = value`` lines; return raw string values plus violations.

    A key given twice is a violation naming both lines, not a silent override;
    a line that is not valid UTF-8 is one naming its line.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    violations: list[str] = []
    try:
        # undecodable bytes come through as lone surrogates, which no valid
        # UTF-8 line can hold, so only such a line fails to encode back
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isascii():
                    try:
                        raw.encode("utf-8")
                    except UnicodeEncodeError:
                        violations.append(f"{path}:{lineno}: not valid UTF-8")
                        continue
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    violations.append(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                    continue
                key = key.strip()
                if key not in SCHEMA:
                    violations.append(f"{path}:{lineno}: unknown key {key!r}")
                    continue
                if key in first_line:
                    violations.append(
                        f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
                    )
                    continue
                first_line[key] = lineno
                values[key] = value.strip()
    except OSError as err:
        violations.append(f"cannot read config file {path}: {err}")
    return values, violations


def resolve_config(file_values: dict, overrides: dict) -> tuple[dict, list[str]]:
    """Defaults < config file < command line; returns typed values + violations."""
    resolved = {}
    violations = []
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, (caster, default) in SCHEMA.items():
        if key in merged:
            try:
                resolved[key] = caster(merged[key])
            except (TypeError, ValueError):
                violations.append(f"config key {key}: cannot parse {merged[key]!r}")
                resolved[key] = default
            # config.resolved must give the value back, and parse_config_file
            # splits lines, cuts '#' comments, strips and decodes UTF-8
            value = resolved[key]
            if isinstance(value, str) and (value != value.strip()
                                           or re.search("[#\r\n\ud800-\udfff]", value)):
                violations.append(f"config key {key}: {value!r} would not read back from "
                                  f"config.resolved ('#', a line break, surrounding "
                                  f"whitespace or invalid UTF-8)")
        else:
            resolved[key] = default

    for cls in CONFIGS:
        violations.extend(build_config(cls, resolved).validate())
    if resolved["class_weights"] and len(resolved["class_weights"]) != resolved["n_classes"]:
        violations.append(
            f"class_weights needs {resolved['n_classes']} entries, got "
            f"{len(resolved['class_weights'])}"
        )
    return resolved, violations


def format_resolved(resolved: dict) -> str:
    return "".join(f"{key} = {field_text(resolved[key])}\n" for key in sorted(SCHEMA))


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _make_out_dir(path: str) -> None:
    """Create ``path`` as a directory, or raise ``ConfigError`` naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {path}: {err.strerror or err}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_files(out_dir: str, preds, labels, n_classes: int) -> str:
    cm = confusion_matrix(preds, labels, n_classes)
    report = classification_report(cm)
    text = format_report(report)
    _write(os.path.join(out_dir, "report.txt"), text + "\n")
    _write(os.path.join(out_dir, "report.csv"), report_to_csv(report))
    _write(os.path.join(out_dir, "confusion.csv"), confusion_to_csv(cm))
    return text


def cmd_train(args) -> int:
    file_values, violations = ({}, [])
    if args.config:
        file_values, violations = parse_config_file(args.config)
    overrides = {
        "seed": args.seed,
        "subset": args.subset,
        "epochs": args.epochs,
        "out": args.out,
        "data_train": args.data_train,
        "data_test": args.data_test,
    }
    resolved, more = resolve_config(file_values, overrides)
    violations.extend(more)
    if violations:
        return _fail("invalid configuration:\n  " + "\n  ".join(violations))
    model_cfg, train_cfg, run = (build_config(cls, resolved) for cls in CONFIGS)
    if not run.data_train:
        return _fail("no training CSV given (set data_train or pass --data-train)")
    if not os.path.exists(run.data_train):
        return _fail(f"training CSV not found: {run.data_train}")

    # provenance first: the resolved config lands before any real work
    _make_out_dir(run.out)
    _write(os.path.join(run.out, "config.resolved"), format_resolved(resolved))

    seed = model_cfg.seed
    try:
        train_full = data_mod.load_csv(run.data_train, model_cfg.input_len, model_cfg.n_classes)
        working = train_full
        if run.subset:
            working = data_mod.stratified_subset(train_full, run.subset, seed)
        val_n = max(1, round(run.val_fraction * working.n))
        train_part, val_part = data_mod.stratified_split(working, working.n - val_n, seed)
        stats = data_mod.fit_normalizer(train_part, run.normalization)
        train_part = data_mod.apply_normalizer(train_part, stats)
        val_part = data_mod.apply_normalizer(val_part, stats)

        model = build_model(model_cfg)
        print(format_param_report(model))
        print(f"training on {train_part.n} samples, validating on {val_part.n}")
        ckpt, history = train_loop(
            model,
            train_cfg,
            train_part,
            val_part,
            checkpoint_path=os.path.join(run.out, "checkpoint.bin"),
            norm_stats=stats,
        )
    except DataError as err:
        return _fail(str(err))
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC

    _write(os.path.join(run.out, "history.csv"), history_to_csv(history))
    text = _report_files(run.out, np.argmax(ckpt.val_logits, axis=1), val_part.labels,
                         model_cfg.n_classes)
    print(f"best validation loss {ckpt.best_val_loss:.6f} at epoch {ckpt.epoch}")
    print(text)
    print(f"artifacts written to {run.out}/")
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.data_test:
        return _fail("no test CSV given (pass --data-test)")
    try:
        ckpt = load_checkpoint(args.checkpoint)
        model = restore_model(ckpt)
    except (CheckpointError, OSError) as err:
        return _fail(str(err))
    try:
        test_ds = data_mod.load_csv(args.data_test, ckpt.config.input_len, ckpt.config.n_classes)
    except DataError as err:
        return _fail(str(err))

    normed = data_mod.apply_normalizer(test_ds, ckpt.norm)
    logits = infer(model, normed.features)
    loss, acc = score_logits(logits, normed.labels)
    preds = np.argmax(logits, axis=1)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    _make_out_dir(out_dir)
    text = _report_files(out_dir, preds, normed.labels, ckpt.config.n_classes)
    print(text)
    print(f"\ntest loss {loss:.6f}, test accuracy {acc:.4f}")
    print(f"report files written to {out_dir}/")
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
        model = restore_model(ckpt)
    except (CheckpointError, OSError) as err:
        return _fail(str(err))
    try:
        features, _ = data_mod.load_features(args.data, ckpt.config.input_len)
    except DataError as err:
        return _fail(str(err))

    probs = predict(model, data_mod.normalize(features, ckpt.norm))
    preds = np.argmax(probs, axis=1)

    lines = ["index,predicted_class," + ",".join(f"p{c}" for c in range(probs.shape[1]))]
    for i, (label, row) in enumerate(zip(preds, probs)):
        lines.append(f"{i},{label}," + ",".join(f"{p:.17g}" for p in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _make_out_dir(args.out)
        _write(os.path.join(args.out, "predictions.csv"), text)
        print(f"predictions written to {os.path.join(args.out, 'predictions.csv')}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    file_values, violations = ({}, [])
    if args.config:
        file_values, violations = parse_config_file(args.config)
    resolved, more = resolve_config(file_values, {"seed": args.seed})
    violations.extend(more)
    if violations:
        return _fail("invalid configuration:\n  " + "\n  ".join(violations))

    # small verification variant: 4 tokens; a forward without a generator
    # applies no dropout
    cfg = tiny_config(input_len=44, seed=resolved["seed"])
    model = build_model(cfg)
    rng = np.random.default_rng(resolved["seed"])
    batch = rng.normal(size=(2, cfg.input_len))
    labels = rng.integers(0, cfg.n_classes, size=2)

    def target():
        return sparse_ce_loss(forward(model, batch), labels)

    names = [name for name, _ in model.parameters()]
    report = grad_check(target, model.param_tensors(), eps=1e-5, tol=GRADCHECK_TOL,
                        names=names)
    print(
        f"checked {report.n_elements} parameter elements of {count_params(model)} "
        f"({len(names)} tensors)"
    )
    print(report.summary())
    if not report.passed:
        return EXIT_VERIFICATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatformer",
        description="Encoder-only transformer for heartbeat classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and write run artifacts")
    train.add_argument("--config", help="flat key = value config file")
    train.add_argument("--seed", type=int, help="run seed (init, shuffling, subsets)")
    train.add_argument("--subset", type=int, help="stratified subset size of the train CSV")
    train.add_argument("--epochs", type=int, help="override epoch count")
    train.add_argument("--out", help="output directory")
    train.add_argument("--data-train", dest="data_train", help="training CSV path")
    train.add_argument("--data-test", dest="data_test", help="test CSV path (recorded only)")
    train.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    ev.add_argument("checkpoint", help="checkpoint file")
    ev.add_argument("--data-test", dest="data_test", required=True, help="labeled test CSV")
    ev.add_argument("--out", help="directory for report files (default: checkpoint dir)")
    ev.set_defaults(fn=cmd_eval)

    pred = sub.add_parser("predict", help="emit per-row class probabilities")
    pred.add_argument("checkpoint", help="checkpoint file")
    pred.add_argument("data", help="CSV of input_len-field rows (a trailing label is ignored)")
    pred.add_argument("--out", help="write predictions.csv here instead of stdout")
    pred.set_defaults(fn=cmd_predict)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    gc.add_argument("--config", help="config file (only its seed is read)")
    gc.add_argument("--seed", type=int, help="seed for the check model and probe batch")
    gc.set_defaults(fn=cmd_gradcheck)
    return parser


# glibc mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> None:
    """Fix glibc's trim and mmap thresholds, so freed numpy buffers get reused.

    Every inference block and train step frees megabytes of arrays that the
    next one allocates again. By default glibc adapts both thresholds to the
    largest buffer freed so far, so whether those buffers stay mapped depends
    on what the process ran before: measured on a default-config 1-epoch
    ``train``, from about 3k to about 240k minor page faults per command.
    Fixed thresholds keep buffers up to 32 MiB on the heap and up to 64 MiB
    of freed heap for reuse. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    keep_freed_heap()
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        return _fail(f"invalid configuration: {err}")
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

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
import logging
import os
import sys

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
from .model import ModelConfig, build_model, count_params, format_param_report, tiny_config
from .tensor import grad_check
from .train import (
    TrainConfig,
    history_to_csv,
    infer,
    load_checkpoint,
    predict,
    restore_model,
    score_logits,
    train_loop,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRADCHECK_TOL = 1e-4


def _parse_units(value: str) -> tuple:
    return tuple(int(u) for u in str(value).split(",") if str(u).strip())


def _parse_weights(value) -> tuple:
    if value is None or value == "" or value == ():
        return ()
    if isinstance(value, tuple):
        return tuple(float(w) for w in value)
    return tuple(float(w) for w in str(value).split(",") if str(w).strip())


# key -> (caster, default); the single source of truth for config files
SCHEMA = {
    "input_len": (int, 187),
    "patch_len": (int, 11),
    "d_model": (int, 64),
    "d_head": (int, 16),
    "heads": (int, 8),
    "encoder_layers": (int, 4),
    "d_ff": (int, 128),
    "mlp_units": (_parse_units, (128, 64)),
    "n_classes": (int, 5),
    "dropout": (float, 0.15),
    "positional": (str, "learned"),
    "epochs": (int, 100),
    "batch_size": (int, 32),
    "lr": (float, 1e-4),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "eps": (float, 1e-7),
    "val_fraction": (float, 0.1),
    "class_weights": (_parse_weights, ()),  # empty = unweighted loss
    "normalization": (str, "standard"),  # or per_sample
    "seed": (int, 0),
    "subset": (int, 0),  # 0 = use the full training file
    "out": (str, "run"),
    "data_train": (str, ""),
    "data_test": (str, ""),
}


def parse_config_file(path: str) -> tuple[dict, list[str]]:
    """Read ``key = value`` lines; return raw string values plus violations."""
    values: dict[str, str] = {}
    violations: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
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
        else:
            resolved[key] = default

    model_cfg = _model_config(resolved)
    violations.extend(model_cfg.validate())
    violations.extend(_train_config(resolved).validate())
    if not 0.0 < resolved["val_fraction"] < 1.0:
        violations.append(f"val_fraction must lie in (0, 1), got {resolved['val_fraction']}")
    if resolved["subset"] < 0:
        violations.append(f"subset must be >= 0, got {resolved['subset']}")
    if resolved["normalization"] not in ("standard", "per_sample"):
        violations.append(
            f"normalization must be 'standard' or 'per_sample', got "
            f"{resolved['normalization']!r}"
        )
    if resolved["class_weights"] and len(resolved["class_weights"]) != resolved["n_classes"]:
        violations.append(
            f"class_weights needs {resolved['n_classes']} entries, got "
            f"{len(resolved['class_weights'])}"
        )
    return resolved, violations


def _model_config(resolved: dict) -> ModelConfig:
    return ModelConfig(
        input_len=resolved["input_len"],
        patch_len=resolved["patch_len"],
        d_model=resolved["d_model"],
        d_head=resolved["d_head"],
        heads=resolved["heads"],
        encoder_layers=resolved["encoder_layers"],
        d_ff=resolved["d_ff"],
        mlp_units=tuple(resolved["mlp_units"]),
        n_classes=resolved["n_classes"],
        dropout_p=resolved["dropout"],
        positional=resolved["positional"],
        seed=resolved["seed"],
    )


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        lr=resolved["lr"],
        beta1=resolved["beta1"],
        beta2=resolved["beta2"],
        eps=resolved["eps"],
        seed=resolved["seed"],
        class_weights=resolved["class_weights"] or None,
    )


def format_resolved(resolved: dict) -> str:
    lines = []
    for key in sorted(SCHEMA):
        value = resolved[key]
        if key in ("mlp_units", "class_weights"):
            value = ",".join(str(u) for u in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_files(out_dir: str, preds, labels) -> str:
    cm = confusion_matrix(preds, labels)
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
    if not resolved["data_train"]:
        return _fail("no training CSV given (set data_train or pass --data-train)")
    if not os.path.exists(resolved["data_train"]):
        return _fail(f"training CSV not found: {resolved['data_train']}")

    # provenance first: the resolved config lands before any real work
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "config.resolved"), format_resolved(resolved))

    seed = resolved["seed"]
    try:
        train_full = data_mod.load_csv(resolved["data_train"])
        working = train_full
        if resolved["subset"]:
            working = data_mod.stratified_subset(train_full, resolved["subset"], seed)
        val_n = max(1, round(resolved["val_fraction"] * working.n))
        train_part, val_part = data_mod.stratified_split(working, working.n - val_n, seed)
        if resolved["normalization"] == "per_sample":
            stats = data_mod.NormStats(
                mean=np.zeros(resolved["input_len"]),
                std=np.ones(resolved["input_len"]),
                fitted_on=data_mod.PER_SAMPLE_NORM_ID,
            )
        else:
            stats = data_mod.fit_normalizer(train_part)
        train_part = data_mod.apply_normalizer(train_part, stats)
        val_part = data_mod.apply_normalizer(val_part, stats)

        model = build_model(_model_config(resolved))
        print(format_param_report(model))
        print(f"training on {train_part.n} samples, validating on {val_part.n}")
        ckpt, history = train_loop(
            model,
            _train_config(resolved),
            train_part,
            val_part,
            checkpoint_path=os.path.join(out_dir, "checkpoint.bin"),
            norm_stats=stats,
        )
    except DataError as err:
        return _fail(str(err))
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC

    _write(os.path.join(out_dir, "history.csv"), history_to_csv(history))
    text = _report_files(out_dir, np.argmax(ckpt.val_logits, axis=1), val_part.labels)
    print(f"best validation loss {ckpt.best_val_loss:.6f} at epoch {ckpt.epoch}")
    print(text)
    print(f"artifacts written to {out_dir}/")
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.data_test:
        return _fail("no test CSV given (pass --data-test)")
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except (CheckpointError, OSError) as err:
        return _fail(str(err))
    try:
        test_ds = data_mod.load_csv(args.data_test)
    except DataError as err:
        return _fail(str(err))

    model = restore_model(ckpt)
    normed = data_mod.apply_normalizer(test_ds, ckpt.norm_stats())
    logits = infer(model, normed.features)
    loss, acc = score_logits(logits, normed.labels)
    preds = np.argmax(logits, axis=1)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    text = _report_files(out_dir, preds, normed.labels)
    print(text)
    print(f"\ntest loss {loss:.6f}, test accuracy {acc:.4f}")
    print(f"report files written to {out_dir}/")
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except (CheckpointError, OSError) as err:
        return _fail(str(err))
    try:
        features, _ = data_mod.load_features(args.data)
    except DataError as err:
        return _fail(str(err))

    model = restore_model(ckpt)
    probs = predict(model, data_mod.normalize(features, ckpt.norm_stats()))
    preds = np.argmax(probs, axis=1)

    lines = ["index,predicted_class," + ",".join(f"p{c}" for c in range(probs.shape[1]))]
    for i, (label, row) in enumerate(zip(preds, probs)):
        lines.append(f"{i},{label}," + ",".join(f"{p:.17g}" for p in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
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

    # small verification variant: 4 tokens, dropout disabled via eval mode
    cfg = tiny_config(input_len=44, seed=resolved["seed"])
    model = build_model(cfg)
    rng = np.random.default_rng(resolved["seed"])
    batch = rng.normal(size=(2, cfg.input_len))
    labels = rng.integers(0, cfg.n_classes, size=2)

    from .model import forward
    from .train import sparse_ce_loss

    def target():
        return sparse_ce_loss(forward(model, batch, mode="eval"), labels)

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
    pred.add_argument("data", help="CSV of 187-field rows (a 188th label field is ignored)")
    pred.add_argument("--out", help="write predictions.csv here instead of stdout")
    pred.set_defaults(fn=cmd_predict)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    gc.add_argument("--config", help="config file (seed and dimensions)")
    gc.add_argument("--seed", type=int, help="seed for the check model and probe batch")
    gc.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
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

"""Command-line entry point: train, eval, predict, gradcheck.

This module holds the argument parser, the commands and :func:`main`; every
file a command writes goes through :func:`beatformer.output.write_files`.
The settings, their config files and ``config.resolved`` are
:mod:`beatformer.config`'s: a command-line flag overrides the file value of
the config key its dest names. Each command reads and checks all its input
before it writes anything: ``train`` writes its fully resolved config to the
output directory once the training data is loaded, split and normalized and
no output path is a directory, before training, so a bad input writes nothing
and a completed run is reproducible from that file plus the input CSVs. After
each epoch ``train`` writes that epoch's files as one set, so a run that
aborts keeps the epochs it finished.

Exit codes: 0 success, 1 verification failure, 2 usage/input error (running
out of memory included), 3 numerical abort. The commands raise; :func:`main`
alone maps an error to its exit code. The ``--seed``, ``--subset`` and
``--epochs`` flags are read as text and parsed with their config keys, so a
flag and a config file value follow one number grammar.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys

import numpy as np

from . import data as data_mod
from .config import CONFIGS, build_config, format_resolved, resolve
from .errors import CheckpointError, ConfigError, DataError, NumericalError, OutputError
from .metrics import (
    classification_report,
    confusion_matrix,
    confusion_to_csv,
    format_report,
    report_to_csv,
)
from .model import build_model, format_param_report, forward, tiny_config
from .output import refuse_directories, write_files
from .tensor import grad_check
from .train import (
    checkpoint_bytes,
    epochs,
    history_to_csv,
    infer,
    load_checkpoint,
    predict,
    restore_model,
    score_logits,
    sparse_ce_loss,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

REPORT_NAMES = ("report.txt", "report.csv", "confusion.csv")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _report_files(preds, labels, n_classes: int) -> dict:
    cm = confusion_matrix(preds, labels, n_classes)
    report = classification_report(cm)
    return {"report.txt": format_report(report) + "\n", "report.csv": report_to_csv(report),
            "confusion.csv": confusion_to_csv(cm)}


def _training_splits(run, model_cfg):
    """``train``'s input stage: load, subset, split, fit the normalization on
    the training split and normalize both splits in place. Returns the
    training split, the validation split and the stats.

    The loaded matrix is dropped once it is split, so the stage holds at most
    about two copies of the features at once."""
    seed = model_cfg.seed
    working = data_mod.load_csv(run.data_train, model_cfg.input_len, model_cfg.n_classes)
    if run.subset:
        working = data_mod.stratified_subset(working, run.subset, seed)
    val_n = max(1, round(run.val_fraction * working.n))
    n_present = int((data_mod.class_counts(working) > 0).sum())
    if working.n - val_n < n_present:
        raise DataError(f"{working.n} rows of {run.data_train} leave {working.n - val_n} to "
                        f"train on at val_fraction {run.val_fraction}, fewer than the "
                        f"{n_present} classes they hold")
    train_part, val_part = data_mod.stratified_split(working, working.n - val_n, seed)
    del working
    stats = data_mod.fit_normalizer(train_part, run.normalization)
    for ds in (train_part, val_part):
        data_mod.normalize(ds.features, stats)
    return train_part, val_part, stats


def cmd_train(args) -> int:
    resolved = resolve(args.config, vars(args))
    model_cfg, train_cfg, run = (build_config(cls, resolved) for cls in CONFIGS)
    if not run.data_train:
        raise DataError("no training CSV given (set data_train or pass --data-train)")

    # every input is read and checked before anything is written
    train_part, val_part, stats = _training_splits(run, model_cfg)

    # provenance lands before training, once no output path is a directory
    refuse_directories(run.out, ("checkpoint.bin", "history.csv", *REPORT_NAMES))
    write_files(run.out, {"config.resolved": format_resolved(resolved)})

    model = build_model(model_cfg)
    print(format_param_report(model_cfg))
    print(f"training on {train_part.n} samples, validating on {val_part.n}")
    # each epoch lands as one set: the history so far and, when the epoch
    # improved (epoch 0 always does), its checkpoint and reports
    history = []
    for epoch_stats, val_logits, ckpt in epochs(model, train_cfg, train_part, val_part, stats):
        history.append(epoch_stats)
        files = {"history.csv": history_to_csv(history)}
        if ckpt is not None:
            best = epoch_stats
            reports = _report_files(np.argmax(val_logits, axis=1), val_part.labels,
                                    model_cfg.n_classes)
            files.update({"checkpoint.bin": checkpoint_bytes(ckpt), **reports})
        write_files(run.out, files)
    print(f"best validation loss {best.val_loss:.6f} at epoch {best.epoch}")
    print(reports["report.txt"], end="")
    print(f"artifacts written to {run.out}/")
    return EXIT_OK


def _restore(path: str):
    """The model and normalization stats of the checkpoint at ``path``. The
    checkpoint's own weight arrays are dropped: the model holds a copy."""
    ckpt = load_checkpoint(path)
    return restore_model(ckpt), ckpt.norm


def cmd_eval(args) -> int:
    if not args.data_test:
        raise DataError("no test CSV given (pass --data-test)")
    model, norm = _restore(args.checkpoint)
    cfg = model.config
    test_ds = data_mod.load_csv(args.data_test, cfg.input_len, cfg.n_classes)

    data_mod.normalize(test_ds.features, norm)
    logits = infer(model, test_ds.features)
    loss, acc = score_logits(logits, test_ds.labels)
    preds = np.argmax(logits, axis=1)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    reports = _report_files(preds, test_ds.labels, cfg.n_classes)
    write_files(out_dir, reports)
    print(reports["report.txt"], end="")
    print(f"\ntest loss {loss:.6f}, test accuracy {acc:.4f}")
    print(f"report files written to {out_dir}/")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, norm = _restore(args.checkpoint)
    features, _ = data_mod.load_features(args.data, model.config.input_len,
                                         model.config.n_classes)

    probs = predict(model, data_mod.normalize(features, norm))
    preds = np.argmax(probs, axis=1)

    lines = ["index,predicted_class," + ",".join(f"p{c}" for c in range(probs.shape[1]))]
    for i, (label, row) in enumerate(zip(preds, probs)):
        lines.append(f"{i},{label}," + ",".join(f"{p:.17g}" for p in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        write_files(args.out, {"predictions.csv": text})
        print(f"predictions written to {os.path.join(args.out, 'predictions.csv')}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = resolve(args.config, vars(args))["seed"]

    # small verification variant: 4 tokens; a forward without masks applies
    # no dropout
    cfg = tiny_config(input_len=44, seed=seed)
    model = build_model(cfg)
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(2, cfg.input_len))
    labels = rng.integers(0, cfg.n_classes, size=2)

    def target():
        return sparse_ce_loss(forward(model, batch), labels)

    names, params = zip(*model.tensors.items())
    report = grad_check(target, params, names=names)
    print(f"checked {report.n_elements} parameter elements of {model.flat_data.size} "
          f"({len(names)} tensors)")
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
    train.add_argument("--seed", help="run seed (init, shuffling, subsets)")
    train.add_argument("--subset", help="stratified subset size of the train CSV")
    train.add_argument("--epochs", help="override epoch count")
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
    pred.add_argument("data", help="CSV of input_len-field rows (a trailing label is checked, "
                      "then ignored)")
    pred.add_argument("--out", help="write predictions.csv here instead of stdout")
    pred.set_defaults(fn=cmd_predict)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    gc.add_argument("--config", help="config file: every key is checked, only seed is used")
    gc.add_argument("--seed", help="seed for the check model and probe batch")
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
        return _fail("invalid configuration:\n  " + "\n  ".join(err.violations))
    except (DataError, CheckpointError, OutputError) as err:
        return _fail(str(err))
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:
        return _fail(f"{args.command}: out of memory: {err}")


if __name__ == "__main__":
    sys.exit(main())

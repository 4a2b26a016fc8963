"""Benchmark set-up: write one workload's input files into a fresh directory.

    python3 bench/prepare.py --workload eval_bulk --seed 3 --dir .bench_work/x

It runs in its own process, so the memory the set-up uses never shows in
the measuring process's peak RSS. Everything the program later sees is a
file written here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import numpy as np

from corpus import REAL_TEST_COUNTS, proportions, synthetic_beats, write_csv
from program import import_program

WORKLOADS = ("train_default", "eval_bulk", "predict_small")

# train_default cycles through this many corpora per run; its quality
# metrics average over them, because one 128-row validation split alone
# swings the best validation loss by about a tenth between seeds
TRAIN_CORPORA = 4
TRAIN_ROWS = 1280
TRAIN_EPOCHS = 1
# model init seed of every train command: the workload seed varies the data,
# not the initial weights, whose lottery would otherwise dominate val_loss
MODEL_SEED = 0

# the eval/predict checkpoint does not depend on the workload seed: those
# workloads vary their input files, and the model they serve stays fixed
CKPT_ROWS = 1280
CKPT_CORPUS_SEED = (0, 0)

EVAL_ROWS = 2000
PREDICT_ROWS = 16


def train_csv(directory: str, i: int) -> str:
    return os.path.join(directory, f"train{i}.csv")


def checkpoint_dir(directory: str) -> str:
    return os.path.join(directory, "ckpt")


def eval_csv(directory: str) -> str:
    return os.path.join(directory, "eval.csv")


def predict_csv(directory: str) -> str:
    return os.path.join(directory, "small.csv")


def predict_labels(directory: str) -> str:
    """True classes of the predict rows; read by the benchmark, never the program."""
    return os.path.join(directory, "small.labels")


def train_argv(data: str, out: str) -> list[str]:
    return ["train", "--data-train", data, "--out", out,
            "--seed", str(MODEL_SEED), "--epochs", str(TRAIN_EPOCHS)]


def _train_checkpoint(directory: str) -> None:
    cli = import_program().cli
    features, labels = synthetic_beats(CKPT_ROWS, CKPT_CORPUS_SEED)
    data = os.path.join(directory, "ckpt_train.csv")
    write_csv(data, features, labels)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(train_argv(data, checkpoint_dir(directory)))
    if code != 0:
        raise RuntimeError(f"set-up training exited with code {code}")


def prepare(workload: str, seed: int, directory: str) -> None:
    os.makedirs(directory)
    if workload == "train_default":
        for i in range(TRAIN_CORPORA):
            features, labels = synthetic_beats(TRAIN_ROWS, [seed, 1, i])
            write_csv(train_csv(directory, i), features, labels)
        return
    _train_checkpoint(directory)
    if workload == "eval_bulk":
        features, labels = synthetic_beats(EVAL_ROWS, [seed, 2],
                                           proportions(REAL_TEST_COUNTS))
        write_csv(eval_csv(directory), features, labels)
    else:
        # every class appears, so the responses cover all five output rows
        labels = np.arange(PREDICT_ROWS) % 5
        features, _ = synthetic_beats(PREDICT_ROWS, [seed, 3], labels=labels)
        write_csv(predict_csv(directory), features)
        with open(predict_labels(directory), "w", encoding="utf-8") as fh:
            fh.write(",".join(str(int(c)) for c in labels) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for every benchmark command.

Each check reads what one ``beatformer`` command left behind, raises
:class:`CheckFailed` on the first thing that is wrong, and otherwise returns
the quality figures the benchmark reports. The checks recompute what they
can from the raw outputs instead of trusting the program's own summaries.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

N_CLASSES = 5
PROB_SUM_TOL = 1e-12
MACRO_F1_TOL = 1e-12


class CheckFailed(Exception):
    """A command's output is wrong; the message says what and where."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {err}") from None


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None


def _exit_ok(command: str, code) -> None:
    if code != 0:
        raise CheckFailed(f"{command} exited with {code!r}, expected 0")


def report_macro_f1(out_dir: str) -> float:
    """The macro-average F1 written to ``report.csv``."""
    for line in _read(os.path.join(out_dir, "report.csv")).splitlines():
        fields = line.split(",")
        if fields[0] == "macro avg" and len(fields) == 5:
            return _float(fields[3], "report.csv macro avg f1")
    raise CheckFailed("report.csv has no macro avg row")


def read_confusion(out_dir: str) -> list[list[int]]:
    rows = []
    for lineno, line in enumerate(_read(os.path.join(out_dir, "confusion.csv")).splitlines(), 1):
        try:
            rows.append([int(v) for v in line.split(",")])
        except ValueError:
            raise CheckFailed(f"confusion.csv row {lineno} is not integral") from None
    if len(rows) != N_CLASSES or any(len(r) != N_CLASSES for r in rows):
        raise CheckFailed(f"confusion.csv is not {N_CLASSES}x{N_CLASSES}")
    if any(v < 0 for r in rows for v in r):
        raise CheckFailed("confusion.csv has a negative count")
    return rows


def macro_f1(confusion: list[list[int]]) -> float:
    """Unweighted mean of per-class F1, rows true and columns predicted.

    A zero denominator makes that precision, recall or F1 zero.
    """
    k = len(confusion)
    total = Fraction(0)
    for c in range(k):
        tp = confusion[c][c]
        predicted = sum(row[c] for row in confusion)
        actual = sum(confusion[c])
        precision = Fraction(tp, predicted) if predicted else Fraction(0)
        recall = Fraction(tp, actual) if actual else Fraction(0)
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return float(total / k)


def check_train(code, out_dir: str, epochs: int, load_checkpoint) -> dict:
    """``beatformer train``: history, checkpoint and report agree.

    Returns the best validation loss and the validation macro F1.
    """
    _exit_ok("train", code)
    lines = _read(os.path.join(out_dir, "history.csv")).splitlines()
    if not lines or lines[0] != "epoch,train_loss,val_loss,train_acc,val_acc":
        raise CheckFailed("history.csv header is missing or wrong")
    if len(lines) - 1 != epochs:
        raise CheckFailed(f"history.csv has {len(lines) - 1} rows for {epochs} epochs")
    val_losses = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 5 or fields[0] != str(i):
            raise CheckFailed(f"history.csv row {i + 1} is malformed: {line!r}")
        values = [_float(v, f"history.csv row {i + 1}") for v in fields[1:]]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"history.csv row {i + 1} is not finite: {line!r}")
        val_losses.append(values[1])
    try:
        ckpt = load_checkpoint(os.path.join(out_dir, "checkpoint.bin"))
    except (OSError, ValueError) as err:
        raise CheckFailed(f"checkpoint does not load: {err}") from None
    best = min(val_losses)
    if ckpt.best_val_loss != best:
        raise CheckFailed(
            f"checkpoint best_val_loss {ckpt.best_val_loss!r} is not the history "
            f"minimum {best!r}"
        )
    return {"val_loss": best, "macro_f1": report_macro_f1(out_dir)}


def check_eval(code, out_dir: str, stdout: str, n_rows: int) -> dict:
    """``beatformer eval``: the confusion matrix covers every row once and the
    reported macro F1 is the one the matrix gives.

    Returns the printed test loss and the macro F1.
    """
    _exit_ok("eval", code)
    confusion = read_confusion(out_dir)
    total = sum(map(sum, confusion))
    if total != n_rows:
        raise CheckFailed(f"confusion.csv counts {total} rows, the input has {n_rows}")
    reported = report_macro_f1(out_dir)
    recomputed = macro_f1(confusion)
    if abs(reported - recomputed) > MACRO_F1_TOL:
        raise CheckFailed(
            f"report.csv macro F1 {reported!r} != {recomputed!r} from confusion.csv"
        )
    for line in stdout.splitlines():
        if line.startswith("test loss "):
            loss = _float(line.split()[2].rstrip(","), "eval test loss")
            if not math.isfinite(loss):
                raise CheckFailed(f"eval test loss is {loss}")
            return {"val_loss": loss, "macro_f1": reported}
    raise CheckFailed("eval printed no test loss")


def check_predict(code, stdout: str, labels, first_response) -> dict:
    """``beatformer predict``: one well-formed probability row per input row.

    ``first_response`` is the run's first output (None for the first call);
    every later response must match it byte for byte. Returns the mean
    cross-entropy of the rows' true classes.
    """
    _exit_ok("predict", code)
    if first_response is not None and stdout != first_response:
        raise CheckFailed("response differs from the run's first response")
    lines = stdout.splitlines()
    header = "index,predicted_class," + ",".join(f"p{c}" for c in range(N_CLASSES))
    if not lines or lines[0] != header:
        raise CheckFailed("predictions header is missing or wrong")
    if len(lines) - 1 != len(labels):
        raise CheckFailed(f"{len(lines) - 1} prediction rows for {len(labels)} input rows")
    nll = 0.0
    for i, (line, label) in enumerate(zip(lines[1:], labels)):
        fields = line.split(",")
        if len(fields) != 2 + N_CLASSES or fields[0] != str(i):
            raise CheckFailed(f"prediction row {i} is malformed: {line!r}")
        probs = [_float(v, f"prediction row {i}") for v in fields[2:]]
        if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
            raise CheckFailed(f"prediction row {i} has a probability outside [0, 1]")
        if abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
            raise CheckFailed(f"prediction row {i} probabilities sum to {math.fsum(probs)!r}")
        if fields[1] != str(probs.index(max(probs))):
            raise CheckFailed(f"prediction row {i} class {fields[1]} is not the argmax")
        nll -= math.log(max(probs[label], 1e-300))
    return {"val_loss": nll / len(labels)}

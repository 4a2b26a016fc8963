"""Every output check passes on real program output and rejects a corrupted copy."""

import contextlib
import io
import math
import os
import shutil

import numpy as np
import pytest

from checks import CheckFailed, check_eval, check_predict, check_train, macro_f1
from corpus import synthetic_beats, write_csv

EVAL_ROWS = 40
PREDICT_LABELS = [0, 1, 2, 3, 4, 0]


def _cli(argv):
    import beatformer.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = beatformer.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    features, labels = synthetic_beats(80, seed=[9, 1])
    write_csv(str(root / "train.csv"), features, labels)
    code, _ = _cli(["train", "--data-train", str(root / "train.csv"),
                    "--out", str(root / "train"), "--epochs", "2"])
    assert code == 0
    features, labels = synthetic_beats(EVAL_ROWS, seed=[9, 2])
    write_csv(str(root / "eval.csv"), features, labels)
    checkpoint = str(root / "train" / "checkpoint.bin")
    code, eval_stdout = _cli(["eval", checkpoint, "--data-test", str(root / "eval.csv"),
                              "--out", str(root / "eval")])
    assert code == 0
    features, _ = synthetic_beats(len(PREDICT_LABELS), seed=[9, 3], labels=PREDICT_LABELS)
    write_csv(str(root / "small.csv"), features)
    code, predict_stdout = _cli(["predict", checkpoint, str(root / "small.csv")])
    assert code == 0
    return {"root": root, "eval_stdout": eval_stdout, "predict_stdout": predict_stdout}


@pytest.fixture
def train_dir(outputs, tmp_path):
    return shutil.copytree(outputs["root"] / "train", tmp_path / "train")


@pytest.fixture
def eval_dir(outputs, tmp_path):
    return shutil.copytree(outputs["root"] / "eval", tmp_path / "eval")


def _load_checkpoint(path):
    from beatformer.train import load_checkpoint

    return load_checkpoint(path)


def _edit(path, fn):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fn(text))


# -- train -------------------------------------------------------------------


def test_train_check_accepts_real_output(train_dir):
    quality = check_train(0, str(train_dir), 2, _load_checkpoint)
    assert math.isfinite(quality["val_loss"]) and 0.0 <= quality["macro_f1"] <= 1.0


def test_train_check_rejects_nonzero_exit(train_dir):
    with pytest.raises(CheckFailed, match="exited"):
        check_train(3, str(train_dir), 2, _load_checkpoint)


def test_train_check_rejects_missing_epoch_row(train_dir):
    _edit(os.path.join(train_dir, "history.csv"), lambda t: "".join(t.splitlines(True)[:-1]))
    with pytest.raises(CheckFailed, match="rows for 2 epochs"):
        check_train(0, str(train_dir), 2, _load_checkpoint)


def test_train_check_rejects_non_finite_history(train_dir):
    def poison(text):
        lines = text.splitlines(True)
        fields = lines[1].split(",")
        fields[1] = "nan"
        lines[1] = ",".join(fields)
        return "".join(lines)

    _edit(os.path.join(train_dir, "history.csv"), poison)
    with pytest.raises(CheckFailed, match="not finite"):
        check_train(0, str(train_dir), 2, _load_checkpoint)


def test_train_check_rejects_truncated_checkpoint(train_dir):
    path = os.path.join(train_dir, "checkpoint.bin")
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(CheckFailed, match="does not load"):
        check_train(0, str(train_dir), 2, _load_checkpoint)


def test_train_check_rejects_best_loss_that_is_not_the_history_minimum(train_dir):
    def lower_last(text):
        lines = text.splitlines(True)
        fields = lines[-1].split(",")
        fields[2] = repr(float(fields[2]) / 2)
        lines[-1] = ",".join(fields)
        return "".join(lines)

    _edit(os.path.join(train_dir, "history.csv"), lower_last)
    with pytest.raises(CheckFailed, match="history minimum"):
        check_train(0, str(train_dir), 2, _load_checkpoint)


# -- eval --------------------------------------------------------------------


def test_eval_check_accepts_real_output(outputs, eval_dir):
    quality = check_eval(0, str(eval_dir), outputs["eval_stdout"], EVAL_ROWS)
    assert quality["val_loss"] > 0 and 0.0 <= quality["macro_f1"] <= 1.0


def test_eval_check_rejects_nonzero_exit(outputs, eval_dir):
    with pytest.raises(CheckFailed, match="exited"):
        check_eval(2, str(eval_dir), outputs["eval_stdout"], EVAL_ROWS)


def test_eval_check_rejects_confusion_that_misses_a_row(outputs, eval_dir):
    with pytest.raises(CheckFailed, match="counts 40 rows, the input has 41"):
        check_eval(0, str(eval_dir), outputs["eval_stdout"], EVAL_ROWS + 1)


def test_eval_check_rejects_moved_confusion_count(outputs, eval_dir):
    # same total, different matrix: the reported macro F1 no longer follows
    def move_one(text):
        rows = [[int(v) for v in line.split(",")] for line in text.splitlines()]
        c = max(range(5), key=lambda i: rows[i][i])
        rows[c][c] -= 1
        rows[c][(c + 1) % 5] += 1
        return "\n".join(",".join(map(str, r)) for r in rows) + "\n"

    _edit(os.path.join(eval_dir, "confusion.csv"), move_one)
    with pytest.raises(CheckFailed, match="macro F1"):
        check_eval(0, str(eval_dir), outputs["eval_stdout"], EVAL_ROWS)


def test_eval_check_rejects_altered_report(outputs, eval_dir):
    def bump(text):
        out = []
        for line in text.splitlines():
            fields = line.split(",")
            if fields[0] == "macro avg":
                fields[3] = repr(float(fields[3]) + 1e-9)
            out.append(",".join(fields))
        return "\n".join(out) + "\n"

    _edit(os.path.join(eval_dir, "report.csv"), bump)
    with pytest.raises(CheckFailed, match="macro F1"):
        check_eval(0, str(eval_dir), outputs["eval_stdout"], EVAL_ROWS)


def test_eval_check_rejects_missing_test_loss(outputs, eval_dir):
    stdout = outputs["eval_stdout"].replace("test loss", "loss")
    with pytest.raises(CheckFailed, match="no test loss"):
        check_eval(0, str(eval_dir), stdout, EVAL_ROWS)


def test_macro_f1_matches_the_program_on_an_uneven_matrix():
    from beatformer.metrics import classification_report

    cm = [[50, 2, 0, 0, 1], [3, 4, 0, 0, 0], [1, 0, 9, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 6]]
    assert macro_f1(cm) == classification_report(np.array(cm)).macro_f1


# -- predict -----------------------------------------------------------------


def _rewrite_row(stdout, i, fn):
    lines = stdout.splitlines()
    fields = lines[1 + i].split(",")
    lines[1 + i] = ",".join(fn(fields))
    return "\n".join(lines) + "\n"


def test_predict_check_accepts_real_output(outputs):
    stdout = outputs["predict_stdout"]
    quality = check_predict(0, stdout, PREDICT_LABELS, None)
    assert quality["val_loss"] > 0
    assert check_predict(0, stdout, PREDICT_LABELS, stdout) == quality


def test_predict_check_rejects_nonzero_exit(outputs):
    with pytest.raises(CheckFailed, match="exited"):
        check_predict(1, outputs["predict_stdout"], PREDICT_LABELS, None)


def test_predict_check_rejects_missing_row(outputs):
    stdout = "".join(outputs["predict_stdout"].splitlines(True)[:-1])
    with pytest.raises(CheckFailed, match="5 prediction rows for 6 input rows"):
        check_predict(0, stdout, PREDICT_LABELS, None)


def test_predict_check_rejects_non_finite_probability(outputs):
    stdout = _rewrite_row(outputs["predict_stdout"], 2, lambda f: f[:2] + ["nan"] + f[3:])
    with pytest.raises(CheckFailed, match="outside"):
        check_predict(0, stdout, PREDICT_LABELS, None)


def test_predict_check_rejects_probabilities_not_summing_to_one(outputs):
    def nudge(fields):
        fields[2] = repr(float(fields[2]) * (1 - 1e-9))
        return fields

    stdout = _rewrite_row(outputs["predict_stdout"], 0, nudge)
    with pytest.raises(CheckFailed, match="sum to"):
        check_predict(0, stdout, PREDICT_LABELS, None)


def test_predict_check_rejects_class_that_is_not_the_argmax(outputs):
    def wrong_class(fields):
        fields[1] = str((int(fields[1]) + 1) % 5)
        return fields

    stdout = _rewrite_row(outputs["predict_stdout"], 1, wrong_class)
    with pytest.raises(CheckFailed, match="not the argmax"):
        check_predict(0, stdout, PREDICT_LABELS, None)


def test_predict_check_rejects_response_that_differs_from_the_first(outputs):
    stdout = outputs["predict_stdout"]
    with pytest.raises(CheckFailed, match="differs"):
        check_predict(0, stdout + "\n", PREDICT_LABELS, stdout)

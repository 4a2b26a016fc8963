"""End-to-end CLI tests on small synthetic corpora."""

import contextlib
import errno
import io
import math
import os
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from beatformer.cli import build_parser, main
from beatformer.config import (
    MAX_PARAMS,
    SCHEMA,
    ModelConfig,
    RunConfig,
    TrainConfig,
    format_pairs,
    format_resolved,
    parse_config_file,
    read_pairs,
    resolve_config,
)
from beatformer.data import Dataset
from beatformer.errors import ConfigError
from beatformer.model import weight_views
from beatformer.train import META_CASTERS

from conftest import (
    PROPERTY_SETTINGS,
    name_offset,
    params_bytes,
    resealed,
    synthetic_beats,
    write_beats_csv,
)

TINY_MODEL_LINES = """
# small model for fast CLI runs
patch_len = 11
d_model = 8
d_head = 4
heads = 2
encoder_layers = 1
d_ff = 16
mlp_units = 16
dropout = 0.1
"""


@pytest.fixture()
def corpus(tmp_path):
    train = synthetic_beats(240, seed=51, proportions=[0.2] * 5)
    test = synthetic_beats(80, seed=52, proportions=[0.2] * 5)
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    write_beats_csv(train_csv, train)
    write_beats_csv(test_csv, test)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_MODEL_LINES + f"\ndata_train = {train_csv}\n")
    return {"train": str(train_csv), "test": str(test_csv), "cfg": str(cfg), "dir": tmp_path}


def run_train(corpus, out, extra=()):
    return main(
        ["train", "--config", corpus["cfg"], "--out", str(out), "--epochs", "2",
         "--seed", "7", *extra]
    )


class TestConfigHandling:
    def test_parse_and_resolve(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("d_model = 16  # comment\n\nepochs = 3\n")
        values, violations = parse_config_file(str(cfg))
        assert violations == []
        resolved, more = resolve_config(values, {})
        assert more == []
        assert resolved["d_model"] == 16 and resolved["epochs"] == 3
        assert resolved["batch_size"] == 32  # default

    def test_unknown_key_and_bad_value_all_reported(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("wat = 1\nd_model = banana\nepochs = 0\n")
        values, violations = parse_config_file(str(cfg))
        resolved, more = resolve_config(values, {})
        all_violations = violations + more
        text = "\n".join(all_violations)
        assert "wat" in text and "banana" in text and "epochs" in text

    @pytest.mark.parametrize("key, value", [
        ("lr", "inf"), ("eps", "inf"), ("class_weights", "1,inf,1,1,1"),
        ("class_weights", "1,1,nan,1,1"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        _, violations = resolve_config({key: value}, {})
        assert len(violations) == 1 and violations[0].startswith(f"{key} must")
        assert "finite" in violations[0]
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"{key} = {value}\ndata_train = {tmp_path / 'absent.csv'}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} must" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("epochs = 3\n# a comment\nlr = 1e-3\nepochs = 5\n")
        values, violations = parse_config_file(str(cfg))
        assert violations == [f"{cfg}:4: key 'epochs' repeats line 1"]
        assert values["epochs"] == 3
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "key 'epochs' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, name", [
        ("data_train", "tr\nain.csv"), ("data_train", "tr\rain.csv"), ("data_train", "tr#1.csv"),
        ("data_train", "train.csv\t"), ("data_train", "train\udcff.csv"),
        ("out", "ru\nn"), ("out", "run "), ("data_test", "te#st.csv"),
    ])
    def test_value_config_resolved_cannot_carry_exits_2(self, corpus, capsys, key, name):
        # each of these trained, then left a config.resolved that read back
        # another value, or that could not be read or written at all
        path = corpus["dir"] / name
        if key == "data_train":
            path.write_bytes(Path(corpus["train"]).read_bytes())
        out = path if key == "out" else corpus["dir"] / "out"
        flags = {"--out": str(out), "--" + key.replace("_", "-"): str(path)}
        argv = ["train", "--config", corpus["cfg"], "--epochs", "1"]
        assert main(argv + [f"{flag}={value}" for flag, value in flags.items()]) == 2
        assert f"config key {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_cli_overrides_win(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("epochs = 50\nseed = 1\n")
        values, _ = parse_config_file(str(cfg))
        resolved, _ = resolve_config(values, {"epochs": 3, "seed": None})
        assert resolved["epochs"] == 3  # flag wins
        assert resolved["seed"] == 1  # unset flag leaves file value


DEFAULT_RESOLVED = """\
batch_size = 32
beta1 = 0.9
beta2 = 0.999
class_weights = 
d_ff = 128
d_head = 16
d_model = 64
data_test = 
data_train = 
dropout = 0.15
encoder_layers = 4
epochs = 100
eps = 1e-07
heads = 8
input_len = 187
lr = 0.0001
mlp_units = 128,64
n_classes = 5
normalization = standard
out = run
patch_len = 11
positional = learned
seed = 0
subset = 0
val_fraction = 0.1
"""

EVERY_KEY = """\
input_len = 176
patch_len = 16
d_model = 32
d_head = 8
heads = 4
encoder_layers = 2
d_ff = 48
mlp_units = 24, 12
n_classes = 3
dropout = 0.2
positional = sinusoidal
epochs = 7
batch_size = 24
lr = 5e-4
beta1 = 0.85
beta2 = 0.995
eps = 1e-8
val_fraction = 0.25
class_weights = 1,2.5,0.5
normalization = per_sample
seed = 11
subset = 400
out = runs/x
data_train = a.csv
data_test = b.csv
"""

EVERY_KEY_RESOLVED = """\
batch_size = 24
beta1 = 0.85
beta2 = 0.995
class_weights = 1.0,2.5,0.5
d_ff = 48
d_head = 8
d_model = 32
data_test = b.csv
data_train = a.csv
dropout = 0.2
encoder_layers = 2
epochs = 7
eps = 1e-08
heads = 4
input_len = 176
lr = 0.0005
mlp_units = 24,12
n_classes = 3
normalization = per_sample
out = runs/x
patch_len = 16
positional = sinusoidal
seed = 11
subset = 400
val_fraction = 0.25
"""


class TestSchema:
    def test_default_resolved_text(self):
        resolved, violations = resolve_config({}, {})
        assert violations == []
        assert format_resolved(resolved) == DEFAULT_RESOLVED

    def test_every_key_resolved_text(self, tmp_path):
        cfg = tmp_path / "every.cfg"
        cfg.write_text(EVERY_KEY)
        values, violations = parse_config_file(str(cfg))
        assert violations == [] and len(values) == 25
        resolved, violations = resolve_config(values, {})
        assert violations == []
        assert format_resolved(resolved) == EVERY_KEY_RESOLVED

    def test_keys_are_the_config_fields(self):
        # each key names exactly one field: no rename, no field in two configs
        names = [f.name for cls in (ModelConfig, TrainConfig, RunConfig) for f in fields(cls)]
        assert sorted(SCHEMA) == sorted(names)
        assert len(SCHEMA) == len(names) == 25

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_every_flag_names_a_config_key(self, command):
        # a flag overrides the config key its dest names, so a dest that names
        # no key would be dropped silently
        dests = set(vars(build_parser().parse_args([command]))) - {"config", "command", "fn"}
        assert "seed" in dests
        assert dests <= set(SCHEMA), sorted(dests - set(SCHEMA))

    def test_a_field_shared_by_two_configs_has_one_default(self):
        defaults = {}  # field name -> its default in each config that has it
        for cls in (ModelConfig, TrainConfig, RunConfig):
            for f in fields(cls):
                defaults.setdefault(f.name, []).append(f.default)
        # seed lives only in ModelConfig now, so no field is shared at all
        assert {name: d for name, d in defaults.items() if len(d) > 1} == {}
        assert defaults["seed"] == [0]


class TestCodec:
    def test_lines_end_at_crlf_cr_or_lf_only(self):
        data = "a = 1\r\nb = x\x0by\x1cz\u2028w\rc = 3 # note\n\n  d=4".encode("utf-8")
        pairs, problems = read_pairs(data, dict.fromkeys("abcd", str))
        assert problems == []
        assert pairs == {"a": ("1", 1, 0), "b": ("x\x0by\x1cz\u2028w", 2, 7),
                         "c": ("3", 3, 21), "d": ("4", 5, 35)}

    def test_problems_name_their_line_and_byte_offset(self):
        pairs, problems = read_pairs(b"a = 1\nno equals # x\na = 2\nb = \xff\n",
                                     dict.fromkeys("ab", str))
        assert pairs == {"a": ("1", 1, 0)}
        assert problems == [(2, 6, None, "expected 'key = value', got 'no equals'"),
                            (3, 20, None, "key 'a' repeats line 1"),
                            (4, 26, None, "not valid UTF-8")]

    def test_writer_refuses_every_value_that_would_not_read_back(self):
        assert format_pairs([("a", (1, 2)), ("b", ""), ("c", 0.5)]) == "a = 1,2\nb = \nc = 0.5\n"
        with pytest.raises(ConfigError) as err:
            format_pairs([("x", "ok"), ("y", "a#b"), ("z", " pad"), ("w", "\udcff")])
        assert [v.split(":")[0] for v in err.value.violations] == [
            "config key y", "config key z", "config key w"]


class TestTrainCommand:
    def test_artifacts_and_exit_code(self, corpus):
        out = corpus["dir"] / "run1"
        assert run_train(corpus, out) == 0
        for name in ("config.resolved", "history.csv", "checkpoint.bin",
                     "report.txt", "report.csv", "confusion.csv"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
        assert len(history) == 1 + 2  # header + one row per epoch

    def test_rerun_byte_identical_history(self, corpus):
        out_a = corpus["dir"] / "runA"
        out_b = corpus["dir"] / "runB"
        assert run_train(corpus, out_a) == 0
        assert run_train(corpus, out_b) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_report_is_the_restored_checkpoint_on_the_validation_split(self, corpus):
        # the report comes from the logits scored at the best epoch; it must be
        # byte-identical to restoring checkpoint.bin and predicting the
        # validation split again, which is what train did before
        from beatformer import data as data_mod
        from beatformer.cli import _report_files
        from beatformer.train import load_checkpoint, predict, restore_model

        out = corpus["dir"] / "run_report"
        assert run_train(corpus, out) == 0
        ckpt = load_checkpoint(str(out / "checkpoint.bin"))
        full = data_mod.load_csv(corpus["train"])
        val_n = round(0.1 * full.n)
        _, val = data_mod.stratified_split(full, full.n - val_n, 7)
        probs = predict(restore_model(ckpt), data_mod.normalize(val.features, ckpt.norm))
        texts = _report_files(np.argmax(probs, axis=1), val.labels, 5)
        assert sorted(texts) == ["confusion.csv", "report.csv", "report.txt"]
        for name, text in texts.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name

    def test_report_needs_no_second_validation_pass(self, corpus, monkeypatch):
        import beatformer.cli as cli_mod

        def no_restore(ckpt):
            raise AssertionError("train restored the checkpoint to rescore validation")

        monkeypatch.setattr(cli_mod, "restore_model", no_restore)
        assert run_train(corpus, corpus["dir"] / "run_one_pass") == 0

    def test_missing_csv_exits_2_without_partial_outputs(self, corpus):
        out = corpus["dir"] / "run2"
        code = main(["train", "--config", corpus["cfg"], "--out", str(out),
                     "--data-train", "/nonexistent.csv"])
        assert code == 2
        assert not out.exists()

    def test_no_training_csv_exits_2_without_outputs(self, corpus, capsys):
        cfg = corpus["dir"] / "no_data.cfg"
        cfg.write_text(TINY_MODEL_LINES)
        out = corpus["dir"] / "run_no_data"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: no training CSV given "
                                           "(set data_train or pass --data-train)\n")
        assert not out.exists()

    def test_invalid_config_lists_all_violations(self, corpus, capsys):
        cfg = corpus["dir"] / "bad.cfg"
        cfg.write_text("d_model = 0\nheads = -2\nlr = -1\n")
        code = main(["train", "--config", str(cfg), "--out", str(corpus["dir"] / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "d_model" in err and "heads" in err and "lr" in err

    def test_subset_flag(self, corpus):
        out = corpus["dir"] / "run3"
        assert run_train(corpus, out, extra=["--subset", "120"]) == 0
        resolved = (out / "config.resolved").read_text()
        assert "subset = 120" in resolved

    def test_epochs_override_controls_history_length(self, corpus):
        out = corpus["dir"] / "run4"
        assert main(["train", "--config", corpus["cfg"], "--out", str(out),
                     "--epochs", "3", "--seed", "7"]) == 0
        history = (out / "history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + 3

    def test_per_sample_normalization_mode(self, corpus):
        cfg = corpus["dir"] / "persample.cfg"
        cfg.write_text(
            TINY_MODEL_LINES
            + f"\ndata_train = {corpus['train']}\nnormalization = per_sample\n"
        )
        out = corpus["dir"] / "run_ps"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--epochs", "2", "--seed", "7"]) == 0
        # eval must reapply the per-sample transform recorded in the checkpoint
        code = main(["eval", str(out / "checkpoint.bin"),
                     "--data-test", corpus["test"], "--out", str(corpus["dir"] / "ev_ps")])
        assert code == 0
        assert "normalization = per_sample" in (out / "config.resolved").read_text()

    def test_class_weights_config(self, corpus):
        cfg = corpus["dir"] / "weighted.cfg"
        cfg.write_text(
            TINY_MODEL_LINES
            + f"\ndata_train = {corpus['train']}\nclass_weights = 1,2,1,5,1\n"
        )
        out = corpus["dir"] / "run_w"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--epochs", "1", "--seed", "7"]) == 0
        assert "class_weights = 1.0,2.0,1.0,5.0,1.0" in (out / "config.resolved").read_text()

    def test_class_weights_wrong_length_rejected(self, corpus, capsys):
        cfg = corpus["dir"] / "badweights.cfg"
        cfg.write_text(f"data_train = {corpus['train']}\nclass_weights = 1,2\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(corpus["dir"] / "x2")]) == 2
        assert "class_weights" in capsys.readouterr().err

    def test_run_reproducible_from_resolved_config(self, corpus):
        out_a = corpus["dir"] / "orig"
        assert run_train(corpus, out_a, extra=["--subset", "150"]) == 0
        # replaying the resolved config alone (no flags) must reproduce the run
        out_b = corpus["dir"] / "replay"
        code = main(["train", "--config", str(out_a / "config.resolved"),
                     "--out", str(out_b)])
        assert code == 0
        hist_a = (out_a / "history.csv").read_bytes()
        hist_b = (out_b / "history.csv").read_bytes()
        assert hist_a == hist_b

    def test_numerical_abort_exits_3(self, corpus, monkeypatch):
        from beatformer.errors import NumericalError
        import beatformer.cli as cli_mod

        def exploding_epochs(*args, **kwargs):
            raise NumericalError("non-finite training loss inf at epoch 0, batch 1")

        monkeypatch.setattr(cli_mod, "epochs", exploding_epochs)
        out = corpus["dir"] / "boom"
        assert run_train(corpus, out) == 3

    def test_non_finite_gradient_exits_3(self, corpus, monkeypatch, capsys):
        import beatformer.train as train_mod

        real_backward = train_mod.backward

        def poisoned(tape, loss, grads):
            real_backward(tape, loss, grads)
            list(grads.values())[-1][0] = np.nan  # the last weight, head.out.b

        monkeypatch.setattr(train_mod, "backward", poisoned)
        assert run_train(corpus, corpus["dir"] / "nan_grad") == 3
        assert ("numerical abort: non-finite gradient of head.out.b at epoch 0, batch 0"
                in capsys.readouterr().err)

    def test_aborted_run_keeps_the_epochs_it_finished(self, corpus, monkeypatch, capsys):
        # validation losses 0.5, 0.4, then nan: epoch 2 aborts, and the run
        # directory describes epoch 1, the best, in every file
        import beatformer.train as train_mod
        from beatformer.cli import REPORT_NAMES, _report_files
        from beatformer.train import load_checkpoint

        fake_losses = iter([0.5, 0.4, float("nan")])
        scored = []
        real_score = train_mod.score_logits

        def fake_score(logits, labels):
            scored.append((logits, labels))
            return next(fake_losses), real_score(logits, labels)[1]

        monkeypatch.setattr(train_mod, "score_logits", fake_score)
        out = corpus["dir"] / "aborted"
        assert run_train(corpus, out, extra=["--epochs", "3"]) == 3
        assert "non-finite validation loss nan at epoch 2" in capsys.readouterr().err
        rows = [row.split(",") for row in (out / "history.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[2]) for row in rows] == [("0", "0.5"), ("1", "0.4")]
        ckpt = load_checkpoint(str(out / "checkpoint.bin"))
        assert (ckpt.epoch, ckpt.best_val_loss) == (1, float(rows[1][2]))
        logits, labels = scored[1]
        for name, text in _report_files(np.argmax(logits, axis=1), labels, 5).items():
            assert (out / name).read_text() == text, name
        assert sorted(os.listdir(out)) == sorted(
            ["config.resolved", "history.csv", "checkpoint.bin", *REPORT_NAMES])


class TestEvalCommand:
    def test_eval_writes_reports(self, corpus, capsys):
        out = corpus["dir"] / "run5"
        assert run_train(corpus, out) == 0
        eval_out = corpus["dir"] / "eval5"
        code = main(["eval", str(out / "checkpoint.bin"),
                     "--data-test", corpus["test"], "--out", str(eval_out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "weighted avg" in captured
        assert (eval_out / "report.csv").exists()
        assert (eval_out / "confusion.csv").exists()
        counts = np.array(
            [[int(v) for v in line.split(",")]
             for line in (eval_out / "confusion.csv").read_text().strip().splitlines()]
        )
        assert counts.sum() == 80  # every test sample scored

    def test_one_forward_pass_per_block(self, corpus, tmp_path, monkeypatch, capsys):
        import beatformer.train as train_mod

        out = corpus["dir"] / "run10"
        assert run_train(corpus, out) == 0
        big = tmp_path / "big.csv"
        write_beats_csv(big, synthetic_beats(300, seed=54, proportions=[0.2] * 5))
        calls = []
        original = train_mod.forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(train_mod, "forward", counting_forward)
        capsys.readouterr()  # drain the training output
        assert main(["eval", str(out / "checkpoint.bin"), "--data-test", str(big),
                     "--out", str(tmp_path / "eval")]) == 0
        assert train_mod.INFER_BLOCK_ROWS == 64
        assert len(calls) == 5  # ceil(300 / 64); a second pass would make 10
        assert "test loss " in capsys.readouterr().out

    def test_non_finite_field_exits_2_naming_line_and_column(self, corpus, tmp_path,
                                                             capsys):
        out = corpus["dir"] / "run14"
        assert run_train(corpus, out) == 0
        lines = (corpus["dir"] / "test.csv").read_text().splitlines()
        fields = lines[4].split(",")
        fields[20] = "nan"
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()  # drain the training output
        for argv in (["eval", str(out / "checkpoint.bin"), "--data-test", str(bad)],
                     ["predict", str(out / "checkpoint.bin"), str(bad)],
                     ["train", "--config", corpus["cfg"], "--data-train", str(bad),
                      "--out", str(tmp_path / "retrain")]):
            assert main(argv) == 2
            assert "row 5 column 21 holds non-finite value nan" in capsys.readouterr().err

    def test_empty_test_csv_exits_2(self, tmp_path, capsys):
        # refused before the checkpoint is read, so none need exist
        assert main(["eval", str(tmp_path / "absent.bin"), "--data-test", ""]) == 2
        assert capsys.readouterr().err == "error: no test CSV given (pass --data-test)\n"

    def test_bad_checkpoint_exits_2(self, corpus, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage")
        assert main(["eval", str(junk), "--data-test", corpus["test"]]) == 2


@pytest.fixture()
def binary_corpus(tmp_path):
    """A PTB-shaped stand-in: 188-field rows whose labels are 0 and 1 only."""
    paths = {}
    for name, n, seed in (("train", 240, 55), ("test", 80, 56)):
        paths[name] = tmp_path / f"binary_{name}.csv"
        write_beats_csv(paths[name], synthetic_beats(n, seed, labels=np.arange(n) % 2))
    cfg = tmp_path / "binary.cfg"
    cfg.write_text(TINY_MODEL_LINES + f"\nn_classes = 2\ndata_train = {paths['train']}\n")
    return {"train": str(paths["train"]), "test": str(paths["test"]), "cfg": str(cfg)}


def first_label_at_least(path, k):
    """(file line, label) of the first row of ``path`` whose label is >= k."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            label = float(line.rsplit(",", 1)[1])
            if label >= k:
                return lineno, label
    raise AssertionError(f"{path} has no label >= {k}")


def confusion_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()]


class TestShapeFromModelConfig:
    def test_binary_train_eval_predict(self, binary_corpus, tmp_path, capsys):
        out = tmp_path / "binary_run"
        assert main(["train", "--config", binary_corpus["cfg"], "--out", str(out),
                     "--epochs", "2", "--seed", "7"]) == 0
        checkpoint = str(out / "checkpoint.bin")
        eval_out = tmp_path / "binary_eval"
        assert main(["eval", checkpoint, "--data-test", binary_corpus["test"],
                     "--out", str(eval_out)]) == 0
        for directory in (out, eval_out):
            rows = confusion_rows(directory / "confusion.csv")
            assert len(rows) == 2 and all(len(row) == 2 for row in rows)
            names = [line.split(",")[0]
                     for line in (directory / "report.csv").read_text().splitlines()[1:3]]
            assert names == ["0", "1"]
            text_rows = (directory / "report.txt").read_text().splitlines()[2:4]
            assert [line.split()[0] for line in text_rows] == ["0", "1"]
        assert sum(int(v) for row in confusion_rows(eval_out / "confusion.csv")
                   for v in row) == 80
        capsys.readouterr()  # drain the train and eval output
        assert main(["predict", checkpoint, binary_corpus["test"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,predicted_class,p0,p1"
        assert len(lines) == 1 + 80

    def test_label_outside_n_classes_exits_2_naming_the_line(self, corpus, binary_corpus,
                                                            tmp_path, capsys):
        assert main(["train", "--config", binary_corpus["cfg"], "--data-train",
                     corpus["train"], "--out", str(tmp_path / "five_as_two")]) == 2
        lineno, label = first_label_at_least(corpus["train"], 2)
        assert f"{corpus['train']}: row {lineno} label {label} outside {{0..1}}" in \
            capsys.readouterr().err

        out = tmp_path / "binary_run"
        assert main(["train", "--config", binary_corpus["cfg"], "--out", str(out),
                     "--epochs", "1", "--seed", "7"]) == 0
        capsys.readouterr()  # drain the training output
        assert main(["eval", str(out / "checkpoint.bin"), "--data-test", corpus["test"],
                     "--out", str(tmp_path / "eval")]) == 2
        lineno, label = first_label_at_least(corpus["test"], 2)
        assert f"{corpus['test']}: row {lineno} label {label} outside {{0..1}}" in \
            capsys.readouterr().err

    def test_input_len_that_disagrees_with_the_file_exits_2(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY_MODEL_LINES + f"\ninput_len = 100\ndata_train = {corpus['train']}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"{corpus['train']}: row 1 has 188 fields, expected 101" in capsys.readouterr().err

        # a 100-sample model, trained on 101-field rows, refuses 188-field rows
        ds = synthetic_beats(240, seed=57, proportions=[0.2] * 5)
        short_csv = tmp_path / "short.csv"
        write_beats_csv(short_csv, Dataset(ds.features[:, :100], ds.labels))
        out = tmp_path / "short_run"
        assert main(["train", "--config", str(cfg), "--data-train", str(short_csv),
                     "--out", str(out), "--epochs", "1", "--seed", "7"]) == 0
        checkpoint = str(out / "checkpoint.bin")
        capsys.readouterr()  # drain the training output
        assert main(["eval", checkpoint, "--data-test", corpus["test"],
                     "--out", str(tmp_path / "eval")]) == 2
        assert f"{corpus['test']}: row 1 has 188 fields, expected 101" in capsys.readouterr().err
        assert main(["predict", checkpoint, corpus["test"]]) == 2
        assert f"{corpus['test']}: row 1 has 188 fields, expected 100 or 101" in \
            capsys.readouterr().err
        assert main(["predict", checkpoint, str(short_csv)]) == 0


def test_checkpoint_tensor_its_config_does_not_name_exits_2(corpus, tmp_path, capsys):
    # every stored table other than the meta's config's is refused at the
    # stored name that departs from it
    from beatformer.train import load_checkpoint

    cfg = tmp_path / "two_blocks.cfg"
    cfg.write_text(TINY_MODEL_LINES.replace("encoder_layers = 1", "encoder_layers = 2")
                   + f"\ndata_train = {corpus['train']}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--epochs", "1", "--seed", "7"]) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    ckpt = load_checkpoint(str(out / "checkpoint.bin"))
    assert ckpt.config.positional == "learned" and ckpt.config.encoder_layers == 2

    # the writer walks the config's own table, so a file whose table is not
    # its config's is framed by hand
    def with_params(edit):
        return params_bytes(ckpt.config, edit(weight_views(ckpt.config, ckpt.weights)))

    def with_config(**changes):
        return params_bytes(replace(ckpt.config, **changes),
                            weight_views(ckpt.config, ckpt.weights))

    assert blob.count(b"encoder_layers = 2\n") == 1
    fewer_blocks = resealed(blob.replace(b"encoder_layers = 2\n", b"encoder_layers = 1\n"))
    cases = {
        # the file, the tensor its config names where it departs, the one stored
        "meta names 1 of 2 blocks": (fewer_blocks, "head.dense0.w", "block1.attn.w_qkv"),
        "meta names 3 of 2 blocks": (with_config(encoder_layers=3), "block2.attn.w_qkv",
                                     "head.dense0.w"),
        "pos.table under sinusoidal": (with_config(positional="sinusoidal"),
                                       "block0.attn.w_qkv", "pos.table"),
        "missing": (with_params(lambda p: {k: v for k, v in p.items() if k != "block0.ffn.w2"}),
                    "block0.ffn.w2", "block0.ffn.b2"),
        "extra": (with_params(lambda p: {**p, "block2.ffn.w2": p["block0.ffn.w2"]}),
                  "norm.mean", "block2.ffn.w2"),
        # pos.table moved before embed.b
        "reordered": (with_params(lambda p: {"embed.w": p["embed.w"],
                                             "pos.table": p["pos.table"], **p}),
                      "embed.b", "pos.table"),
        "norm.var": (with_params(lambda p: {**p, "norm.var": np.ones(187)}),
                     "norm.mean", "norm.var"),
    }
    capsys.readouterr()  # drain the training output
    for case, (bad_blob, expected, stored) in cases.items():
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bad_blob)
        at = name_offset(bad_blob, stored)
        for argv in (["eval", str(bad), "--data-test", corpus["test"],
                      "--out", str(tmp_path / "eval")],
                     ["predict", str(bad), corpus["test"]]):
            assert main(argv) == 2, case
            assert (f"checkpoint holds tensor {stored!r} where its config names {expected} "
                    f"(at byte offset {at})") in capsys.readouterr().err, case
    assert not (tmp_path / "eval").exists()


def test_main_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch):
    import beatformer.cli as cli_mod

    monkeypatch.setattr(cli_mod.ctypes, "CDLL", lambda name: object())
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"garbage")
    assert main(["predict", str(junk), str(junk)]) == 2


def test_version_1_checkpoint_exits_2_naming_both_versions(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run11"
    assert run_train(corpus, out) == 0
    blob = bytearray((out / "checkpoint.bin").read_bytes())
    blob[8:12] = (1).to_bytes(4, "little")  # format version follows the 8-byte magic
    old = tmp_path / "v1.bin"
    old.write_bytes(blob)
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(old), "--data-test", corpus["test"]],
                 ["predict", str(old), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "version 1" in err and "expected 3" in err


def test_version_2_checkpoint_exits_2_naming_both_versions(corpus, tmp_path, capsys):
    # a format-2 file (no CRC, a second seed as run_seed) is refused, not converted
    out = corpus["dir"] / "run24"
    assert run_train(corpus, out) == 0
    blob = bytearray((out / "checkpoint.bin").read_bytes()[:-4])  # format 2 had no CRC
    blob[8:12] = (2).to_bytes(4, "little")
    old = tmp_path / "v2.bin"
    old.write_bytes(blob.replace(b"normalization = standard\n", b"run_seed = 7\n"))
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(old), "--data-test", corpus["test"]],
                 ["predict", str(old), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "version 2 unsupported (expected 3) (at byte offset 8)" in err


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_negative_seed_exits_2_naming_seed(corpus, tmp_path, capsys, command):
    out = tmp_path / "negative"
    argv = [command, "--seed", "-1"]
    if command == "train":
        argv += ["--data-train", corpus["train"], "--out", str(out)]
    assert main(argv) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_a_negative_seed_exits_2(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run25"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"\nseed = 7\n") == 1
    bad = tmp_path / "negative_seed.bin"
    bad.write_bytes(resealed(blob.replace(b"\nseed = 7\n", b"\nseed = -7\n")))
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        assert "seed must be a non-negative integer, got -7" in capsys.readouterr().err


def test_training_file_named_per_sample_keeps_standard_normalization(corpus, tmp_path,
                                                                     monkeypatch, capsys):
    # the training file's name is provenance only, even when it reads per-sample
    monkeypatch.chdir(tmp_path)
    Path("per-sample").write_bytes(Path(corpus["train"]).read_bytes())
    Path("other.csv").write_bytes(Path(corpus["train"]).read_bytes())
    outputs = []
    for name in ("per-sample", "other.csv"):
        out = tmp_path / f"run_{name}"
        assert main(["train", "--config", corpus["cfg"], "--data-train", name,
                     "--out", str(out), "--epochs", "1", "--seed", "7"]) == 0
        blob = (out / "checkpoint.bin").read_bytes()
        assert b"normalization = standard\n" in blob
        assert f"norm_fitted_on = {name}\n".encode() in blob
        assert main(["eval", str(out / "checkpoint.bin"), "--data-test", corpus["test"],
                     "--out", str(out / "eval")]) == 0
        capsys.readouterr()  # drain the train and eval output
        assert main(["predict", str(out / "checkpoint.bin"), corpus["test"]]) == 0
        files = [(out / f).read_bytes() for f in ("history.csv", "eval/report.txt",
                                                   "eval/report.csv", "eval/confusion.csv")]
        outputs.append((files, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_unparsable_checkpoint_meta_exits_2_naming_the_offset(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run12"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"d_model = 8\n") == 1
    at = blob.index(b"d_model = 8\n")
    bad = tmp_path / "bad_meta.bin"
    bad.write_bytes(resealed(blob.replace(b"d_model = 8\n", b"d_model = x\n")))  # same length
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        # an unparsable value names its own line's offset, not the block's (20)
        assert f"meta key d_model: cannot parse 'x' (at byte offset {at})" in err


def test_checkpoint_config_that_disagrees_with_its_tensors_exits_2(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run16"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"d_model = 8\n") == 1
    bad = tmp_path / "wider.bin"
    bad.write_bytes(resealed(blob.replace(b"d_model = 8\n", b"d_model = 9\n")))  # same length
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        assert (f"tensor embed.w has shape (11, 8), expected (11, 9) (at byte offset "
                f"{name_offset(blob, 'embed.w')})") in capsys.readouterr().err


def test_norm_stats_that_disagree_with_input_len_exit_2(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run18"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"input_len = 187\n") == 1
    bad = tmp_path / "shorter.bin"
    # still 17 tokens of 11, so every parameter shape fits; only the stats do not
    bad.write_bytes(resealed(blob.replace(b"input_len = 187\n", b"input_len = 186\n")))
    rows = [line.split(",") for line in (corpus["dir"] / "test.csv").read_text().splitlines()]
    short = tmp_path / "short.csv"  # 186 samples and the label
    short.write_text("".join(",".join(row[:185] + row[186:]) + "\n" for row in rows))
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", str(short)],
                 ["predict", str(bad), str(short)]):
        assert main(argv) == 2
        assert (f"tensor norm.mean has shape (187,), expected (186,) (at byte offset "
                f"{name_offset(blob, 'norm.mean')})") in capsys.readouterr().err


def tensor_data_offset(blob: bytes, name: str) -> int:
    """Byte offset of the first float64 of tensor ``name`` in a checkpoint."""
    at = name_offset(blob, name) + len(name.encode("utf-8"))
    return at + 4 + 8 * int.from_bytes(blob[at:at + 4], "little")  # past rank and dims


def with_tensor_value(blob: bytes, name: str, element: int, value: float):
    """A checkpoint with one float64 of a tensor set, and that value's offset."""
    at = tensor_data_offset(blob, name) + 8 * element
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:], at


def with_meta_value(blob: bytes, key: str, value: str):
    """A checkpoint with one meta line's value replaced, and that line's offset."""
    at = blob.index(f"\n{key} = ".encode()) + 1
    end = blob.index(b"\n", at) + 1
    line = f"{key} = {value}\n".encode()
    meta_len = int.from_bytes(blob[12:20], "little") + len(line) - (end - at)
    return blob[:12] + meta_len.to_bytes(8, "little") + blob[20:at] + line + blob[end:], at


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("damage, message", [
    (lambda b: with_tensor_value(b, "embed.w", 3, float("nan")),
     "tensor embed.w: element 3 is nan, must be finite"),
    (lambda b: with_tensor_value(b, "head.out.b", 0, float("-inf")),
     "tensor head.out.b: element 0 is -inf, must be finite"),
    (lambda b: with_tensor_value(b, "norm.std", 0, 0.0),
     "tensor norm.std: element 0 is 0.0, must be finite and > 0"),
    (lambda b: with_tensor_value(b, "norm.std", 5, -1.0),
     "tensor norm.std: element 5 is -1.0, must be finite and > 0"),
    (lambda b: with_meta_value(b, "best_val_loss", "nan"),
     "meta key best_val_loss: 'nan' is not finite"),
    (lambda b: with_meta_value(b, "best_val_loss", "inf"),
     "meta key best_val_loss: 'inf' is not finite"),
], ids=["nan-weight", "inf-bias", "zero-std", "negative-std", "nan-loss", "inf-loss"])
def test_checkpoint_that_would_feed_non_finite_numbers_exits_2(tiny_checkpoint, capsys,
                                                              command, damage, message):
    blob, rows, tmp = tiny_checkpoint
    damaged, at = damage(blob)
    path = tmp / "non_finite.bin"
    path.write_bytes(resealed(damaged))
    out = tmp / "non_finite_eval"
    argv = {"eval": ["eval", str(path), "--data-test", rows, "--out", str(out)],
            "predict": ["predict", str(path), rows]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message} (at byte offset {at})" in captured.err
    assert captured.out == "" and not out.exists()


def test_model_too_big_to_build_exits_2_writing_nothing(corpus, tiny_checkpoint, tmp_path,
                                                       capsys):
    # refused by its parameter count before anything is allocated or written
    too_big = f"parameters, more than the {MAX_PARAMS:,} a model may hold"
    _, violations = resolve_config({"heads": "100000000000000"}, {})
    assert violations == [f"the model would hold {ModelConfig(heads=10**14).n_params():,} "
                          + too_big]
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TINY_MODEL_LINES.replace("d_model = 8", "d_model = 1000000000000")
                   + f"\ndata_train = {corpus['train']}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--epochs", "1"]) == 2
    assert too_big in capsys.readouterr().err
    assert not out.exists()

    blob, rows, tmp = tiny_checkpoint
    huge, _ = with_meta_value(blob, "d_model", "1000000000000")
    path = tmp / "huge.bin"
    path.write_bytes(resealed(huge))
    eval_out = tmp / "huge_eval"
    for argv in (["eval", str(path), "--data-test", rows, "--out", str(eval_out)],
                 ["predict", str(path), rows]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: meta block holds an invalid config: the model would hold" in captured.err
        assert "(at byte offset 20)" in captured.err  # the meta block's
        assert captured.out == "" and not eval_out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_running_out_of_memory_exits_2_naming_the_command(corpus, tmp_path, capsys,
                                                         monkeypatch, command):
    import beatformer.cli as cli_mod
    import beatformer.train as train_mod

    def no_room(*args):
        # what numpy raises for an allocation the host cannot give
        raise MemoryError("Unable to allocate 80.0 TiB for an array with shape "
                          "(10995116277760,) and data type float64")

    out = tmp_path / "run"
    assert run_train(corpus, out) == 0
    capsys.readouterr()  # drain the training output
    # the weight buffer of a build, or of a restore, cannot be allocated
    monkeypatch.setattr(cli_mod if command == "train" else train_mod, "build_model", no_room)
    argv = {"train": ["train", "--config", corpus["cfg"], "--out", str(tmp_path / "again")],
            "eval": ["eval", str(out / "checkpoint.bin"), "--data-test", corpus["test"],
                     "--out", str(tmp_path / "eval")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: out of memory: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1_0", "\u0666\u0664", "1_0e-4"])
def test_number_outside_the_ascii_grammar_exits_2(corpus, tiny_checkpoint, tmp_path, capsys,
                                                  value):
    # Python's int and float read digit separators and other scripts' digits,
    # so each would have read as 10, 64 or 0.001
    for key in ("epochs", "d_model", "lr"):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"# numbers\n{key} = {value}\n", encoding="utf-8")
        values, violations = parse_config_file(str(cfg))
        assert key not in values
        assert violations == [f"{cfg}:2: config key {key}: cannot parse {value!r}"]
        assert resolve_config({key: value}, {})[1] == [
            f"config key {key}: cannot parse {value!r}"]
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: config key {key}: cannot parse {value!r}" in capsys.readouterr().err
        assert not out.exists()
    for flag in ("--seed", "--subset", "--epochs"):
        out = tmp_path / "out"
        assert main(["train", "--config", corpus["cfg"], "--out", str(out), flag, value]) == 2
        assert f"config key {flag[2:]}: cannot parse {value!r}" in capsys.readouterr().err
        assert not out.exists()
    blob, rows, tmp = tiny_checkpoint
    for key in ("epoch", "d_model", "dropout"):
        bad, at = with_meta_value(blob, key, value)
        path = tmp / "grammar.bin"
        path.write_bytes(resealed(bad))
        assert main(["predict", str(path), rows]) == 2
        assert (f"meta key {key}: cannot parse {value!r} (at byte offset {at})"
                in capsys.readouterr().err)


def test_missing_input_file_exits_2_naming_the_path(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run19"
    assert run_train(corpus, out) == 0
    missing = str(tmp_path / "absent.csv")
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(out / "checkpoint.bin"), "--data-test", missing],
                 ["predict", str(out / "checkpoint.bin"), missing],
                 ["train", "--config", corpus["cfg"], "--data-train", missing,
                  "--out", str(tmp_path / "retrain")]):
        assert main(argv) == 2
        assert missing in capsys.readouterr().err


def test_non_utf8_input_exits_2_naming_the_line(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run20"
    assert run_train(corpus, out) == 0
    lines = (corpus["dir"] / "test.csv").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"0.", b"\xff.", 1)
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"".join(lines))
    bad_cfg = tmp_path / "latin.cfg"
    bad_cfg.write_bytes(b"epochs = 1\n# caf\xe9\nseed = 0\n")
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(out / "checkpoint.bin"), "--data-test", str(bad)],
                 ["predict", str(out / "checkpoint.bin"), str(bad)],
                 ["train", "--config", corpus["cfg"], "--data-train", str(bad),
                  "--out", str(tmp_path / "retrain")]):
        assert main(argv) == 2
        assert f"{bad}: row 3 is not valid UTF-8" in capsys.readouterr().err
    assert main(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "cfg_run")]) == 2
    assert f"{bad_cfg}:2: not valid UTF-8" in capsys.readouterr().err


def test_non_integral_label_exits_2_naming_the_line(corpus, tmp_path, capsys):
    # a fractional label is refused, not rounded to a class
    lines = (corpus["dir"] / "train.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",2.5"
    bad = tmp_path / "fractional.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = corpus["dir"] / "run24"
    assert run_train(corpus, out, extra=["--data-train", str(bad)]) == 2
    assert f"{bad}: row 4 label 2.5 is not an integer" in capsys.readouterr().err
    assert not out.exists()
    assert run_train(corpus, out) == 0
    capsys.readouterr()  # drain the training output
    assert main(["eval", str(out / "checkpoint.bin"), "--data-test", str(bad)]) == 2
    assert f"{bad}: row 4 label 2.5 is not an integer" in capsys.readouterr().err


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("case", ["bad-label", "subset-too-large", "too-few-rows",
                                  "too-small-to-split"])
def test_train_that_fails_on_its_input_writes_nothing(corpus, tmp_path, capsys, case):
    rows = (corpus["dir"] / "train.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    flags = ["--data-train", str(bad)]
    if case == "bad-label":
        rows[3] = rows[3].rsplit(",", 1)[0] + ",7.0"
        message = f"{bad}: row 4 label 7.0 outside {{0..4}}"
    elif case == "subset-too-large":
        flags += ["--subset", "100000"]
        message = "subset size must lie in [5, 240], got 100000"
    elif case == "too-few-rows":
        # one class, so the training split keeps a single row
        rows = [row for row in rows if row.endswith(",0.0")][:2]
        message = "need at least 2 samples to fit normalization, got 1"
    else:
        # one row of each class: the validation row leaves 4 to train on, too
        # few for a stratified split over 5 classes; no --subset is given
        rows = [next(row for row in rows if row.endswith(f",{c}.0")) for c in range(5)]
        message = (f"error: 5 rows of {bad} leave 4 to train on at val_fraction 0.1, fewer "
                   f"than the 5 classes they hold")
    bad.write_text("\n".join(rows) + "\n")

    fresh = tmp_path / "fresh"
    assert run_train(corpus, fresh, extra=flags) == 2
    assert message in capsys.readouterr().err
    assert not fresh.exists()

    # a failed retrain leaves an earlier run's directory as it was, so its
    # config.resolved still reproduces its checkpoint
    existing = tmp_path / "existing"
    assert run_train(corpus, existing, extra=["--epochs", "1"]) == 0
    before = tree_bytes(existing)
    assert "config.resolved" in before and "checkpoint.bin" in before
    capsys.readouterr()  # drain the training output
    assert run_train(corpus, existing, extra=flags + ["--seed", "9"]) == 2
    assert message in capsys.readouterr().err
    assert tree_bytes(existing) == before


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_checkpoint_exits_2_naming_the_path(corpus, tmp_path, capsys, kind):
    checkpoint = tmp_path / "ckpt.bin"
    if kind == "directory":
        checkpoint.mkdir()
    for argv in (["eval", str(checkpoint), "--data-test", corpus["test"],
                  "--out", str(tmp_path / "eval")],
                 ["predict", str(checkpoint), corpus["test"]]):
        assert main(argv) == 2
        assert f"error: {checkpoint}: cannot read the checkpoint: " in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def with_meta_line(blob: bytes, before: bytes, line: bytes) -> tuple[bytes, int]:
    """A checkpoint with ``line`` inserted into its meta block in front of the
    line ``before``, and the inserted line's byte offset."""
    at = blob.index(before)
    meta_len = int.from_bytes(blob[12:20], "little")  # after the magic and the version
    patched = (blob[:12] + (meta_len + len(line)).to_bytes(8, "little") + blob[20:at]
               + line + blob[at:])
    return patched, at


@pytest.mark.parametrize("line,message", [
    (b"stray text\n", "meta block: expected 'key = value', got 'stray text'"),
    (b"d_model = 8\n", "meta block: key 'd_model' repeats line 3"),
    (b"bogus = 1\n", "meta block: unknown key 'bogus'"),
], ids=["no-equals", "repeated-key", "unknown-key"])
def test_malformed_meta_line_exits_2_naming_its_offset(corpus, tmp_path, capsys, line, message):
    out = corpus["dir"] / "run21"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"d_head = 4\n") == 1
    patched, at = with_meta_line(blob, b"d_head = 4\n", line)  # d_head follows d_model
    bad = tmp_path / "bad_meta.bin"
    bad.write_bytes(resealed(patched))
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        assert f"{message} (at byte offset {at})" in capsys.readouterr().err


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-a-file"])
def test_train_out_that_cannot_be_a_directory_exits_2(corpus, tmp_path, capsys, inside):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "x" if inside else blocker
    assert run_train(corpus, out) == 2
    assert f"cannot make output directory {out}" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def test_eval_out_that_is_a_file_exits_2(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run22"
    assert run_train(corpus, out) == 0
    blocker = tmp_path / "taken"
    blocker.write_text("")
    capsys.readouterr()  # drain the training output
    assert main(["eval", str(out / "checkpoint.bin"), "--data-test", corpus["test"],
                 "--out", str(blocker)]) == 2
    assert f"cannot make output directory {blocker}" in capsys.readouterr().err


def test_predict_out_that_is_a_file_exits_2(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run23"
    assert run_train(corpus, out) == 0
    blocker = tmp_path / "taken"
    blocker.write_text("")
    capsys.readouterr()  # drain the training output
    assert main(["predict", str(out / "checkpoint.bin"), corpus["test"],
                 "--out", str(blocker)]) == 2
    assert f"cannot make output directory {blocker}" in capsys.readouterr().err


def assert_exit_2_naming(err: str, path: Path) -> None:
    assert f"error: cannot write {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["history.csv", "checkpoint.bin", "report.txt", "report.csv",
                                  "confusion.csv"])
def test_train_output_that_cannot_be_written_exits_2_naming_it(corpus, capsys, monkeypatch,
                                                                name):
    import beatformer.cli as cli_mod

    def no_training(*args, **kwargs):
        raise AssertionError("train ran an epoch before it checked its output paths")

    monkeypatch.setattr(cli_mod, "epochs", no_training)
    out = corpus["dir"] / f"blocked_{name}"
    (out / name).mkdir(parents=True)
    assert run_train(corpus, out) == 2
    assert_exit_2_naming(capsys.readouterr().err, out / name)
    assert os.listdir(out) == [name]  # no config.resolved and no temp file


def test_outputs_get_the_mode_a_plain_open_gives(corpus, tmp_path):
    previous = os.umask(0o027)  # not the usual 022, so a fixed 0644 would fail too
    try:
        probe = tmp_path / "probe"
        with open(probe, "w"):
            pass
        out = corpus["dir"] / "run_modes"
        assert run_train(corpus, out) == 0
    finally:
        os.umask(previous)
    mode = probe.stat().st_mode & 0o777
    assert mode == 0o640
    for name in ("checkpoint.bin", "history.csv", "config.resolved", "report.txt"):
        assert (out / name).stat().st_mode & 0o777 == mode, name


def test_eval_output_that_cannot_be_written_exits_2_naming_it(corpus, tmp_path, capsys):
    # the reports land as one set: the two that could be written keep an
    # older run's bytes
    out = corpus["dir"] / "run24"
    assert run_train(corpus, out) == 0
    reports = tmp_path / "reports"
    (reports / "confusion.csv").mkdir(parents=True)
    old = {"report.txt": b"an older run's report\n", "report.csv": b"class,precision\n"}
    for name, blob in old.items():
        (reports / name).write_bytes(blob)
    capsys.readouterr()  # drain the training output
    assert main(["eval", str(out / "checkpoint.bin"), "--data-test", corpus["test"],
                 "--out", str(reports)]) == 2
    assert_exit_2_naming(capsys.readouterr().err, reports / "confusion.csv")
    assert tree_bytes(reports) == old
    assert sorted(os.listdir(reports)) == ["confusion.csv", "report.csv", "report.txt"]


def test_predict_output_that_cannot_be_written_exits_2_naming_it(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run25"
    assert run_train(corpus, out) == 0
    served = tmp_path / "served"
    (served / "predictions.csv").mkdir(parents=True)
    capsys.readouterr()  # drain the training output
    assert main(["predict", str(out / "checkpoint.bin"), corpus["test"],
                 "--out", str(served)]) == 2
    assert_exit_2_naming(capsys.readouterr().err, served / "predictions.csv")


def test_invalid_stored_config_exits_2_naming_the_offset(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run17"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"heads = 2\n") == 1
    bad = tmp_path / "no_heads.bin"
    bad.write_bytes(resealed(blob.replace(b"heads = 2\n", b"heads = 0\n")))  # fails validate
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "heads" in err and "byte offset 20" in err
        assert "invalid configuration" not in err


def test_non_utf8_tensor_name_exits_2_naming_the_offset(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run13"
    assert run_train(corpus, out) == 0
    blob = bytearray((out / "checkpoint.bin").read_bytes())
    start = blob.find(b"embed.w")
    assert start > 0 and blob.count(b"embed.w") == 1
    blob[start] = 0xFF
    bad = tmp_path / "bad_name.bin"
    bad.write_bytes(resealed(blob))
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and f"byte offset {start}" in err


def test_duplicate_tensor_name_exits_2_naming_the_offset(corpus, tmp_path, capsys):
    out = corpus["dir"] / "run15"
    assert run_train(corpus, out) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"block0.ffn.b1") == 1 and blob.count(b"block0.ffn.b2") == 1
    start = blob.find(b"block0.ffn.b2")  # stored after block0.ffn.b1
    bad = tmp_path / "dup.bin"
    bad.write_bytes(resealed(blob.replace(b"block0.ffn.b2", b"block0.ffn.b1")))  # same length
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"checkpoint holds tensor 'block0.ffn.b1' where its config names block0.ffn.b2 "
                f"(at byte offset {start})") in err


def test_per_sample_checkpoint_eval_and_predict_reapply_the_row_transform(corpus, tmp_path,
                                                                         capsys):
    from beatformer.data import load_csv
    from beatformer.metrics import (
        classification_report,
        confusion_matrix,
        confusion_to_csv,
        format_report,
        report_to_csv,
    )
    from beatformer.train import infer, load_checkpoint, predict, restore_model

    cfg = tmp_path / "persample.cfg"
    cfg.write_text(TINY_MODEL_LINES
                   + f"\ndata_train = {corpus['train']}\nnormalization = per_sample\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--epochs", "2", "--seed", "7"]) == 0
    checkpoint = str(out / "checkpoint.bin")
    model = restore_model(load_checkpoint(checkpoint))
    test = load_csv(corpus["test"])
    feats = test.features  # no row is constant, so no std is floored
    normed = (feats - feats.mean(axis=1, keepdims=True)) / feats.std(axis=1, keepdims=True)

    eval_out = tmp_path / "eval"
    assert main(["eval", checkpoint, "--data-test", corpus["test"],
                 "--out", str(eval_out)]) == 0
    cm = confusion_matrix(np.argmax(infer(model, normed), axis=1), test.labels, k=5)
    report = classification_report(cm)
    assert (eval_out / "confusion.csv").read_text() == confusion_to_csv(cm)
    assert (eval_out / "report.csv").read_text() == report_to_csv(report)
    assert (eval_out / "report.txt").read_text() == format_report(report) + "\n"

    capsys.readouterr()  # drain the train and eval output
    assert main(["predict", checkpoint, corpus["test"]]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    probs = predict(model, normed)
    # %.17g round-trips every float64 exactly
    np.testing.assert_array_equal([[float(p) for p in row[2:]] for row in rows], probs)
    assert [int(row[1]) for row in rows] == list(np.argmax(probs, axis=1))
    # the stored identity mean and std alone would give other probabilities
    assert not np.array_equal(probs, predict(model, test.features))


class TestPredictCommand:
    def test_probabilities_shape_and_sum(self, corpus, capsys):
        out = corpus["dir"] / "run6"
        assert run_train(corpus, out) == 0
        capsys.readouterr()  # drain the training output
        code = main(["predict", str(out / "checkpoint.bin"), corpus["test"]])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,predicted_class,p0,p1,p2,p3,p4"
        assert len(lines) == 1 + 80
        for line in lines[1:]:
            fields = line.split(",")
            probs = np.array([float(p) for p in fields[2:]])
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert int(fields[1]) == int(np.argmax(probs))

    def test_unlabeled_rows_accepted(self, corpus, tmp_path, capsys):
        out = corpus["dir"] / "run7"
        assert run_train(corpus, out) == 0
        unlabeled = tmp_path / "unlabeled.csv"
        ds = synthetic_beats(5, seed=53)
        with open(unlabeled, "w") as fh:
            for row in ds.features:
                fh.write(",".join(f"{v:.6f}" for v in row) + "\n")
        capsys.readouterr()  # drain the training output
        assert main(["predict", str(out / "checkpoint.bin"), str(unlabeled)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 5

    def test_deterministic_output(self, corpus, capsys):
        out = corpus["dir"] / "run8"
        assert run_train(corpus, out) == 0
        capsys.readouterr()  # drain the training output
        main(["predict", str(out / "checkpoint.bin"), corpus["test"]])
        first = capsys.readouterr().out
        main(["predict", str(out / "checkpoint.bin"), corpus["test"]])
        second = capsys.readouterr().out
        assert first == second

    def test_malformed_rows_exit_2(self, corpus, tmp_path):
        out = corpus["dir"] / "run9"
        assert run_train(corpus, out) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        assert main(["predict", str(out / "checkpoint.bin"), str(bad)]) == 2


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        import beatformer.tensor as tensor_mod

        original = tensor_mod.relu

        def broken_relu(a, keep=None, p=0.0):
            mask = a.data > 0
            return tensor_mod._out(
                np.maximum(a.data, 0.0), (a,), lambda g: (g * mask * 1.75,)
            )

        monkeypatch.setattr("beatformer.model.relu", broken_relu)
        assert main(["gradcheck", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "worst " in out and "analytic=" in out and "numeric=" in out
        assert original is tensor_mod.relu

    def test_reports_worst_parameter(self, capsys):
        main(["gradcheck", "--seed", "4"])
        out = capsys.readouterr().out
        assert "analytic=" in out and "numeric=" in out

    def test_config_file_is_checked_whole_and_only_its_seed_used(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("d_model = 0\nseed = 3\n")
        assert main(["gradcheck", "--config", str(bad)]) == 2
        assert "d_model must be a positive integer, got 0" in capsys.readouterr().err
        assert main(["gradcheck", "--seed", "3"]) == 0
        by_flag = capsys.readouterr().out
        wide = tmp_path / "wide.cfg"
        wide.write_text("d_model = 32\nheads = 2\nencoder_layers = 6\nseed = 3\n")
        assert main(["gradcheck", "--config", str(wide)]) == 0
        # the same small model and probe as --seed 3: the dimensions are not used
        assert capsys.readouterr().out == by_flag


# generated config files and overrides; seeded, so every run tries the same cases
STRING_KEYS = ["out", "data_train", "data_test"]
# any character, with the ones a config line treats specially drawn often
config_text = st.text(st.one_of(st.sampled_from("#=\n\r \t\x0b\x1c\x85\u2028\udcff"),
                                st.characters()), max_size=12)


def run_main_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


config_line = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA) + ["", "wat", "Seed", "d model"]),
              st.one_of(config_text,
                        st.sampled_from(["0", "-1", "2", "0.5", "1e-4", "inf", "nan", "3,4",
                                         "learned", "per_sample", "9" * 30]))
              ).map(lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8", "surrogatepass")),
    st.binary(max_size=12),
)


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(lines=st.lists(config_line, max_size=8), override=config_text)
def test_generated_config_without_training_data_exits_2(tmp_path_factory, lines, override):
    tmp = tmp_path_factory.getbasetemp()
    cfg = tmp / "generated.cfg"
    cfg.write_bytes(b"\n".join(lines))
    out = tmp / "generated_out"
    code, _ = run_main_quietly(["train", "--config", str(cfg), "--data-train",
                                str(tmp / "absent.csv"), "--out", str(out),
                                f"--data-test={override}"])
    assert code == 2
    assert not out.exists()


@PROPERTY_SETTINGS
@given(key=st.sampled_from(STRING_KEYS), value=config_text)
def test_override_reads_back_from_config_resolved_or_exits_2(tmp_path_factory, key, value):
    tmp = tmp_path_factory.getbasetemp()
    resolved, violations = resolve_config({}, {key: value})
    if not violations:
        cfg = tmp / "resolved.cfg"
        cfg.write_text(format_resolved(resolved), encoding="utf-8")
        values, bad = parse_config_file(str(cfg))
        assert bad == [] and values[key] == value
        return
    argv = {"--data-train": str(tmp / "absent.csv"), "--out": str(tmp / "override_out")}
    argv["--" + key.replace("_", "-")] = value
    code, err = run_main_quietly(["train"] + [f"{flag}={v}" for flag, v in argv.items()])
    assert code == 2
    assert f"config key {key}: " in err


@PROPERTY_SETTINGS
@given(value=config_text)
def test_written_value_reads_back_or_is_refused(value):
    try:
        text = format_pairs([("key", value)])
    except ConfigError:
        return
    pairs, problems = read_pairs(text.encode("utf-8"), {"key": str})
    assert problems == [] and pairs["key"][0] == value


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of an untrained tiny-config checkpoint, a predict input for
    it, and a scratch directory."""
    from beatformer.data import fit_normalizer
    from beatformer.model import build_model, tiny_config
    from beatformer.train import Checkpoint, checkpoint_bytes

    tmp = tmp_path_factory.mktemp("tiny_checkpoint")
    rows = synthetic_beats(3, seed=58)
    write_beats_csv(tmp / "rows.csv", rows)
    model = build_model(tiny_config(encoder_layers=1, seed=58))
    (tmp / "tiny.bin").write_bytes(checkpoint_bytes(Checkpoint(
        config=model.config, weights=model.flat_data, norm=fit_normalizer(rows),
        best_val_loss=1.0, epoch=0)))
    assert main(["predict", str(tmp / "tiny.bin"), str(tmp / "rows.csv")]) == 0
    return (tmp / "tiny.bin").read_bytes(), str(tmp / "rows.csv"), tmp


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(data=st.data())
def test_truncated_or_flipped_checkpoint_exits_2_naming_an_offset(tiny_checkpoint, data):
    blob, rows, tmp = tiny_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        damaged = bytearray(blob)
        damaged[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor")
    path = tmp / "damaged.bin"
    path.write_bytes(damaged)
    code, err = run_main_quietly(["predict", str(path), rows])
    assert code == 2
    assert "(at byte offset " in err


# 187 valid samples; generated rows start from them and a class label
CSV_BASE = [f"{v:.6f}" for v in synthetic_beats(1, seed=59).features[0]]
csv_field = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", "x", " 0.5",
                             "0x1", "1_0", "0", "-3.25", "1e-320"])
csv_label = st.sampled_from(["0", "4.0", "2.0000001", "2.5", "0.5", "-1", "5", "1e400",
                             "nan", "-0.0", "99999999999999999999"])


@st.composite
def csv_text(draw) -> bytes:
    """Labelled rows of :data:`CSV_BASE`, then up to three faults: a bad field
    or label, another width, a blank line or a line of raw (often not UTF-8) bytes."""
    lines = [CSV_BASE + [draw(st.sampled_from("01234"), label="label")]
             for _ in range(draw(st.integers(1, 10), label="rows"))]
    for _ in range(draw(st.integers(0, 3), label="faults")):
        at = draw(st.integers(0, len(lines) - 1), label="at")
        row = list(lines[at])
        fault = draw(st.sampled_from(["field", "label", "width", "blank", "bytes"]))
        if fault == "field":
            row[draw(st.integers(0, len(row) - 1), label="column")] = draw(csv_field)
        elif fault == "label":
            row[-1] = draw(csv_label)
        elif fault == "width":
            row = (row * 2)[:draw(st.one_of(st.just(187), st.integers(1, 2 * len(row))))]
        elif fault == "blank":
            row = [draw(st.sampled_from(["", "  ", "\r"]))]
        else:
            row = [draw(st.binary(min_size=1, max_size=6)).decode("utf-8", "surrogateescape")]
        if fault in ("blank", "bytes"):
            lines.insert(at, row)
        else:
            lines[at] = row
    return b"\n".join(",".join(row).encode("utf-8", "surrogateescape") for row in lines)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(text=csv_text())
def test_generated_csv_exits_0_or_2(tiny_checkpoint, text):
    import shutil

    _, _, tmp = tiny_checkpoint
    csv = tmp / "generated.csv"
    csv.write_bytes(text)
    cfg = tmp / "tiny.cfg"
    cfg.write_text(TINY_MODEL_LINES)
    out = tmp / "csv_out"
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = run_main_quietly(["train", "--config", str(cfg), "--epochs", "1",
                                    "--data-train", str(csv), "--out", str(out)])
        assert code in (0, 2)
        assert code == 0 or not out.exists()
        for argv in (["eval", str(tmp / "tiny.bin"), "--data-test", str(csv),
                      "--out", str(tmp / "eval_out")],
                     ["predict", str(tmp / "tiny.bin"), str(csv)]):
            assert run_main_quietly(argv)[0] in (0, 2)


# a value of each kind a settings line may hold: small, huge, negative and
# malformed numbers, odd strings, and comma lists of numbers
setting_value = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "0.999", "1e-300", "-0.0"]),
    st.sampled_from(["1000000000000", "9" * 30, "1e300", "1e999", "0x1p99"]),
    st.sampled_from(["-1", "-3", "-0.5", "-1e300", "-inf"]),
    st.sampled_from(["1_0", "\u0666\u0664", "1e", ".", "0x10", "1.5.2", "nan", "inf", "",
                     "3,", "2,,1", "1 2"]),
    st.sampled_from(["learned", "sinusoidal", "standard", "per_sample", "x", "#", "a=b",
                     "\u2028", "\udcff", "\x00"]),
    st.lists(st.sampled_from(["1", "2", "0", "-1", "1000000000000", "x"]), min_size=1,
             max_size=3).map(",".join),
)


class Overdue(BaseException):
    """A command ran past its deadline. It is no ``Exception``, so no handler
    in the program can take it for an input error."""


def run_by_deadline(argv, seconds: float = 10.0) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; it must return within
    ``seconds`` and print no traceback."""
    import signal

    def expire(*_):
        raise Overdue(f"{argv[0]} did not exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = run_main_quietly(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert "Traceback" not in err
    return code, err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a huge lr overflows the weights
@settings(PROPERTY_SETTINGS, max_examples=120)
@given(values=st.dictionaries(st.sampled_from(sorted(SCHEMA)), setting_value, max_size=3))
def test_generated_config_file_exits_0_2_or_3(tiny_checkpoint, values):
    import shutil

    _, _, tmp = tiny_checkpoint
    csv = tmp / "settings_train.csv"
    if not csv.exists():
        write_beats_csv(csv, synthetic_beats(30, seed=60, proportions=[0.2] * 5))
    cfg = tmp / "settings.cfg"
    cfg.write_bytes(b"".join(f"{key} = {value}\n".encode("utf-8", "surrogatepass")
                             for key, value in values.items()))
    out = tmp / "settings_out"
    shutil.rmtree(out, ignore_errors=True)
    code, err = run_by_deadline(["train", "--config", str(cfg), "--epochs", "1",
                                 "--data-train", str(csv), "--out", str(out)])
    event(f"exit {code}")
    # a valid but huge lr overflows the weights: the documented numerical abort
    assert code in (0, 2, 3), err
    assert code != 2 or not out.exists()
    assert code != 3 or err.startswith("numerical abort: ")


def with_meta_lines(blob: bytes, edits: dict) -> bytes:
    """A checkpoint whose meta line of each key in ``edits`` holds that value,
    or is left out where the value is None, with its CRC resealed."""
    meta_len = int.from_bytes(blob[12:20], "little")  # after the magic and the version
    meta = b""
    for line in blob[20:20 + meta_len].splitlines(keepends=True):
        key = line.split(b" = ")[0].decode("utf-8")
        if key not in edits:
            meta += line
        elif edits[key] is not None:
            meta += f"{key} = {edits[key]}\n".encode("utf-8", "surrogatepass")
    return resealed(blob[:12] + len(meta).to_bytes(8, "little") + meta
                    + blob[20 + meta_len:])


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(edits=st.dictionaries(st.sampled_from(list(META_CASTERS)),
                             st.one_of(st.none(), setting_value), max_size=2))
def test_generated_checkpoint_meta_exits_0_or_2(tiny_checkpoint, edits):
    import shutil

    blob, rows, tmp = tiny_checkpoint
    path = tmp / "edited_meta.bin"
    path.write_bytes(with_meta_lines(blob, edits))
    out = tmp / "edited_meta_eval"
    shutil.rmtree(out, ignore_errors=True)
    code, err = run_by_deadline(["eval", str(path), "--data-test", rows, "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 2), err
    assert out.exists() == (code == 0)


# padding that Python's float and numpy's C reader strip differently, and
# digits that only Python's float reads
csv_pad = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1f", "\x85",
                           "\xa0", "\u2028", "\u3000", "\ufeff"])
csv_digits = st.sampled_from(["\u0661", "\uff11\u0662", "\u06f3.\u06f5", "1_0", "4_0.0",
                              "\u0660"])


@st.composite
def csv_variant(draw) -> bytes:
    """Labelled rows of :data:`CSV_BASE` with one to three edits: a field
    padded, given non-ASCII or underscored digits or a :data:`csv_field`
    value, or a blank line; then lines ended by LF, CRLF or CR, and maybe a
    UTF-8 BOM."""
    lines = [CSV_BASE + [draw(st.sampled_from("01234"), label="label")]
             for _ in range(draw(st.integers(1, 6), label="rows"))]
    for _ in range(draw(st.integers(1, 3), label="edits")):
        at = draw(st.integers(0, len(lines) - 1), label="at")
        row = lines[at]
        col = draw(st.integers(0, len(row) - 1), label="column")
        edit = draw(st.sampled_from(["pad", "digits", "field", "blank"]))
        if edit == "pad":
            pad = draw(csv_pad)
            row[col] = draw(st.sampled_from([pad + row[col], row[col] + pad,
                                             pad + row[col] + pad]))
        elif edit == "digits":
            row[col] = draw(csv_digits)
        elif edit == "field":
            row[col] = draw(csv_field)
        else:
            lines.insert(at, [draw(st.sampled_from(["", " ", "\t"]))])
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]), label="eol")
    text = eol.join(",".join(row).encode("utf-8") for row in lines)
    return draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf"]), label="bom") + text


def plain_row(column: int = 0, value: str = CSV_BASE[0]) -> bytes:
    """One labelled row of :data:`CSV_BASE` with field ``column`` set to ``value``."""
    row = CSV_BASE + ["3"]
    return (",".join(row[:column] + [value] + row[column + 1:]) + "\n").encode("utf-8")


def loaded(path: str) -> list:
    """What ``load_csv`` and ``load_features`` make of ``path``: the bytes of
    each array they return, or the ``DataError`` message."""
    from beatformer.data import load_csv, load_features
    from beatformer.errors import DataError

    outcomes = []
    for load in (load_csv, load_features):
        try:
            result = load(path, 187)
        except DataError as err:
            outcomes.append(str(err))
            continue
        arrays = ((result.features, result.labels) if isinstance(result, Dataset)
                  else result)
        outcomes.append([None if a is None else (a.shape, a.tobytes()) for a in arrays])
    return outcomes


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(text=st.one_of(csv_text(), csv_variant()))
# files the C reader must hand to the row parser: \x1c padding, which it strips
# and float refuses, 1e400, which both read as inf, and 1_0, which only float reads
@example(text=plain_row() + plain_row(5, "\x1c" + CSV_BASE[5]))
@example(text=plain_row() + plain_row(5, "1e400"))
@example(text=plain_row(5, "1_0") + b"\n" + plain_row())
def test_c_reader_gives_the_row_parsers_bits_or_message(tiny_checkpoint, text):
    from unittest import mock

    import beatformer.data as data_mod

    _, _, tmp = tiny_checkpoint
    csv = tmp / "variant.csv"
    csv.write_bytes(text)
    with mock.patch.object(data_mod, "_read_plain", return_value=None):
        row_parser = loaded(str(csv))
    assert loaded(str(csv)) == row_parser


def test_eval_and_predict_restore_without_drawing(tiny_checkpoint):
    # numpy imports numpy.random on first use, and only drawing uses it
    import subprocess
    import sys

    import beatformer

    _, rows, tmp = tiny_checkpoint
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(beatformer.__file__))}

    def random_loaded_after(code: str) -> str:
        probe = code + "\nprint('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()[-1]

    if random_loaded_after("import sys, numpy") == "True":
        pytest.skip("import numpy alone loads numpy.random with this numpy")
    argvs = [["eval", "tiny.bin", "--data-test", rows, "--out", str(tmp / "fresh_eval")],
             ["predict", "tiny.bin", rows]]
    assert random_loaded_after(
        "import contextlib, io, sys\n"
        "from beatformer.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [main(argv) for argv in {argvs!r}] == [0, 0]") == "False"


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_and_predict_hold_one_copy_of_the_weights(tmp_path, monkeypatch, command):
    import tracemalloc

    import beatformer.train as train_mod
    from beatformer.data import fit_normalizer
    from beatformer.model import build_model
    from beatformer.train import Checkpoint, checkpoint_bytes

    ckpt, csv = str(tmp_path / "ckpt.bin"), str(tmp_path / "rows.csv")
    rows = synthetic_beats(4, seed=61)
    write_beats_csv(csv, rows)
    model = build_model(ModelConfig(seed=61))
    weights = model.flat_data.nbytes
    Path(ckpt).write_bytes(checkpoint_bytes(Checkpoint(
        config=model.config, weights=model.flat_data, norm=fit_normalizer(rows),
        best_val_loss=1.0, epoch=0)))
    del model
    held = []
    original = train_mod.forward

    def measured_forward(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return original(*args)

    monkeypatch.setattr(train_mod, "forward", measured_forward)
    argv = {"eval": ["eval", ckpt, "--data-test", csv, "--out", str(tmp_path)],
            "predict": ["predict", ckpt, csv]}[command]
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    # the model's flat buffer and some bookkeeping when the forward starts;
    # the checkpoint's own weight arrays, kept too, made it two copies
    assert held and held[0] < 1.5 * weights, held[0] / weights


def test_train_input_stage_peaks_under_2_5_feature_matrices(tmp_path):
    import tracemalloc

    from beatformer.cli import _training_splits

    ds = synthetic_beats(20_000, seed=60)
    path = tmp_path / "big.csv"
    np.savetxt(path, np.column_stack([ds.features, ds.labels]), fmt="%.6f", delimiter=",")
    del ds
    tracemalloc.start()
    try:
        train_part, val_part, _ = _training_splits(RunConfig(data_train=str(path)),
                                                   ModelConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 20_000 * 187 * 8
    assert (train_part.n, val_part.n) == (18_000, 2_000)
    assert peak <= 2.5 * matrix, peak / matrix


@pytest.mark.parametrize("label, what", [("1e20", "label 1e+20 outside {0..4}"),
                                         ("2.5", "label 2.5 is not an integer")])
def test_predict_of_a_bad_trailing_label_exits_2_naming_the_line(tiny_checkpoint, capsys,
                                                                label, what):
    # the label is checked as eval checks it, then ignored
    _, rows, tmp = tiny_checkpoint
    lines = Path(rows).read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
    bad = tmp / "bad_label.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["predict", str(tmp / "tiny.bin"), str(bad)]) == 2
    captured = capsys.readouterr()
    assert f"{bad}: row 2 {what}" in captured.err
    assert captured.out == ""


# the files each command writes into its --out
COMMAND_OUTPUTS = {
    "train": ("config.resolved", "checkpoint.bin", "history.csv", "report.txt", "report.csv",
              "confusion.csv"),
    "eval": ("report.txt", "report.csv", "confusion.csv"),
    "predict": ("predictions.csv",),
}


def run_main_silently(argv) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        return run_main_quietly(argv)


class FailingOpen:
    """``open`` for :mod:`beatformer.output` whose ``n``-th call leaves a
    partly written file and raises ``OSError(ENOSPC)``, as a full disk does."""

    def __init__(self, n: int):
        self.n = n
        self.calls = 0

    def __call__(self, path, mode="r", *args, **kwargs):
        self.calls += 1
        fh = open(path, mode, *args, **kwargs)
        if self.calls == self.n:
            with fh:
                fh.write(b"partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fh


@pytest.fixture(scope="module")
def write_sets(tmp_path_factory):
    """A scratch directory, each command's argv for a given --out, and the
    sets of files (name -> bytes) each command writes on a run with no fault,
    in the order it writes them."""
    import beatformer.cli as cli_mod
    import beatformer.output as output_mod

    tmp = tmp_path_factory.mktemp("write_faults")
    data = str(tmp / "train.csv")
    write_beats_csv(data, synthetic_beats(60, seed=61, proportions=[0.2] * 5))
    cfg = tmp / "run.cfg"
    # a rate so high that epoch 1 does not improve, so train writes both kinds of epoch set
    cfg.write_text(TINY_MODEL_LINES + f"\ndata_train = {data}\nlr = 0.3\n")
    ckpt = str(tmp / "model" / "checkpoint.bin")
    argv = {
        "train": lambda out: ["train", "--config", str(cfg), "--out", out, "--epochs", "2",
                              "--seed", "7"],
        "eval": lambda out: ["eval", ckpt, "--data-test", data, "--out", out],
        "predict": lambda out: ["predict", ckpt, data, "--out", out],
    }
    assert run_main_silently(argv["train"](str(tmp / "model")))[0] == 0

    sets = {}
    for command, make_argv in argv.items():
        sets[command] = []

        def recording(directory, files, found=sets[command]):
            found.append({name: blob.encode("utf-8") if isinstance(blob, str) else bytes(blob)
                          for name, blob in files.items()})
            output_mod.write_files(directory, files)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "write_files", recording)
            # the --out the property reuses, since config.resolved names it
            assert run_main_silently(make_argv(str(tmp / command)))[0] == 0
        assert sorted({name for files in sets[command] for name in files}) == sorted(
            COMMAND_OUTPUTS[command])
    assert [len(sets["eval"]), len(sets["predict"])] == [1, 1]
    # train: config.resolved, then one set per epoch, each with the history so
    # far, and with the checkpoint and reports exactly when the epoch improved
    resolved, *epoch_sets = sets["train"]
    assert list(resolved) == ["config.resolved"]
    history = epoch_sets[-1]["history.csv"].splitlines(keepends=True)
    assert len(epoch_sets) == len(history) - 1 == 2
    best, improved = math.inf, []
    for epoch, files in enumerate(epoch_sets):
        assert files["history.csv"] == b"".join(history[:epoch + 2])
        val_loss = float(history[epoch + 1].split(b",")[2])
        improved.append(val_loss < best)
        best = min(best, val_loss)
        assert sorted(files) == sorted(
            ["history.csv"] + improved[-1] * ["checkpoint.bin", *cli_mod.REPORT_NAMES])
    assert improved == [True, False]
    return tmp, argv, sets


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(data=st.data())
def test_a_failed_write_leaves_every_output_old_or_new(write_sets, data):
    """For every n, the n-th file write of train, eval and predict fails with
    ENOSPC: the command exits 2 naming that file, each set written before it
    has landed whole, the failed set has not landed at all, and no temp file
    is left. The old files in --out are drawn."""
    import shutil

    import beatformer.output as output_mod

    tmp, argv, sets = write_sets
    for command, names in COMMAND_OUTPUTS.items():
        old = {name: data.draw(st.binary(max_size=16), label=f"old {command} {name}")
               for name in names if data.draw(st.booleans(), label=f"has {command} {name}")}
        writes = [(i, name) for i, files in enumerate(sets[command]) for name in files]
        for n, (failing_set, failing) in enumerate(writes, start=1):
            out = tmp / command
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            for name, blob in old.items():
                (out / name).write_bytes(blob)
            expected = dict(old)
            for files in sets[command][:failing_set]:
                expected.update(files)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(output_mod, "open", FailingOpen(n), raising=False)
                code, err = run_main_silently(argv[command](str(out)))
            assert code == 2, (command, n)
            assert f"error: cannot write {out / failing}: {os.strerror(errno.ENOSPC)}" in err
            assert [p for p in os.listdir(out) if p.endswith(".tmp")] == []
            assert tree_bytes(out) == expected, (command, n)

"""End-to-end CLI tests on small synthetic corpora."""

import contextlib
import io
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beatformer.cli import (
    SCHEMA,
    RunConfig,
    format_resolved,
    main,
    parse_config_file,
    resolve_config,
)
from beatformer.data import Dataset
from beatformer.model import ModelConfig
from beatformer.train import TrainConfig

from conftest import resealed, synthetic_beats, write_beats_csv

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
        assert values["epochs"] == "3"
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

    def test_a_field_shared_by_two_configs_has_one_default(self):
        defaults = {}  # field name -> its default in each config that has it
        for cls in (ModelConfig, TrainConfig, RunConfig):
            for f in fields(cls):
                defaults.setdefault(f.name, []).append(f.default)
        # seed lives only in ModelConfig now, so no field is shared at all
        assert {name: d for name, d in defaults.items() if len(d) > 1} == {}
        assert defaults["seed"] == [0]


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

    def test_report_is_the_restored_checkpoint_on_the_validation_split(self, corpus, tmp_path):
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
        val = data_mod.apply_normalizer(val, ckpt.norm)
        probs = predict(restore_model(ckpt), val.features)
        _report_files(str(tmp_path), np.argmax(probs, axis=1), val.labels, 5)
        for name in ("report.txt", "report.csv", "confusion.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

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

        def exploding_train_loop(*args, **kwargs):
            raise NumericalError("non-finite training loss inf at epoch 0, batch 1")

        monkeypatch.setattr(cli_mod, "train_loop", exploding_train_loop)
        out = corpus["dir"] / "boom"
        assert run_train(corpus, out) == 3


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
    from beatformer.train import load_checkpoint, save_checkpoint

    cfg = tmp_path / "two_blocks.cfg"
    cfg.write_text(TINY_MODEL_LINES.replace("encoder_layers = 1", "encoder_layers = 2")
                   + f"\ndata_train = {corpus['train']}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--epochs", "1", "--seed", "7"]) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob.count(b"encoder_layers = 2\n") == 1
    fewer_blocks = tmp_path / "one_block.bin"
    fewer_blocks.write_bytes(resealed(blob.replace(b"encoder_layers = 2\n",
                                                   b"encoder_layers = 1\n")))
    ckpt = load_checkpoint(str(out / "checkpoint.bin"))
    assert ckpt.config.positional == "learned"
    sinusoidal = tmp_path / "sinusoidal.bin"
    save_checkpoint(replace(ckpt, config=replace(ckpt.config, positional="sinusoidal")),
                    str(sinusoidal))
    capsys.readouterr()  # drain the training output
    for bad, tensor in ((fewer_blocks, "block1.attn.w_qkv"), (sinusoidal, "pos.table")):
        for argv in (["eval", str(bad), "--data-test", corpus["test"],
                      "--out", str(tmp_path / "eval")],
                     ["predict", str(bad), corpus["test"]]):
            assert main(argv) == 2
            assert f"checkpoint holds tensor {tensor}, which its config does not name" in \
                capsys.readouterr().err


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
    bad = tmp_path / "bad_meta.bin"
    bad.write_bytes(resealed(blob.replace(b"d_model = 8\n", b"d_model = x\n")))  # same length
    capsys.readouterr()  # drain the training output
    for argv in (["eval", str(bad), "--data-test", corpus["test"]],
                 ["predict", str(bad), corpus["test"]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        # the meta block follows the magic, the version and its own length
        assert "'x'" in err and "byte offset 20" in err


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
        assert "parameter embed.w has shape (11, 8), expected (11, 9)" in capsys.readouterr().err


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
        assert "tensor norm.mean has shape (187,), expected (186,) for input_len 186" in \
            capsys.readouterr().err


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


def with_meta_line(blob: bytes, before: bytes, line: bytes) -> tuple[bytes, int]:
    """A checkpoint with ``line`` inserted into its meta block in front of the
    line ``before``, and the inserted line's byte offset."""
    at = blob.index(before)
    meta_len = int.from_bytes(blob[12:20], "little")  # after the magic and the version
    patched = (blob[:12] + (meta_len + len(line)).to_bytes(8, "little") + blob[20:at]
               + line + blob[at:])
    return patched, at


@pytest.mark.parametrize("line,message", [
    (b"stray text\n", "meta line 'stray text' is not 'key = value'"),
    (b"d_model = 8\n", "meta key 'd_model' is given twice"),
], ids=["no-equals", "repeated-key"])
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
        assert "duplicate tensor name 'block0.ffn.b1'" in err and f"byte offset {start}" in err


def test_per_sample_checkpoint_eval_and_predict_reapply_the_row_transform(corpus, tmp_path,
                                                                         capsys):
    from beatformer.data import load_csv, per_sample_normalize
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
    normed = per_sample_normalize(test.features)

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

        def broken_relu(a, keep=None):
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


# generated config files and overrides; seeded, so every run tries the same cases
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)
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



@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of an untrained tiny-config checkpoint, a predict input for
    it, and a scratch directory."""
    from beatformer.data import fit_normalizer
    from beatformer.model import build_model, tiny_config
    from beatformer.train import Checkpoint, save_checkpoint

    tmp = tmp_path_factory.mktemp("tiny_checkpoint")
    rows = synthetic_beats(3, seed=58)
    write_beats_csv(tmp / "rows.csv", rows)
    model = build_model(tiny_config(encoder_layers=1, seed=58))
    save_checkpoint(Checkpoint(config=model.config,
                               params={name: t.data for name, t in model.parameters()},
                               norm=fit_normalizer(rows), best_val_loss=1.0, epoch=0),
                    str(tmp / "tiny.bin"))
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

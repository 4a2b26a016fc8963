"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria needing the real heartbeat CSVs (desk-scale accuracy, byte-identical
reruns on them, ingestion fidelity) run when ``$ECG_DATA_DIR`` points at
``mitbih_train.csv`` / ``mitbih_test.csv`` and skip otherwise; synthetic
stand-ins exercising the identical code paths always run and gate the build.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from beatformer.data import (
    apply_normalizer,
    class_counts,
    fit_normalizer,
    load_csv,
    stratified_split,
    stratified_subset,
)
from beatformer.metrics import classification_report, confusion_matrix
from beatformer.model import (
    REFERENCE_PARAM_COUNT,
    ModelConfig,
    build_model,
    count_params,
    format_param_report,
    forward,
    parameter_breakdown,
    tiny_config,
)
from beatformer.tensor import Tensor, attention, grad_check
from beatformer.train import (
    TrainConfig,
    infer,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    score_logits,
    sparse_ce_loss,
    train_loop,
)

from bench.corpus import REAL_TEST_COUNTS, REAL_TRAIN_COUNTS
from conftest import (
    real_data_dir,
    requires_real_data,
    synthetic_beats,
    write_beats_csv,
)

# majority share of the real test split; the desk-scale bar is this plus 5pp
REAL_MAJORITY_BASELINE = REAL_TEST_COUNTS[0] / sum(REAL_TEST_COUNTS)
DESK_MARGIN = 0.05


def _passed(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


def test_c1_gradient_correctness():
    """Analytic vs central-difference loss gradients over every parameter element."""
    started = time.perf_counter()
    cfg = tiny_config(input_len=44)  # 4 tokens of 11 samples
    model = build_model(cfg)
    rng = np.random.default_rng(2024)
    batch = rng.normal(size=(2, cfg.input_len))
    labels = rng.integers(0, cfg.n_classes, size=2)

    def target():
        return sparse_ce_loss(forward(model, batch), labels)

    report = grad_check(
        target,
        model.param_tensors(),
        eps=1e-5,
        tol=1e-4,
        names=[name for name, _ in model.parameters()],
    )
    elapsed = time.perf_counter() - started
    assert report.passed, report.summary()
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _passed(1, f"max relative error {report.max_rel_error:.2e} over "
               f"{report.n_elements} elements in {elapsed:.1f}s")


def test_c2_attention_weight_invariants():
    """The model's attention weights are row-stochastic on 1,000 random instances.

    Checks the fused ``attention`` op the encoder runs. With a head size equal
    to the token count and every head's value block set to the identity, the
    op's output for sample i, head j is that head's t x t weight matrix itself.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    multi = 0
    for _ in range(1000):
        b = int(rng.integers(1, 4))
        heads = int(rng.integers(1, 4))
        t = int(rng.integers(1, 9))
        qkv = np.empty((b, t, 3, heads, t))  # columns q|k|v, head, d_head = t
        qkv[:, :, :2] = rng.normal(scale=4.0, size=(b, t, 2, heads, t))
        qkv[:, :, 2] = np.eye(t)[None, :, None, :]
        out = attention(Tensor(qkv.reshape(b * t, 3 * heads * t)), b, t, heads, t)
        w = out.data.reshape(b, t, heads, t)  # [sample, query, head, key]
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        multi += b > 1 and heads > 1
    assert multi > 100  # batches of several samples with several heads are covered
    elapsed = time.perf_counter() - started
    _passed(2, f"1,000 random attention instances row-stochastic in {elapsed:.1f}s")


def test_c3_metrics_oracle_equivalence():
    """Report agrees with direct counting; weighted recall equals accuracy."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        preds = rng.integers(0, 5, size=n)
        labels = rng.integers(0, 5, size=n)
        report = classification_report(confusion_matrix(preds, labels, k=5))

        # brute-force oracle by direct counting over the raw pairs
        for c in range(5):
            tp = int(np.sum((preds == c) & (labels == c)))
            predicted = int(np.sum(preds == c))
            actual = int(np.sum(labels == c))
            precision = Fraction(tp, predicted) if predicted else Fraction(0)
            recall = Fraction(tp, actual) if actual else Fraction(0)
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else Fraction(0)
            )
            got = report.classes[c]
            assert got.precision == float(precision)
            assert got.recall == float(recall)
            assert got.f1 == float(f1)
            assert got.support == actual
        assert report.accuracy == float(Fraction(int(np.sum(preds == labels)), n))
        assert report.weighted_recall == report.accuracy
    _passed(3, "1,000 random instances match the direct-counting oracle exactly")


def _overfit_source():
    root = real_data_dir()
    if root is not None:
        return load_csv(str(root / "mitbih_train.csv")), "real train split"
    return synthetic_beats(4000, seed=100), "synthetic corpus"


def test_c4_overfit_oracle():
    """A 64-sample stratified subset is memorized within 300 epochs."""
    started = time.perf_counter()
    source, label = _overfit_source()
    subset = stratified_subset(source, 64, seed=1)
    stats = fit_normalizer(subset)
    normed = apply_normalizer(subset, stats)
    # dropout off: this is a capacity/optimization check, and dropout noise
    # obscures the monotone loss descent being asserted below
    model = build_model(tiny_config(seed=0, dropout=0.0))
    # lr ten times the full-run default: the full-run rate provably cannot
    # close the gap within the 300-epoch bound on this tiny budget
    cfg = TrainConfig(epochs=300, batch_size=32, lr=1e-3)
    # validation set == the training subset: val_acc is eval-mode train accuracy
    _, history = train_loop(model, cfg, normed, normed)
    best = max(h.val_acc for h in history)
    reached = next((h.epoch for h in history if h.val_acc == 1.0), None)
    elapsed = time.perf_counter() - started
    assert reached is not None, f"never reached 100% train accuracy (best {best})"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"

    # the 20-epoch moving minimum of the training loss never increases, and
    # keeps strictly decreasing across windows until the loss has converged
    losses = [h.train_loss for h in history]
    window = 20
    moving_min = [min(losses[i : i + window]) for i in range(len(losses) - window + 1)]
    floor = min(losses)
    for i in range(1, len(moving_min)):
        assert moving_min[i] <= moving_min[i - 1], f"moving minimum rose at window {i}"
    for i in range(len(moving_min) - window):
        if moving_min[i] <= floor * 1.5:
            break  # converged
        assert moving_min[i + window] < moving_min[i], (
            f"no strict progress across windows {i}..{i + window}"
        )

    _passed(4, f"100% train accuracy on {label} at epoch {reached} "
               f"({elapsed:.1f}s, limit 300 epochs); loss moving-min monotone")


def _desk_protocol(train_source, test_source, epochs, seed=11):
    """Criterion 5 protocol: 4,000 train / 500 val / 1,000 test, default model."""
    train_part, rest = stratified_split(train_source, 4000, seed=seed)
    val_part, _ = stratified_split(rest, 500, seed=seed + 1)
    test_part = stratified_subset(test_source, 1000, seed=seed + 2)

    stats = fit_normalizer(train_part)
    train_part = apply_normalizer(train_part, stats)
    val_part = apply_normalizer(val_part, stats)
    test_part = apply_normalizer(test_part, stats)

    model = build_model(ModelConfig(seed=seed))
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr=1e-4)
    ckpt, history = train_loop(model, cfg, train_part, val_part)
    best = restore_model(ckpt)
    loss, acc = score_logits(infer(best, test_part.features), test_part.labels)
    return acc, test_part, history


@requires_real_data
def test_c5_desk_scale_training_real_data():
    """Seeded 4,000/500/1,000 subsets beat the majority baseline by >= 5pp."""
    started = time.perf_counter()
    root = real_data_dir()
    train_source = load_csv(str(root / "mitbih_train.csv"))
    test_source = load_csv(str(root / "mitbih_test.csv"))
    acc, _, _ = _desk_protocol(train_source, test_source, epochs=12)
    elapsed = time.perf_counter() - started
    target = REAL_MAJORITY_BASELINE + DESK_MARGIN
    assert acc > target, f"test accuracy {acc:.4f} <= target {target:.4f}"
    assert elapsed <= 1800.0, f"desk-scale run took {elapsed:.0f}s"
    _passed(5, f"real-data test accuracy {acc:.4f} > {target:.4f} in {elapsed:.0f}s")


def test_c5_desk_scale_training_synthetic_stand_in():
    """Same protocol and margin rule on the synthetic corpus (always runs)."""
    started = time.perf_counter()
    train_source = synthetic_beats(8000, seed=777, source="synthetic-train")
    test_source = synthetic_beats(1500, seed=778, source="synthetic-test")
    acc, test_part, _ = _desk_protocol(train_source, test_source, epochs=3)
    elapsed = time.perf_counter() - started
    majority = class_counts(test_part).max() / test_part.n
    target = max(majority, REAL_MAJORITY_BASELINE) + DESK_MARGIN
    assert acc > target, f"test accuracy {acc:.4f} <= target {target:.4f}"
    assert elapsed <= 1800.0, f"desk-scale run took {elapsed:.0f}s"
    _passed(5, f"synthetic stand-in test accuracy {acc:.4f} > {target:.4f} "
               f"in {elapsed:.0f}s")


def _determinism_runs(tmp_path, train_csv, subset, epochs):
    from beatformer.cli import main

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        code = main([
            "train",
            "--data-train", str(train_csv),
            "--out", str(out),
            "--seed", "11",
            "--subset", str(subset),
            "--epochs", str(epochs),
        ])
        assert code == 0
        outputs.append(out)
    return outputs


@requires_real_data
def test_c6_determinism_real_data(tmp_path):
    started = time.perf_counter()
    root = real_data_dir()
    a, b = _determinism_runs(tmp_path, root / "mitbih_train.csv", subset=4500, epochs=2)
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    _passed(6, f"two seeded real-data runs byte-identical in "
               f"{time.perf_counter() - started:.0f}s")


def test_c6_determinism_synthetic_stand_in(tmp_path):
    started = time.perf_counter()
    corpus = synthetic_beats(5000, seed=321)
    train_csv = tmp_path / "train.csv"
    write_beats_csv(train_csv, corpus)
    a, b = _determinism_runs(tmp_path, train_csv, subset=4500, epochs=2)
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    _passed(6, f"two seeded synthetic runs byte-identical in "
               f"{time.perf_counter() - started:.0f}s")


def test_c7_checkpoint_semantics(tmp_path):
    """Round-trip bit-exactness and the strict best-val-loss rule."""
    train = synthetic_beats(256, seed=61, proportions=[0.2] * 5)
    val = synthetic_beats(96, seed=62, proportions=[0.2] * 5)
    stats = fit_normalizer(train)
    train_n = apply_normalizer(train, stats)
    val_n = apply_normalizer(val, stats)
    model = build_model(tiny_config(seed=3))
    cfg = TrainConfig(epochs=5, batch_size=32, lr=1e-3)
    ckpt, history = train_loop(model, cfg, train_n, val_n, norm_stats=stats)

    val_losses = [h.val_loss for h in history]
    assert ckpt.best_val_loss == min(val_losses)

    path = tmp_path / "best.bin"
    save_checkpoint(ckpt, str(path))
    loaded = load_checkpoint(str(path))
    probe = np.random.default_rng(0).normal(size=(4, 187))
    before = forward(restore_model(ckpt), probe).data
    after = forward(restore_model(loaded), probe).data
    np.testing.assert_array_equal(before, after)
    _passed(7, "save/load round trip bit-identical; best val loss is the "
               "running minimum")


@requires_real_data
def test_c8_ingestion_fidelity_real_data():
    """Per-class counts of the real files match the documented split exactly."""
    root = real_data_dir()
    train = load_csv(str(root / "mitbih_train.csv"))
    test = load_csv(str(root / "mitbih_test.csv"))
    np.testing.assert_array_equal(class_counts(train), REAL_TRAIN_COUNTS)
    np.testing.assert_array_equal(class_counts(test), REAL_TEST_COUNTS)
    assert train.n == sum(REAL_TRAIN_COUNTS) == 87554
    assert test.n == sum(REAL_TEST_COUNTS) == 21892
    _passed(8, "full train/test per-class counts reproduced exactly")


def test_c8_ingestion_fidelity_note():
    """Documents the real-data dependency when the CSVs are absent."""
    if real_data_dir() is not None:
        pytest.skip("real data present; covered by the real-data variant")
    assert sum(REAL_TRAIN_COUNTS) == 87554 and sum(REAL_TEST_COUNTS) == 21892
    print("\n[SKIP->INFO] criterion 8 needs the real CSVs; small-file ingestion "
          "fidelity is covered in tests/test_data.py")


def test_c9_parameter_count_report(caplog):
    """Default build logs total params and the signed reference delta."""
    import logging

    with caplog.at_level(logging.INFO, logger="beatformer.model"):
        model = build_model(ModelConfig())
    total = count_params(model)
    delta = total - REFERENCE_PARAM_COUNT
    assert str(REFERENCE_PARAM_COUNT) in caplog.text.replace(",", "")

    report = format_param_report(model)
    rows = parameter_breakdown(model)
    assert sum(count for _, count in rows) == total
    for component in ("patch embedding", "positional table", "encoder block 0",
                      "classification head"):
        assert any(name.startswith(component) for name, _ in rows)
    assert f"{delta:+,}" in report
    print("\n" + report)
    _passed(9, f"reconciliation table emitted; total {total:,}, "
               f"delta {delta:+,} vs {REFERENCE_PARAM_COUNT:,} (reported, not asserted)")

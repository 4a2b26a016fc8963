"""Tests for the loss, Adam, evaluation, the epoch iterator, and checkpoints."""

import math
import os
import tracemalloc
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from beatformer.config import ModelConfig, TrainConfig
from beatformer.data import Dataset, fit_normalizer, stratified_split
from beatformer.errors import CheckpointError, ConfigError, NumericalError, ShapeError
from beatformer.model import build_model, draw_masks, forward, tiny_config, weight_views
from beatformer.output import write_files
from beatformer.tensor import GradTape, Tensor, backward
from beatformer.train import (
    Adam,
    Checkpoint,
    checkpoint_bytes,
    epochs,
    history_to_csv,
    infer,
    load_checkpoint,
    restore_model,
    score_logits,
    sparse_ce_loss,
)

from conftest import (
    grad_arrays,
    mask_rows,
    name_offset,
    params_bytes,
    resealed,
    synthetic_beats,
    train_to_end,
    unit_norm,
)
from reference import per_tensor_adam_step, sum_then_add_backward


class TestSparseCeLoss:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((3, 5)))
        loss = sparse_ce_loss(logits, [0, 2, 4])
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_saturated_correct_logit(self):
        z = np.zeros((1, 5))
        z[0, 3] = 1e3
        loss = sparse_ce_loss(Tensor(z), [3])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(0)
        za = rng.normal(size=(1, 5))
        zb = rng.normal(size=(1, 5))
        a = sparse_ce_loss(Tensor(za), [1]).item()
        b = sparse_ce_loss(Tensor(zb), [4]).item()
        both = sparse_ce_loss(Tensor(np.vstack([za, zb])), [1, 4]).item()
        assert both == pytest.approx((a + b) / 2.0, abs=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 5))
        labels = [0, 1, 2, 3]
        shift = rng.normal(scale=50.0, size=(4, 1))
        a = sparse_ce_loss(Tensor(z), labels).item()
        b = sparse_ce_loss(Tensor(z + shift), labels).item()
        assert b == pytest.approx(a, abs=1e-9)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1e4, -1e4, 0.0, 0.0, 0.0]])
        assert math.isfinite(sparse_ce_loss(Tensor(z), [1]).item())

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            sparse_ce_loss(Tensor(np.zeros((1, 5))), [5])

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 5))
        logits = Tensor(z)
        grads = grad_arrays(logits)
        with GradTape() as tape:
            loss = sparse_ce_loss(logits, [1, 3])
        backward(tape, loss, grads)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[0, 1] -= 1
        p[1, 3] -= 1
        np.testing.assert_allclose(grads[logits], p / 2.0, atol=1e-12)

    def test_class_weights_reweight_the_mean(self):
        rng = np.random.default_rng(5)
        za = rng.normal(size=(1, 5))
        zb = rng.normal(size=(1, 5))
        a = sparse_ce_loss(Tensor(za), [0]).item()
        b = sparse_ce_loss(Tensor(zb), [2]).item()
        weights = (3.0, 1.0, 1.0, 1.0, 1.0)
        got = sparse_ce_loss(Tensor(np.vstack([za, zb])), [0, 2], weights).item()
        assert got == pytest.approx((3 * a + b) / 4.0, abs=1e-12)

    def test_uniform_class_weights_match_unweighted(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 5))
        labels = [0, 1, 2, 3]
        plain = sparse_ce_loss(Tensor(z), labels).item()
        weighted = sparse_ce_loss(Tensor(z), labels, (2.0,) * 5).item()
        assert weighted == pytest.approx(plain, abs=1e-12)

    def test_weighted_gradient_matches_finite_differences(self):
        from beatformer.tensor import grad_check

        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(3, 5)))
        weights = (2.0, 1.0, 0.5, 1.5, 1.0)
        labels = [1, 4, 0]
        report = grad_check(lambda: sparse_ce_loss(logits, labels, weights), [logits])
        assert report.passed, report.summary()

    def test_class_weight_length_validated(self):
        with pytest.raises(ValueError, match="per class"):
            sparse_ce_loss(Tensor(np.zeros((1, 5))), [0], (1.0, 2.0))


class TestAdam:
    def test_first_step_closed_form(self):
        p = np.zeros(4)
        opt = Adam(p, np.ones(4), TrainConfig(lr=1e-4, eps=1e-7))
        opt.step()
        expected = -1e-4 / (1.0 + 1e-7)  # m_hat = v_hat = 1 on the first step
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        opt = Adam(p, np.zeros(2), TrainConfig())
        opt.step()
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_identical_grad_sequences_bit_identical(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(3, 2)) for _ in range(10)]
        trajectories = []
        for _ in range(2):
            p, g = np.ones((3, 2)), np.zeros((3, 2))
            opt = Adam(p, g, TrainConfig(lr=1e-2))
            for step_grad in grads:
                g[...] = step_grad
                opt.step()
            trajectories.append(p.copy())
        np.testing.assert_array_equal(trajectories[0], trajectories[1])

    def test_step_counter_increments(self):
        opt = Adam(np.ones(2), np.zeros(2), TrainConfig())
        for expected_t in (1, 2, 3):
            opt.step()
            assert opt.t == expected_t

    def test_finite_updates_from_finite_grads(self):
        rng = np.random.default_rng(4)
        p, g = rng.normal(size=8), np.zeros(8)
        opt = Adam(p, g, TrainConfig(lr=0.1))
        for _ in range(50):
            g[...] = rng.normal(scale=1e3, size=8)
            opt.step()
            assert np.all(np.isfinite(p))

    def test_flat_step_equals_the_per_tensor_rule_bit_for_bit(self):
        model = build_model(ModelConfig(seed=8))
        rng = np.random.default_rng(8)
        model.flat_data += rng.normal(scale=0.1, size=model.flat_data.size)
        names = list(model.tensors)
        params = [t.data.copy() for t in model.tensors.values()]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        flat_grad = np.zeros_like(model.flat_data)
        views = model.views(flat_grad)
        opt = Adam(model.flat_data, flat_grad,
                   TrainConfig(lr=1e-3, beta1=0.8, beta2=0.99, eps=1e-7))
        for step in range(1, 6):
            # gradients over six orders of magnitude, some exactly zero
            flat_grad[...] = rng.normal(size=flat_grad.size) * 10.0 ** rng.integers(
                -3, 3, size=flat_grad.size)
            flat_grad[::97] = 0.0
            grads = [views[t].copy() for t in model.tensors.values()]
            opt.step()
            per_tensor_adam_step(params, grads, m, v, step, 1e-3, 0.8, 0.99, 1e-7)
        tensors = model.tensors
        for name, p in zip(names, params):
            assert tensors[name].data.tobytes() == p.tobytes(), name
        assert opt.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


class TestGradientBuffer:
    def test_default_step_fills_the_buffer_as_sum_then_add_did(self):
        # backward adds each contribution into the zeroed buffer as it comes;
        # the earlier rule summed a leaf's contributions, then added the sum
        model = build_model(ModelConfig(seed=5))
        batch = synthetic_beats(32, seed=5)
        masks = draw_masks(model.config, 32, np.random.default_rng(5))
        with GradTape() as tape:
            loss = sparse_ce_loss(forward(model, batch.features, masks), batch.labels)
        assert len(tape) == 40
        buffers = []
        for rule in (backward, sum_then_add_backward):
            flat_grad = np.zeros_like(model.flat_data)
            rule(tape, loss, model.views(flat_grad))
            buffers.append(flat_grad)
        assert np.count_nonzero(buffers[0]) > buffers[0].size // 2
        assert buffers[0].tobytes() == buffers[1].tobytes()

    def test_default_step_tape_holds_only_what_backward_reads(self):
        # records name tensors by key and rules keep only the arrays they read,
        # so the attn.w_o output, the pre-ReLU and ffn.w2 outputs of each block
        # are freed once consumed; the dropout masks take one byte per entry
        model = build_model(ModelConfig(seed=5))
        batch = synthetic_beats(32, seed=5)
        grads = model.views(np.zeros_like(model.flat_data))
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            # drawn and dropped inside the window, as when the forward drew them
            masks = draw_masks(model.config, 32, rng)
            with GradTape() as tape:
                loss = sparse_ce_loss(forward(model, batch.features, masks), batch.labels)
            del masks
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(tape, loss, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 17.9 and 21.5 MiB; records that held their tensors, with float64
        # masks, kept 24.3 MiB live and peaked at 27.9 MiB
        assert live <= 20 * 2**20, live / 2**20
        assert peak <= 24 * 2**20, peak / 2**20

    def test_half_batch_steps_with_sliced_masks_sum_to_the_whole_step(self):
        # two 16-row shards, each with its rows of the step's masks and its
        # gradient scaled by its share of the batch's class weight, sum to the
        # whole batch's gradient (not bit for bit: X^T G sums in another order)
        model = build_model(ModelConfig(seed=7))
        batch = synthetic_beats(32, seed=7)
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        masks = draw_masks(model.config, 32, np.random.default_rng(7))

        def step(s, e):
            flat_grad = np.zeros_like(model.flat_data)
            with GradTape() as tape:
                loss = sparse_ce_loss(
                    forward(model, batch.features[s:e],
                            mask_rows(masks, s, e, model.config.n_tokens)),
                    batch.labels[s:e], weights)
            backward(tape, loss, model.views(flat_grad))
            return flat_grad

        whole = step(0, 32)
        label_w = np.asarray(weights)[batch.labels]
        shards = sum(step(s, e) * (label_w[s:e].sum() / label_w.sum())
                     for s, e in ((0, 16), (16, 32)))
        assert np.abs(whole).max() > 0.1
        np.testing.assert_allclose(shards, whole, rtol=0, atol=1e-12)

    def test_restored_model_holds_weights_only(self):
        source = build_model(ModelConfig(seed=6))
        ckpt = Checkpoint(config=source.config, weights=source.flat_data.copy(),
                          norm=fit_normalizer(synthetic_beats(8, seed=6)),
                          best_val_loss=1.0, epoch=0)
        tracemalloc.start()
        try:
            model = restore_model(ckpt)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the weights and some bookkeeping; a gradient buffer would double it
        assert held < 2 * model.flat_data.nbytes, held / model.flat_data.nbytes


class TestEvaluate:
    def test_constant_logits_accuracy_is_class_frequency(self):
        model = build_model(tiny_config(seed=1))
        for t in model.tensors.values():
            t.data[...] = 0.0
        model.tensors["head.out.b"].data[...] = [0.0, 0.0, 1.0, 0.0, 0.0]  # always predicts V
        ds = synthetic_beats(200, seed=5)
        loss, acc = score_logits(infer(model, ds.features), ds.labels)
        freq = (ds.labels == 2).mean()
        assert acc == pytest.approx(freq)
        assert math.isfinite(loss)

    def test_short_tail_batch_weighted_correctly(self):
        # 97 rows: one 64-row block, then a 33-row tail
        model = build_model(tiny_config(seed=2))
        ds = synthetic_beats(97, seed=6)
        loss_batched, acc_batched = score_logits(infer(model, ds.features), ds.labels)
        loss_whole, acc_whole = score_logits(forward(model, ds.features).data, ds.labels)
        assert loss_batched == pytest.approx(loss_whole, abs=1e-12)
        assert acc_batched == acc_whole

    def test_block_size_changes_no_logit(self):
        model = build_model(ModelConfig())
        features = synthetic_beats(300, seed=8).features
        whole = forward(model, features).data
        np.testing.assert_array_equal(infer(model, features), whole)
        # a slice starting at another row puts every block edge elsewhere
        for start in (7, 63, 200):
            np.testing.assert_array_equal(infer(model, features[start:]), whole[start:])
        # numpy hands a one-row matmul (the classifier head of a one-row input)
        # to BLAS gemv rather than gemm, which sums in another order
        alone = np.vstack([infer(model, features[i:i + 1]) for i in range(20)])
        np.testing.assert_allclose(alone, whole[:20], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [65, 129])
    def test_last_row_of_a_file_gets_the_bits_it_gets_in_any_other(self, n):
        # n = 1 (mod 64) rows would leave a one-row last block, whose matmuls
        # go to BLAS gemv; infer folds it into the block before
        model = build_model(ModelConfig())
        features = synthetic_beats(n, seed=10).features
        np.testing.assert_array_equal(infer(model, features), forward(model, features).data)

    def test_default_blocks_bound_peak_memory(self):
        model = build_model(ModelConfig())
        features = synthetic_beats(512, seed=9).features
        tracemalloc.start()
        try:
            infer(model, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 6.0 MiB in 64-row blocks; 256-row blocks peaked at 23.7 MiB
        assert peak <= 8 * 2**20

    def test_accuracy_bounds(self):
        model = build_model(tiny_config(seed=3))
        ds = synthetic_beats(64, seed=7)
        _, acc = score_logits(infer(model, ds.features), ds.labels)
        assert 0.0 <= acc <= 1.0


def quick_sets(n_train=96, n_val=32):
    train = synthetic_beats(n_train, seed=11, proportions=[0.2] * 5)
    val = synthetic_beats(n_val, seed=12, proportions=[0.2] * 5)
    return train, val


class TestTrainLoop:
    """The epoch iterator, :func:`beatformer.train.epochs`."""

    def test_history_and_checkpoint_semantics(self, tmp_path):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=4))
        cfg = TrainConfig(epochs=4, batch_size=32, lr=1e-3)
        ckpt, history = train_to_end(model, cfg, train, val)
        assert len(history) == 4
        val_losses = [h.val_loss for h in history]
        assert ckpt.best_val_loss == min(val_losses)
        assert ckpt.epoch == val_losses.index(min(val_losses))
        path = tmp_path / "ckpt.bin"
        path.write_bytes(checkpoint_bytes(ckpt))
        loaded = load_checkpoint(str(path))
        assert (loaded.epoch, loaded.best_val_loss) == (ckpt.epoch, ckpt.best_val_loss)
        # the running minimum property
        running = math.inf
        for h in history:
            running = min(running, h.val_loss)
        assert ckpt.best_val_loss == running

    def test_one_epoch_per_next(self):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=4))
        run = epochs(model, TrainConfig(epochs=3, batch_size=32), train, val,
                     fit_normalizer(train))
        assert [next(run)[0].epoch for _ in range(3)] == [0, 1, 2]
        with pytest.raises(StopIteration):
            next(run)

    def test_determinism_end_to_end(self):
        train, val = quick_sets()
        histories = []
        for _ in range(2):
            model = build_model(tiny_config(seed=5))
            cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-3)
            _, history = train_to_end(model, cfg, train, val)
            histories.append(history)
        assert histories[0] == histories[1]

    def test_loss_decreases_on_learnable_data(self):
        train, val = quick_sets(n_train=128)
        model = build_model(tiny_config(seed=6))
        cfg = TrainConfig(epochs=8, batch_size=32, lr=3e-3)
        _, history = train_to_end(model, cfg, train, val)
        assert history[-1].train_loss < history[0].train_loss

    def test_non_finite_loss_aborts_with_diagnostics(self):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=7))
        model.tensors["embed.w"].data[0, 0] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=32)
        with np.errstate(invalid="ignore"):  # the injected inf is the point
            with pytest.raises(NumericalError, match=r"epoch 0, batch 0"):
                train_to_end(model, cfg, train, val)

    def test_non_finite_gradient_aborts_before_its_step(self, monkeypatch):
        # a gradient that is not finite while the loss is never reaches the
        # weights; the abort names the first such tensor in table order
        import beatformer.train as train_mod

        train, val = quick_sets()
        model = build_model(tiny_config(seed=7))
        real_backward, before = train_mod.backward, []

        def poisoned(tape, loss, grads):
            real_backward(tape, loss, grads)
            before.append(model.flat_data.copy())
            if len(before) == 2:
                grads[model.tensors["head.out.b"]][1] = np.nan
                grads[model.tensors["block1.ffn.b2"]][0] = -np.inf

        monkeypatch.setattr(train_mod, "backward", poisoned)
        with pytest.raises(NumericalError, match=r"^non-finite gradient of block1\.ffn\.b2 at "
                                                 r"epoch 0, batch 1$"):
            train_to_end(model, TrainConfig(epochs=1, batch_size=32), train, val)
        assert len(before) == 2
        assert model.flat_data.tobytes() == before[1].tobytes()

    def test_non_finite_validation_loss_aborts_with_the_epoch(self):
        train, val = quick_sets()
        val.features[0, 0] = np.inf
        model = build_model(tiny_config(seed=7))
        cfg = TrainConfig(epochs=2, batch_size=32)
        with np.errstate(invalid="ignore"):  # the injected inf is the point
            with pytest.raises(NumericalError, match=r"validation loss nan at epoch 0"):
                train_to_end(model, cfg, train, val)

    def test_best_checkpoint_carries_its_validation_logits(self):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=4))
        cfg = TrainConfig(epochs=3, batch_size=32, lr=1e-3)
        yielded = list(epochs(model, cfg, train, val, fit_normalizer(train)))
        assert yielded[0][2] is not None  # epoch 0 always improves
        for stats, logits, ckpt in yielded:
            assert score_logits(logits, val.labels) == (stats.val_loss, stats.val_acc)
            if ckpt is not None:
                # a snapshot: later epochs leave the weights it holds alone
                np.testing.assert_array_equal(logits, infer(restore_model(ckpt), val.features))
                assert (ckpt.epoch, ckpt.best_val_loss) == (stats.epoch, stats.val_loss)

    def test_invalid_train_config_rejected(self):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=8))
        with pytest.raises(ConfigError) as err:
            next(epochs(model, TrainConfig(epochs=0, lr=-1.0), train, val, fit_normalizer(train)))
        assert "epochs" in str(err.value) and "lr" in str(err.value)

    def test_checkpoint_written_only_on_strict_improvement(self, monkeypatch):
        train, val = quick_sets()
        model = build_model(tiny_config(seed=9))
        import beatformer.train as train_mod

        fake_losses = iter([0.5, 0.4, 0.45])
        real_score = train_mod.score_logits

        def fake_score(logits, labels):
            _, acc = real_score(logits, labels)
            return next(fake_losses), acc

        monkeypatch.setattr(train_mod, "score_logits", fake_score)
        cfg = TrainConfig(epochs=3, batch_size=32)
        run = epochs(model, cfg, train, val, fit_normalizer(train))
        checkpoints = [ckpt for _, _, ckpt in run]
        # epoch 2 (0.45) does not improve on 0.4
        assert [c.epoch if c else None for c in checkpoints] == [0, 1, None]
        assert checkpoints[1].best_val_loss == 0.4


def save(ckpt: Checkpoint, path) -> None:
    Path(path).write_bytes(checkpoint_bytes(ckpt))


class TestCheckpointIO:
    def make_checkpoint(self, seed=13):
        train, val = quick_sets(48, 16)
        stats = fit_normalizer(train)
        model = build_model(tiny_config(seed=seed))
        cfg = TrainConfig(epochs=2, batch_size=16)
        ckpt, _ = train_to_end(model, cfg, train, val, stats)
        return ckpt, model

    def test_roundtrip_forward_bit_identical(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = str(tmp_path / "model.bin")
        save(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert loaded.epoch == ckpt.epoch
        assert loaded.config == ckpt.config  # its seed is the run's
        assert loaded.norm.mode == ckpt.norm.mode == "standard"
        assert loaded.norm.fitted_on == ckpt.norm.fitted_on
        np.testing.assert_array_equal(loaded.norm.mean, ckpt.norm.mean)

        batch = np.random.default_rng(0).normal(size=(3, 187))
        a = forward(restore_model(ckpt), batch).data
        b = forward(restore_model(loaded), batch).data
        np.testing.assert_array_equal(a, b)

    def test_provenance_holding_other_line_separators_roundtrips(self, tmp_path):
        # meta lines end in "\n" alone, so a data path may hold any other separator
        ckpt, _ = self.make_checkpoint()
        fitted_on = "beats\x0bform\x1cfeed\u2028.csv"
        ckpt = replace(ckpt, norm=replace(ckpt.norm, fitted_on=fitted_on))
        path = str(tmp_path / "model.bin")
        save(ckpt, path)
        assert load_checkpoint(path).norm.fitted_on == fitted_on

    @pytest.mark.parametrize("fitted_on", ["tr\nain.csv", "tr\rain.csv", "tr#1.csv",
                                           "train.csv ", "train\udcff.csv"])
    def test_meta_that_would_not_read_back_is_never_written(self, tmp_path, fitted_on):
        # a file that its own loader would refuse is never written
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        save(ckpt, path)
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="config key norm_fitted_on: .* would not read back"):
            save(replace(ckpt, norm=replace(ckpt.norm, fitted_on=fitted_on)), path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["model.bin"]

    @pytest.mark.parametrize("stat, shapes", [("mean", r"\(186,\) and \(187,\)"),
                                              ("std", r"\(187,\) and \(186,\)")])
    def test_norm_stats_of_another_length_are_never_written(self, stat, shapes):
        # the writer walks the table its loader checks, the stats included
        cfg = tiny_config(seed=13)
        norm = unit_norm(cfg)
        short = replace(norm, **{stat: getattr(norm, stat)[:-1]})
        with pytest.raises(ShapeError, match=f"hold 187 values each, got {shapes}"):
            checkpoint_bytes(Checkpoint(config=cfg, weights=build_model(cfg).flat_data,
                                        norm=short, best_val_loss=1.0, epoch=0))

    def test_negative_epoch_is_never_written(self):
        # such a file would not load
        ckpt, _ = self.make_checkpoint()
        with pytest.raises(ConfigError, match="checkpoint epoch -5 is negative"):
            checkpoint_bytes(replace(ckpt, epoch=-5))

    def test_negative_epoch_is_refused_at_its_meta_line(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        blob = checkpoint_bytes(replace(ckpt, epoch=10))
        assert blob.count(b"\nepoch = 10\n") == 1
        path = tmp_path / "model.bin"
        path.write_bytes(resealed(blob.replace(b"\nepoch = 10\n", b"\nepoch = -1\n")))
        with pytest.raises(CheckpointError, match="meta key epoch: '-1' is negative") as err:
            load_checkpoint(str(path))
        assert err.value.offset == blob.index(b"\nepoch = ") + 1

    def test_violation_across_fields_names_the_meta_block(self, tmp_path):
        # such a violation belongs to no one line, so it names the block
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        save(ckpt, path)
        blob = path.read_bytes()
        assert blob.count(b"input_len = 187\n") == 1
        path.write_bytes(resealed(blob.replace(b"input_len = 187\n", b"input_len = 007\n")))
        with pytest.raises(CheckpointError, match="patch_len 11 exceeds input_len 7") as err:
            load_checkpoint(str(path))
        assert err.value.offset == 20  # after the magic, the version and the meta length

    def test_truncated_file_fails_closed(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = str(tmp_path / "model.bin")
        save(ckpt, path)
        blob = Path(path).read_bytes()
        for cut in (4, 11, len(blob) // 2, len(blob) - 3):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            assert err.value.offset is not None or "missing" in str(err.value)

    def test_meta_holds_each_setting_once(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        save(ckpt, path)
        blob = path.read_bytes()
        meta_len = int.from_bytes(blob[12:20], "little")  # after the magic and the version
        keys = [line.split(" = ")[0] for line in blob[20:20 + meta_len].decode().splitlines()]
        assert keys == [f.name for f in fields(ModelConfig)] + [
            "best_val_loss", "epoch", "normalization", "norm_fitted_on"]
        assert b"seed = 13\n" in blob and b"normalization = standard\n" in blob

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        save(ckpt, path)
        blob = path.read_bytes()
        assert int.from_bytes(blob[-4:], "little") == zlib.crc32(blob[:-4])
        for at in (20, len(blob) // 2, len(blob) - 5, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01  # e.g. the last bit of a weight's mantissa
            path.write_bytes(flipped)
            with pytest.raises(CheckpointError, match="checksum") as err:
                load_checkpoint(str(path))
            assert err.value.offset == len(blob) - 4

    def test_unknown_normalization_tensor_is_refused_at_its_name(self, tmp_path):
        # a norm.* tensor that the format does not name is refused, not dropped
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        weights = weight_views(ckpt.config, ckpt.weights)
        path.write_bytes(params_bytes(ckpt.config, {**weights, "norm.var": np.ones(187)}))
        blob = path.read_bytes()
        with pytest.raises(CheckpointError, match="checkpoint holds tensor 'norm.var' where its "
                                                  "config names norm.mean") as err:
            load_checkpoint(str(path))
        assert err.value.offset == blob.index(b"norm.var")

    @pytest.mark.parametrize("change, message", [
        (-1, "tensor count 32 leaves out norm.std: the config names 33 tensors"),
        (+1, "tensor count 34 exceeds the 33 tensors the config names"),
    ])
    def test_tensor_count_other_than_the_tables_is_refused_at_the_count(self, tmp_path,
                                                                         change, message):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.bin"
        save(ckpt, path)
        blob = path.read_bytes()
        at = 20 + int.from_bytes(blob[12:20], "little")  # past the meta block
        count = int.from_bytes(blob[at:at + 4], "little") + change
        path.write_bytes(resealed(blob[:at] + count.to_bytes(4, "little") + blob[at + 4:]))
        with pytest.raises(CheckpointError, match=message) as err:
            load_checkpoint(str(path))
        assert err.value.offset == at

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = str(tmp_path / "model.bin")
        save(ckpt, path)
        blob = bytearray(Path(path).read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointError,
                           match=r"format version 99 unsupported \(expected 3\) \(at byte offset 8\)"):
            load_checkpoint(path)

    def test_config_mismatch_on_load(self, tmp_path):
        # a stored config that disagrees with the stored tensors is refused
        # by the load, at the first tensor it misshapes
        ckpt, _ = self.make_checkpoint()
        path = str(tmp_path / "model.bin")
        save(ckpt, path)
        blob = Path(path).read_bytes()
        assert blob.count(b"d_model = 8\n") == 1
        with open(path, "wb") as fh:
            fh.write(resealed(blob.replace(b"d_model = 8\n", b"d_model = 9\n")))
        with pytest.raises(CheckpointError, match=r"tensor embed.w has shape \(11, 8\), "
                                                  r"expected \(11, 9\)") as err:
            load_checkpoint(path)
        assert err.value.offset == name_offset(blob, "embed.w")
        # the untouched file restores fine
        save(ckpt, path)
        restore_model(load_checkpoint(path))

    def test_no_temp_files_left_behind(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        write_files(str(tmp_path), {"model.bin": checkpoint_bytes(ckpt)})
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_history_csv_format(self):
        from beatformer.train import EpochStats

        history = [
            EpochStats(epoch=0, train_loss=1.5, val_loss=1.25, train_acc=0.5, val_acc=0.5),
            EpochStats(epoch=1, train_loss=0.75, val_loss=1.0, train_acc=0.625, val_acc=0.75),
        ]
        text = history_to_csv(history)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
        assert lines[1] == "0,1.5,1.25,0.5,0.5"
        assert len(lines) == 3


def test_evaluating_restored_checkpoint_reproduces_best_val_loss(tmp_path):
    train = synthetic_beats(160, seed=31)
    train_part, rest = stratified_split(train, 128, seed=1)
    val_part, _ = stratified_split(rest, max(5, rest.n - 1), seed=2)
    model = build_model(tiny_config(seed=17))
    cfg = TrainConfig(epochs=3, batch_size=32, lr=1e-3)
    ckpt, history = train_to_end(model, cfg, train_part, val_part)
    restored = restore_model(ckpt)
    loss, _ = score_logits(infer(restored, val_part.features), val_part.labels)
    assert loss == pytest.approx(ckpt.best_val_loss, abs=1e-9)

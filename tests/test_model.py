"""Tests for config validation, model building, and the batch forward pass."""

import logging

import numpy as np
import pytest

from beatformer.errors import ConfigError, ShapeError
from beatformer.tensor import GradTape, backward
from beatformer.train import sparse_ce_loss
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

from conftest import grad_arrays
from reference import reference_forward


class TestModelConfig:
    def test_default_is_valid(self):
        assert ModelConfig().validate() == []

    def test_all_violations_reported_at_once(self):
        cfg = ModelConfig(d_model=0, heads=-1, mlp_units=(), n_classes=1, dropout=1.5,
                          positional="nope")
        violations = cfg.validate()
        assert len(violations) >= 6
        with pytest.raises(ConfigError) as err:
            build_model(cfg)
        for key in ("d_model", "heads", "mlp_units", "n_classes", "dropout", "positional"):
            assert key in str(err.value)

    def test_token_count(self):
        assert ModelConfig(input_len=187, patch_len=11).n_tokens == 17
        assert ModelConfig(input_len=185, patch_len=11).n_tokens == 17
        assert ModelConfig(input_len=44, patch_len=11).n_tokens == 4

    def test_dict_roundtrip(self):
        cfg = ModelConfig(d_model=12, mlp_units=(7, 3), seed=42, positional="sinusoidal")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(ModelConfig(seed=5))
        b = build_model(ModelConfig(seed=5))
        for (name_a, ta), (name_b, tb) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(seed=1))
        b = build_model(tiny_config(seed=2))
        assert not np.array_equal(a.tensors["embed.w"].data, b.tensors["embed.w"].data)

    def test_biases_and_positional_start_at_zero(self):
        model = build_model(tiny_config())
        np.testing.assert_array_equal(model.tensors["embed.b"].data, 0.0)
        np.testing.assert_array_equal(model.tensors["pos.table"].data, 0.0)
        np.testing.assert_array_equal(model.tensors["block0.ln1.gamma"].data, 1.0)

    def test_sinusoidal_positional_is_fixed(self):
        model = build_model(tiny_config(positional="sinusoidal"))
        table = model.tensors["pos.table"]
        assert not table.needs_grad
        assert "pos.table" not in dict(model.parameters())
        assert table.data.max() <= 1.0
        assert not np.shares_memory(table.data, model.flat_data)

    def test_learned_positional_is_trainable(self):
        model = build_model(tiny_config())
        assert model.tensors["pos.table"].needs_grad
        assert "pos.table" in dict(model.parameters())


class TestParamCounts:
    def test_single_bias_vector(self):
        model = build_model(tiny_config())
        assert model.tensors["head.out.b"].size == 5

    def test_hand_summed_tiny_ledger(self):
        # embed 11*4+4 = 48; positional 4*4 = 16
        # block: qkv 3*(4*4+4) = 60, w_o 4*4+4 = 20, ffn 4*8+8+8*4+4 = 76,
        #        layer norms 4*(4) = 16  -> 172
        # head: 4*8+8 = 40, out 8*5+5 = 45 -> 85
        cfg = ModelConfig(input_len=44, patch_len=11, d_model=4, d_head=4, heads=1,
                          encoder_layers=1, d_ff=8, mlp_units=(8,), n_classes=5)
        model = build_model(cfg)
        assert count_params(model) == 48 + 16 + 172 + 85 == 321

    def test_dense_layer_count_formula(self):
        cfg = ModelConfig(d_model=187, mlp_units=(128, 64))
        model = build_model(cfg)
        w, b = model.tensors["head.dense0.w"], model.tensors["head.dense0.b"]
        assert w.size + b.size == 187 * 128 + 128 == 24064

    def test_default_config_logs_reference_delta(self, caplog):
        with caplog.at_level(logging.INFO, logger="beatformer.model"):
            model = build_model(ModelConfig())
        total = count_params(model)
        assert str(REFERENCE_PARAM_COUNT) in caplog.text.replace(",", "")
        report = format_param_report(model)
        assert f"{total:,}" in report
        assert f"{total - REFERENCE_PARAM_COUNT:+,}" in report

    def test_breakdown_sums_to_total(self):
        model = build_model(ModelConfig())
        rows = parameter_breakdown(model)
        assert sum(count for _, count in rows) == count_params(model)
        assert len([r for r in rows if r[0].startswith("encoder block")]) == 4


class TestFlatBuffers:
    """Each trainable tensor's data is a view into the model's buffer, and the
    model's views of a training gradient buffer follow the same layout."""

    @staticmethod
    def assert_views_in_checkpoint_order(model, flat_grad):
        views = model.views(flat_grad)
        assert list(views) == model.param_tensors()
        offset = 0
        for name, t in model.parameters():
            for view, flat in ((t.data, model.flat_data), (views[t], flat_grad)):
                assert view.shape == t.shape, name
                assert np.shares_memory(view, flat), name
                assert view.ctypes.data == flat.ctypes.data + 8 * offset, name
            offset += t.size
        assert offset == model.flat_data.size == flat_grad.size

    @pytest.mark.parametrize("cfg", [ModelConfig(), tiny_config(),
                                     tiny_config(positional="sinusoidal")],
                             ids=["default", "tiny", "sinusoidal"])
    def test_every_parameter_and_gradient_is_a_view(self, cfg):
        model = build_model(cfg)
        assert not any("grad" in f for f in vars(model))
        self.assert_views_in_checkpoint_order(model, np.zeros_like(model.flat_data))
        np.testing.assert_array_equal(
            model.flat_data, np.concatenate([t.data.ravel() for _, t in model.parameters()]))

    def test_restore_model_writes_into_the_buffers(self):
        from beatformer.data import NormStats
        from beatformer.train import Checkpoint, restore_model

        source = build_model(tiny_config(seed=3))
        source.flat_data += np.random.default_rng(3).normal(size=source.flat_data.size)
        n = source.config.input_len
        ckpt = Checkpoint(config=source.config,
                          params={name: t.data.copy() for name, t in source.parameters()},
                          norm=NormStats(mean=np.zeros(n), std=np.ones(n), mode="standard",
                                         fitted_on="x"),
                          best_val_loss=1.0, epoch=0)
        model = restore_model(ckpt)
        self.assert_views_in_checkpoint_order(model, np.zeros_like(model.flat_data))
        np.testing.assert_array_equal(model.flat_data, source.flat_data)

    def test_backward_accumulates_into_the_gradient_buffer(self):
        model = build_model(tiny_config(seed=4))
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(3, 187))
        with GradTape() as tape:
            loss = sparse_ce_loss(forward(model, batch), [0, 1, 2])
        flat_grad = np.zeros_like(model.flat_data)
        backward(tape, loss, model.views(flat_grad))
        self.assert_views_in_checkpoint_order(model, flat_grad)
        assert np.count_nonzero(flat_grad) > flat_grad.size // 2
        # the same pass into one separate array per tensor
        separate = grad_arrays(*model.param_tensors())
        backward(tape, loss, separate)
        assert flat_grad.tobytes() == np.concatenate(
            [separate[t].ravel() for _, t in model.parameters()]).tobytes()


class TestForward:
    def test_single_sample_shape(self):
        model = build_model(tiny_config(seed=3))
        out = forward(model, np.zeros((1, 187)))
        assert out.shape == (1, 5)

    def test_duplicated_sample_duplicates_logits(self):
        model = build_model(tiny_config(seed=4))
        rng = np.random.default_rng(0)
        row = rng.normal(size=187)
        batch = np.stack([row, rng.normal(size=187), row])
        logits = forward(model, batch).data
        np.testing.assert_array_equal(logits[0], logits[2])

    def test_batch_permutation_equivariance(self):
        model = build_model(tiny_config(seed=5))
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 187))
        perm = rng.permutation(6)
        base = forward(model, batch).data
        permuted = forward(model, batch[perm]).data
        np.testing.assert_array_equal(permuted, base[perm])

    def test_eval_forward_pure(self):
        model = build_model(tiny_config(seed=6))
        batch = np.random.default_rng(2).normal(size=(3, 187))
        a = forward(model, batch).data
        b = forward(model, batch).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_reproducible_with_seeded_rng(self):
        model = build_model(tiny_config(seed=7))
        batch = np.random.default_rng(3).normal(size=(3, 187))
        a = forward(model, batch, rng=np.random.default_rng(11)).data
        b = forward(model, batch, rng=np.random.default_rng(11)).data
        np.testing.assert_array_equal(a, b)

    def test_wrong_width_rejected(self):
        model = build_model(tiny_config(seed=8))
        with pytest.raises(ShapeError, match="187"):
            forward(model, np.zeros((2, 100)))

    def test_softmax_of_logits_is_distribution(self):
        model = build_model(tiny_config(seed=9))
        batch = np.random.default_rng(4).normal(size=(8, 187))
        logits = forward(model, batch).data
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert probs.shape[1] == 5
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_batched_path_matches_per_sample_reference(self):
        model = build_model(tiny_config(seed=10))
        batch = np.random.default_rng(5).normal(size=(4, 187))
        batched = forward(model, batch).data
        reference = np.vstack([forward(model, batch[i:i + 1]).data
                               for i in range(4)])
        np.testing.assert_allclose(batched, reference, atol=1e-12)

    @pytest.mark.parametrize("cfg,b", [(tiny_config(seed=12), 4), (ModelConfig(seed=13), 3)],
                             ids=["tiny-b4", "default-b3"])
    def test_matches_plain_numpy_reference(self, cfg, b):
        model = build_model(cfg)
        # perturb the zero/one-initialized biases, norms and positional rows,
        # so every parameter shapes the logits
        rng = np.random.default_rng(6)
        for name, t in model.parameters():
            if t.data.ndim == 1 or name == "pos.table":
                t.data += rng.normal(scale=0.1, size=t.shape)
        batch = rng.normal(size=(b, cfg.input_len))
        np.testing.assert_allclose(forward(model, batch).data,
                                   reference_forward(model, batch), rtol=0, atol=1e-12)

    def test_rank1_input_promoted(self):
        model = build_model(tiny_config(seed=11))
        out = forward(model, np.zeros(187))
        assert out.shape == (1, 5)


def test_default_train_step_tape_and_parameter_counts():
    """Pins the fused layout: 40 tape records per train step, 57 parameter tensors
    of 218,949 parameters in all.

    Per step: the token embedding with its positions (1); per block the QKV
    projection, attention, output projection, residual sum with dropout and
    its norm, two FFN projections with a ReLU, residual sum with dropout and
    its norm (8, times 4); the token pooling (1); two dense layers, each a
    projection and a ReLU with dropout (4); the output projection (1); the
    loss (1).
    """
    model = build_model(ModelConfig())
    assert len(model.parameters()) == 57
    assert count_params(model) == model.flat_data.size == 218_949
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(32, 187))
    labels = rng.integers(0, 5, size=32)
    with GradTape() as tape:
        sparse_ce_loss(forward(model, batch, rng=rng), labels)
    assert len(tape) == 40

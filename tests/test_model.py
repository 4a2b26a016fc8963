"""Tests for config validation, model building, and the batch forward pass."""

import logging
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beatformer.config import (
    MAX_PARAMS,
    SCHEMA,
    ModelConfig,
    build_config,
    format_pairs,
    read_pairs,
)
from beatformer.errors import CheckpointError, ConfigError, ShapeError
from beatformer.data import NormStats
from beatformer.tensor import GradTape, backward, grad_check
from beatformer.train import (
    Checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    restore_model,
    sparse_ce_loss,
)
from beatformer.model import (
    REFERENCE_PARAM_COUNT,
    build_model,
    draw_masks,
    format_param_report,
    forward,
    parameter_breakdown,
    sinusoidal_table,
    tiny_config,
    weight_views,
)

from conftest import (
    PROPERTY_SETTINGS,
    grad_arrays,
    mask_rows,
    name_offset,
    params_bytes,
    unit_norm,
)
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

    def test_parameter_cap_is_inclusive(self):
        # each class adds 5 weights to the output layer of a (4,) head
        base = tiny_config(mlp_units=(4,), n_classes=2)
        at_cap = replace(base, n_classes=2 + (MAX_PARAMS - base.n_params()) // 5)
        assert at_cap.n_params() == MAX_PARAMS == sum(
            math.prod(shape) for _, shape in at_cap.param_shapes())
        assert at_cap.validate() == []
        over = replace(at_cap, n_classes=at_cap.n_classes + 1)
        assert over.validate() == [f"the model would hold {MAX_PARAMS + 5:,} parameters, "
                                   f"more than the {MAX_PARAMS:,} a model may hold"]

    def test_a_huge_block_count_is_refused_without_listing_its_blocks(self):
        # the default's 218,949 weights: 18,757 outside its blocks, 4 blocks of 50,048
        assert ModelConfig().n_params() == 18_757 + 4 * 50_048 == 218_949
        cfg = ModelConfig(encoder_layers=10**15)
        assert cfg.n_params() == 18_757 + 10**15 * 50_048
        assert cfg.validate() == [f"the model would hold {cfg.n_params():,} parameters, "
                                  f"more than the {MAX_PARAMS:,} a model may hold"]

    def test_token_count(self):
        assert ModelConfig(input_len=187, patch_len=11).n_tokens == 17
        assert ModelConfig(input_len=185, patch_len=11).n_tokens == 17
        assert ModelConfig(input_len=44, patch_len=11).n_tokens == 4

    def test_dict_roundtrip(self):
        # every field's text form reads back through the codec and SCHEMA's casters
        cfg = ModelConfig(d_model=12, mlp_units=(7, 3), seed=42, positional="sinusoidal")
        text = format_pairs((f.name, getattr(cfg, f.name)) for f in fields(cfg))
        pairs, problems = read_pairs(text.encode("utf-8"),
                                     {f.name: SCHEMA[f.name] for f in fields(cfg)})
        assert problems == []
        assert build_config(ModelConfig, {key: value
                                          for key, (value, _, _) in pairs.items()}) == cfg


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(ModelConfig(seed=5))
        b = build_model(ModelConfig(seed=5))
        for (name_a, ta), (name_b, tb) in zip(a.tensors.items(), b.tensors.items()):
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
        # the fixed table is no tensor of the model and takes no room in its buffer
        learned = build_model(tiny_config())
        model = build_model(tiny_config(positional="sinusoidal"))
        cfg = model.config
        assert "pos.table" not in model.tensors
        assert model.flat_data.size == learned.flat_data.size - cfg.n_tokens * cfg.d_model
        assert "positional table" not in dict(parameter_breakdown(cfg))
        # the forward adds the fixed table, as a learned model that holds it does
        twin_cfg = replace(cfg, positional="learned")
        weights = np.zeros(twin_cfg.n_params())
        views = weight_views(twin_cfg, weights)
        for name, t in model.tensors.items():
            views[name][...] = t.data
        views["pos.table"][...] = sinusoidal_table(cfg.n_tokens, cfg.d_model)
        twin = build_model(twin_cfg, weights)
        batch = np.random.default_rng(2).normal(size=(3, cfg.input_len))
        assert forward(model, batch).data.tobytes() == forward(twin, batch).data.tobytes()

    def test_learned_positional_is_trainable(self):
        model = build_model(tiny_config())
        grads = model.views(np.zeros_like(model.flat_data))
        batch = np.random.default_rng(3).normal(size=(2, model.config.input_len))
        with GradTape() as tape:
            loss = sparse_ce_loss(forward(model, batch), [0, 1])
        backward(tape, loss, grads)
        assert grads[model.tensors["pos.table"]].any()


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
        assert model.flat_data.size == 48 + 16 + 172 + 85 == 321

    def test_dense_layer_count_formula(self):
        cfg = ModelConfig(d_model=187, mlp_units=(128, 64))
        model = build_model(cfg)
        w, b = model.tensors["head.dense0.w"], model.tensors["head.dense0.b"]
        assert w.size + b.size == 187 * 128 + 128 == 24064

    def test_default_config_logs_reference_delta(self, caplog):
        with caplog.at_level(logging.INFO, logger="beatformer.model"):
            model = build_model(ModelConfig())
        total = model.flat_data.size
        assert str(REFERENCE_PARAM_COUNT) in caplog.text.replace(",", "")
        report = format_param_report(model.config)
        assert f"{total:,}" in report
        assert f"{total - REFERENCE_PARAM_COUNT:+,}" in report

    def test_breakdown_sums_to_total(self):
        model = build_model(ModelConfig())
        rows = parameter_breakdown(model.config)
        assert sum(count for _, count in rows) == model.flat_data.size
        assert len([r for r in rows if r[0].startswith("encoder block")]) == 4


class TestFlatBuffers:
    """Each tensor's data is a view into the model's buffer, and the
    model's views of a training gradient buffer follow the same layout."""

    @staticmethod
    def assert_views_in_checkpoint_order(model, flat_grad):
        views = model.views(flat_grad)
        assert list(views) == list(model.tensors.values())
        offset = 0
        for name, t in model.tensors.items():
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
            model.flat_data, np.concatenate([t.data.ravel() for t in model.tensors.values()]))

    def test_restore_model_writes_into_the_buffers(self):
        source = build_model(tiny_config(seed=3))
        source.flat_data += np.random.default_rng(3).normal(size=source.flat_data.size)
        ckpt = Checkpoint(config=source.config, weights=source.flat_data.copy(),
                          norm=unit_norm(source.config), best_val_loss=1.0, epoch=0)
        model = restore_model(ckpt)
        self.assert_views_in_checkpoint_order(model, np.zeros_like(model.flat_data))
        np.testing.assert_array_equal(model.flat_data, source.flat_data)

    def test_weights_from_params_make_no_generator(self, monkeypatch):
        source = build_model(tiny_config(seed=5))

        def no_generator(*args):
            raise AssertionError("a restore drew weights")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        model = build_model(source.config, source.flat_data)
        assert model.flat_data.tobytes() == source.flat_data.tobytes()
        assert not np.shares_memory(model.flat_data, source.flat_data)
        self.assert_views_in_checkpoint_order(model, np.zeros_like(model.flat_data))

    @pytest.mark.parametrize("edit, stored, message", [
        pytest.param("drop", "block1.ffn.b1", "checkpoint holds tensor 'block1.ffn.b1' where "
                     "its config names block1.ffn.w1", id="drop-checkpoint skips a weight"),
        pytest.param("reshape", "block1.ffn.w1",
                     r"tensor block1.ffn.w1 has shape \(16, 8\), expected \(8, 16\)",
                     id="reshape-parameter transposed"),
        pytest.param("extra", "block9.ffn.w1", "checkpoint holds tensor 'block9.ffn.w1' where "
                     "its config names norm.mean", id="extra-checkpoint adds a weight"),
        pytest.param("reorder", "block1.ffn.b1", "checkpoint holds tensor 'block1.ffn.b1' "
                     "where its config names block1.ffn.w1", id="reorder-checkpoint swaps two"),
        pytest.param("rank", "block1.ffn.w1", "tensor block1.ffn.w1 has rank 3, expected 2",
                     id="rank-checkpoint adds an axis"),
        pytest.param("flatten", "block1.ffn.w1", "tensor block1.ffn.w1 has rank 1, expected 2",
                     id="flatten-checkpoint drops an axis"),
    ])
    def test_params_that_disagree_with_the_config_are_refused(self, tmp_path, edit, stored,
                                                              message):
        # the stored table is the config's table, name by name and shape by
        # shape: any other is refused at the stored name, before its data
        source = build_model(tiny_config(seed=5))
        params = {name: t.data.copy() for name, t in source.tensors.items()}
        if edit == "drop":
            del params["block1.ffn.w1"]
        elif edit == "reshape":
            params["block1.ffn.w1"] = params["block1.ffn.w1"].T.copy()
        elif edit == "extra":
            params["block9.ffn.w1"] = params["block1.ffn.w1"]
        elif edit == "reorder":
            names = list(params)
            at = names.index("block1.ffn.w1")
            names[at], names[at + 1] = names[at + 1], names[at]
            params = {name: params[name] for name in names}
        elif edit == "rank":
            params["block1.ffn.w1"] = params["block1.ffn.w1"][None]
        else:
            params["block1.ffn.w1"] = params["block1.ffn.w1"].ravel()
        path = tmp_path / "model.bin"
        path.write_bytes(params_bytes(source.config, params))
        with pytest.raises(CheckpointError, match=message) as err:
            load_checkpoint(str(path))
        assert err.value.offset == name_offset(path.read_bytes(), stored)

    @pytest.mark.parametrize("shape", ["1", "n-1", "n+1", "n,1"])
    @pytest.mark.parametrize("call", ["weight_views", "build_model", "checkpoint_bytes"])
    def test_weight_buffer_of_another_shape_is_refused(self, call, shape):
        # nothing is broadcast: a one-element buffer must not fill a whole bias
        cfg = tiny_config(seed=5)
        n = cfg.n_params()
        weights = np.full({"1": (1,), "n-1": (n - 1,), "n+1": (n + 1,), "n,1": (n, 1)}[shape],
                          7.0)
        refusal = rf"float64 buffer of shape \({n},\), got float64 of shape " + re.escape(
            str(weights.shape))
        with pytest.raises(ShapeError, match=refusal):
            if call == "weight_views":
                weight_views(cfg, weights)
            elif call == "build_model":
                build_model(cfg, weights)
            else:
                checkpoint_bytes(Checkpoint(config=cfg, weights=weights, norm=unit_norm(cfg),
                                            best_val_loss=1.0, epoch=0))

    def test_weight_buffer_of_another_dtype_is_refused(self):
        cfg = tiny_config(seed=5)
        weights = build_model(cfg).flat_data
        for other in (weights.astype(np.float32), weights.astype(">f8")):
            with pytest.raises(ShapeError, match=f"got {re.escape(str(other.dtype))} of shape"):
                restore_model(Checkpoint(config=cfg, weights=other, norm=unit_norm(cfg),
                                         best_val_loss=1.0, epoch=0))
        with pytest.raises(ShapeError, match="got list of shape"):
            weight_views(cfg, weights.tolist())

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
        separate = grad_arrays(*model.tensors.values())
        backward(tape, loss, separate)
        assert flat_grad.tobytes() == np.concatenate(
            [separate[t].ravel() for t in model.tensors.values()]).tobytes()


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
        masks = draw_masks(model.config, 3, np.random.default_rng(11))
        a = forward(model, batch, masks).data
        b = forward(model, batch, draw_masks(model.config, 3, np.random.default_rng(11))).data
        np.testing.assert_array_equal(a, b)
        # the forward draws nothing: the same masks give the same bits again
        assert forward(model, batch, masks).data.tobytes() == a.tobytes()
        assert not np.array_equal(a, forward(model, batch).data)

    @pytest.mark.parametrize("edit, message", [
        ("misspelled", "unknown block0.LN1"),
        ("three_blocks", "unknown block2.ln1"),
        ("no_head", "missing head.dense0"),
    ])
    def test_masks_that_are_not_the_models_are_refused(self, edit, message):
        model = build_model(tiny_config(seed=7, dropout=0.3))
        batch = np.random.default_rng(3).normal(size=(3, 187))
        rng = np.random.default_rng(11)
        masks = draw_masks(model.config, 3, rng)
        if edit == "misspelled":
            masks["block0.LN1"] = masks.pop("block0.ln1")
        elif edit == "three_blocks":
            masks = draw_masks(replace(model.config, encoder_layers=3), 3, rng)
        else:
            del masks["head.dense0"]
        with pytest.raises(ShapeError, match=f"dropout masks do not fit the model: {message}"):
            forward(model, batch, masks)

    def test_no_masks_and_empty_masks_apply_no_dropout(self):
        model = build_model(tiny_config(seed=7, dropout=0.3))
        batch = np.random.default_rng(3).normal(size=(3, 187))
        plain = forward(model, batch).data.tobytes()
        assert forward(model, batch, None).data.tobytes() == plain
        assert forward(model, batch, {}).data.tobytes() == plain

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
        for name, t in model.tensors.items():
            if t.data.ndim == 1 or name == "pos.table":
                t.data += rng.normal(scale=0.1, size=t.shape)
        batch = rng.normal(size=(b, cfg.input_len))
        np.testing.assert_allclose(forward(model, batch).data,
                                   reference_forward(model, batch), rtol=0, atol=1e-12)

    def test_rank1_input_promoted(self):
        model = build_model(tiny_config(seed=11))
        out = forward(model, np.zeros(187))
        assert out.shape == (1, 5)


@st.composite
def small_configs(draw) -> ModelConfig:
    """A small valid config whose ``input_len`` ``patch_len`` does not divide,
    so the last patch of every signal is zero-padded."""
    patch_len = draw(st.integers(2, 5))
    n_tokens = draw(st.integers(2, 4))
    return ModelConfig(
        input_len=(n_tokens - 1) * patch_len + draw(st.integers(1, patch_len - 1)),
        patch_len=patch_len,
        d_model=draw(st.integers(2, 6)),
        d_head=draw(st.integers(1, 3)),
        heads=draw(st.integers(1, 2)),
        encoder_layers=draw(st.integers(1, 2)),
        d_ff=draw(st.integers(2, 6)),
        mlp_units=tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))),
        n_classes=draw(st.integers(2, 5)),
        positional=draw(st.sampled_from(["learned", "sinusoidal"])),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def blocks(draw, n: int) -> list[int]:
    """Sizes of a split of ``n >= 2`` rows into blocks of two or more rows."""
    sizes = []
    while n >= 4 and draw(st.booleans()):
        sizes.append(draw(st.integers(2, n - 2)))
        n -= sizes[-1]
    return sizes + [n]


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(cfg=small_configs(), data=st.data())
def test_forward_across_the_config_space(tmp_path_factory, cfg, data):
    """Each drawn config matches the reference, passes the gradient check,
    gives the same logit bits in any split into blocks, also in a training
    forward with sliced masks, and restores them bit for bit from its
    checkpoint bytes."""
    model = build_model(cfg)
    # perturb the zero/one-initialized biases, norms and positional rows, as
    # the fixed-config reference test does
    rng = np.random.default_rng(cfg.seed)
    for name, t in model.tensors.items():
        if t.data.ndim == 1 or name == "pos.table":
            t.data += rng.normal(scale=0.1, size=t.shape)
    b = data.draw(st.integers(2, 7), label="rows")
    batch = rng.normal(size=(b, cfg.input_len))
    logits = forward(model, batch).data
    np.testing.assert_allclose(logits, reference_forward(model, batch), rtol=0, atol=1e-12)

    labels = rng.integers(0, cfg.n_classes, size=2)
    report = grad_check(lambda: sparse_ce_loss(forward(model, batch[:2]), labels),
                        list(model.tensors.values()), names=list(model.tensors))
    assert report.passed, report.summary()

    ends = np.cumsum(data.draw(blocks(b), label="blocks"))
    starts = ends - np.diff(ends, prepend=0)
    split = np.vstack([forward(model, batch[s:e]).data for s, e in zip(starts, ends)])
    assert split.tobytes() == logits.tobytes()
    # a training forward over the same split, each block with its rows of
    # the whole batch's masks
    masks = draw_masks(cfg, b, rng)
    trained = forward(model, batch, masks).data
    split = np.vstack([forward(model, batch[s:e], mask_rows(masks, s, e, cfg.n_tokens)).data
                       for s, e in zip(starts, ends)])
    assert split.tobytes() == trained.tobytes()

    path = tmp_path_factory.getbasetemp() / "property.bin"
    norm = NormStats(mean=np.zeros(cfg.input_len), std=np.ones(cfg.input_len),
                     mode="standard", fitted_on="property")
    path.write_bytes(checkpoint_bytes(Checkpoint(config=cfg, weights=model.flat_data, norm=norm,
                                                 best_val_loss=1.0, epoch=0)))
    restored = restore_model(load_checkpoint(str(path)))
    assert forward(restored, batch).data.tobytes() == logits.tobytes()


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
    assert len(model.tensors) == 57
    assert sum(t.size for t in model.tensors.values()) == model.flat_data.size == 218_949
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(32, 187))
    labels = rng.integers(0, 5, size=32)
    with GradTape() as tape:
        sparse_ce_loss(forward(model, batch, draw_masks(model.config, 32, rng)), labels)
    assert len(tape) == 40

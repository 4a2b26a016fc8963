import os
import sys

import pytest

import run
import tracing
from corpus import synthetic_beats, write_csv
from tracing import Span, Tracer, leftover_wrappers, op_kind, self_times, union_length


def _span(index, start, end, parent=None, name="s"):
    return Span(index, name, parent, 0, start, end)


def test_union_length_merges_overlaps_and_ignores_nesting():
    assert union_length([]) == 0
    assert union_length([(0, 10)]) == 10
    assert union_length([(0, 10), (20, 25)]) == 15
    assert union_length([(0, 10), (5, 15)]) == 15
    assert union_length([(0, 10), (2, 4)]) == 10
    assert union_length([(10, 20), (0, 10)]) == 20


def test_self_time_of_nested_spans():
    root = _span(0, 0, 100)
    child = _span(1, 10, 60, root)
    grandchild = _span(2, 20, 30, child)
    selfs = self_times([root, child, grandchild])
    assert selfs == {0: 50, 1: 40, 2: 10}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    root = _span(0, 0, 100)
    a = _span(1, 10, 40, root)
    b = _span(2, 30, 60, root)  # overlaps a by 10
    c = _span(3, 90, 120, root)  # runs past the parent's end
    selfs = self_times([root, a, b, c])
    assert selfs[0] == 100 - 50 - 10
    assert selfs[1] == 30 and selfs[2] == 30 and selfs[3] == 30


def test_op_kind_comes_from_the_closure_that_builds_the_backward():
    def matmul():
        def bwd(g):
            return g
        return bwd

    def _softmax_impl():
        return lambda g: g

    assert op_kind(matmul(), "x") == "matmul"
    assert op_kind(_softmax_impl(), "x") == "softmax"
    assert op_kind(print, "fallback") == "fallback"


def _program_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "beatformer" or name.startswith("beatformer.")
        for attr, value in vars(module).items()
    }


def test_uninstall_restores_every_attribute_before_untraced_timing():
    import beatformer.train

    before = _program_attributes()
    adam_step = vars(beatformer.train.Adam)["step"]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = leftover_wrappers()
        assert "beatformer.cli.main" in wrapped
        assert "beatformer.model.forward" in wrapped  # rebound where it was imported
        assert "beatformer.tensor.record_op" in wrapped
        assert "beatformer.train.GradTape" in wrapped
        assert "beatformer.train.Adam.step" in wrapped
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            run.run_command(None, [None], 0, 0, "unused", None)
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    after = _program_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(beatformer.train.Adam)["step"] is adam_step


@pytest.fixture(scope="module")
def tiny_train_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "train.csv"
    features, labels = synthetic_beats(80, seed=[5, 1])
    write_csv(str(path), features, labels)
    return str(path)


def test_traced_train_command_attributes_every_tape_record(tiny_train_csv, tmp_path, capsys):
    import beatformer.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_command(0, beatformer.cli.main, [
            "train", "--data-train", tiny_train_csv, "--out", str(tmp_path / "out"),
            "--epochs", "1",
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert not tracer._stack and tracer.cmd is None
    metrics = tracer.layer_metrics(commands=1)
    assert tracer.counters["steps"] == 3  # 72 training rows in batches of 32
    per_kind = sum(v for k, v in metrics.items()
                   if k.startswith("tensor.op.") and k.endswith(".records"))
    assert per_kind == metrics["tensor.tape_records"] > 0
    assert metrics["tensor.op.matmul.bwd_ms"] > 0
    assert metrics["tensor.op.matmul.fwd_ms"] > 0
    assert metrics["train.ckpt_saves"] == 1
    assert metrics["data.rows_loaded"] == 80
    assert metrics["model.forward_calls"] == 3 + 2  # steps, validation, report
    assert 0 < metrics["cli.self_ms"] < metrics["model.forward_ms"]
    assert all(s.end is not None and s.end >= s.start for s in tracer.spans)

    spans = tmp_path / "spans.csv.gz"
    tracer.write_spans(str(spans))
    assert os.path.getsize(spans) > 0


def test_calls_outside_a_command_are_not_recorded(tiny_train_csv):
    import beatformer.data

    tracer = Tracer()
    tracer.install()
    try:
        beatformer.data.load_csv(tiny_train_csv)
    finally:
        tracer.uninstall()
    assert tracer.spans == [] and not tracer.counters


def test_every_baseline_op_kind_reports_even_when_absent():
    metrics = Tracer().layer_metrics(commands=1)
    for kind in tracing.BASELINE_OP_KINDS:
        for suffix in ("fwd_ms", "bwd_ms", "records"):
            assert metrics[f"tensor.op.{kind}.{suffix}"] == 0.0

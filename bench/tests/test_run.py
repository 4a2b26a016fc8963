import json
import math
import os
from types import SimpleNamespace

import pytest

import run
from program import ROOT
from tracing import Tracer, leftover_wrappers


def test_percentile_interpolates_between_closest_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 5.0
    assert math.isclose(run.percentile(values, 90), 4.6)
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_latency_summary_reports_sample_count_and_tail():
    summary = run.latency_summary([i / 1000.0 for i in range(1, 101)])  # 1..100 ms
    assert summary["samples"] == 100
    assert math.isclose(summary["p50_ms"], 50.5)
    assert math.isclose(summary["p90_ms"], 90.1)
    assert summary["beyond_p90"] == 10


def test_sink_take_empties_the_buffer():
    sink = run.Sink()
    sink.write("a\n")
    assert sink.take() == "a\n"
    sink.write("b")
    assert sink.take() == "b"
    assert sink.take() == ""


def _result(cmd, latency, ok=True, **quality):
    return run.Result(cmd=cmd, latency_s=latency, samples=10, ok=ok, quality=quality)


def test_end_to_end_uses_passing_commands_and_averages_quality_per_command():
    results = [
        _result(0, 0.1, val_loss=1.0, macro_f1=0.5),
        _result(1, 0.2, val_loss=3.0, macro_f1=0.7),
        _result(0, 0.1, val_loss=1.0, macro_f1=0.5),
        _result(1, 9.9, ok=False),
    ]
    values, lat = run.end_to_end(results, [2.0, 1.0, 3.0], {}, n_commands=2)
    assert lat["samples"] == 3
    assert values["samples_per_s"] == 100.0  # median of 100, 50, 100 rows/s
    assert values["val_loss"] == 2.0
    assert math.isclose(values["macro_f1"], 0.6)
    assert values["setup_s"] == 2.0
    assert values["success_rate"] == 0.75


def test_fixed_quality_overrides_measured_quality():
    values, _ = run.end_to_end([_result(0, 0.1, val_loss=1.0)], [1.0], {"macro_f1": 0.9}, 1)
    assert values["macro_f1"] == 0.9
    assert values["val_loss"] == 1.0


def test_figures_no_passing_command_measured_are_left_out_not_zero():
    results = [_result(0, 0.1, val_loss=1.0, macro_f1=0.5), _result(1, 0.2, ok=False)]
    values, _ = run.end_to_end(results, [1.0], {}, n_commands=2)
    assert "val_loss" not in values and "macro_f1" not in values
    assert values["success_rate"] == 0.5

    values, lat = run.end_to_end([_result(0, 0.1, ok=False)], [1.0], {}, n_commands=1)
    assert lat is None
    assert set(values) == {"setup_s", "peak_rss_mb", "success_rate"}
    assert values["success_rate"] == 0.0


def test_traced_run_warms_up_then_alternates_which_side_goes_first(tmp_path):
    traced_calls = []  # per call: were the tracer's wrappers installed?
    program = SimpleNamespace(cli=SimpleNamespace(
        main=lambda argv: traced_calls.append(bool(leftover_wrappers())) or 0))
    commands = [run.Command(argv=lambda out: [], samples=1,
                            check=lambda code, out_dir, stdout: {})]
    warm_up, untraced, traced, tracer = run.run_traced(
        program, commands, 0.0, str(tmp_path), (run.Sink(), run.Sink()))
    # warm-up, then pairs untraced/traced, traced/untraced, untraced/traced
    assert traced_calls == [False, False, True, True, False, False, True]
    assert warm_up.ok and len(untraced) == len(traced) == run.MIN_COMMANDS
    assert [s.cmd for s in tracer.spans if s.name == "command"] == [2, 3, 6]
    assert leftover_wrappers() == []


def test_reported_metric_names_and_units_match_the_benchmark_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json in this checkout")
    with open(path, encoding="utf-8") as fh:
        contract = json.load(fh)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END_UNITS
    layer = Tracer().layer_metrics(commands=1)
    layer["trace.overhead_pct"] = 0.0
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == {
        name: run._layer_unit(name) for name in layer if run._reported(name)
    }

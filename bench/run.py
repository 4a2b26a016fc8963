"""beatformer benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload train_default --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up (synthetic inputs, and for eval/predict
a short training run that writes the checkpoint) happens in child processes.
The measuring process then calls ``beatformer.cli.main`` back to back, one
command at a time, until ``--seconds`` have passed, and checks every
command's output. The last line of stdout is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import prepare as inputs
from checks import CheckFailed, check_eval, check_predict, check_train, report_macro_f1
from program import ROOT, ProgramMissing, import_program
from tracing import BASELINE_OP_KINDS, Tracer, leftover_wrappers

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MIN_COMMANDS = 3
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "samples_per_s": "samples/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "val_loss": "nats",
    "macro_f1": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(latencies_s) -> dict:
    """Median and p90 in ms, with the sample count and how many lie above p90."""
    ms = [t * 1e3 for t in latencies_s]
    p90 = percentile(ms, 90)
    return {
        "p50_ms": percentile(ms, 50),
        "p90_ms": p90,
        "samples": len(ms),
        "beyond_p90": sum(1 for v in ms if v > p90),
    }


class Sink(io.StringIO):
    """Stand-in for stdout/stderr that the program writes into.

    One object per stream for the whole run, because ``logging`` keeps the
    stream it first saw; :meth:`take` empties it between commands.
    """

    def take(self) -> str:
        text = self.getvalue()
        self.seek(0)
        self.truncate(0)
        return text


@dataclass
class Command:
    """One kind of CLI call a workload repeats, and how to check it."""

    argv: object  # out_dir -> argument list
    samples: int  # rows of work per call, for samples_per_s
    check: object  # (code, out_dir, stdout) -> quality dict; raises CheckFailed


@dataclass
class Result:
    cmd: int
    latency_s: float
    samples: int
    ok: bool
    quality: dict
    error: str = ""


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _train_command(data: str, train_rows: int, load_checkpoint) -> Command:
    first = {}

    def check(code, out_dir, stdout):
        quality = check_train(code, out_dir, inputs.TRAIN_EPOCHS, load_checkpoint)
        # seeded runs are byte-identical: every repeat must reproduce the first
        produced = [_read_bytes(os.path.join(out_dir, f))
                    for f in ("history.csv", "checkpoint.bin")]
        if first.setdefault("bytes", produced) != produced:
            raise CheckFailed("history.csv or checkpoint.bin differs from the first "
                              "run on the same corpus")
        return quality

    return Command(argv=lambda out: inputs.train_argv(data, out),
                   samples=inputs.TRAIN_EPOCHS * train_rows, check=check)


def plan_commands(workload: str, setup_dir: str, program) -> tuple[list[Command], dict]:
    """The commands a workload cycles through, plus fixed quality figures."""
    load_checkpoint = program.train.load_checkpoint
    if workload == "train_default":
        train_rows = inputs.TRAIN_ROWS - max(1, round(0.1 * inputs.TRAIN_ROWS))
        return [_train_command(inputs.train_csv(setup_dir, i), train_rows, load_checkpoint)
                for i in range(inputs.TRAIN_CORPORA)], {}

    checkpoint = os.path.join(inputs.checkpoint_dir(setup_dir), "checkpoint.bin")
    if workload == "eval_bulk":
        data = inputs.eval_csv(setup_dir)
        return [Command(
            argv=lambda out: ["eval", checkpoint, "--data-test", data, "--out", out],
            samples=inputs.EVAL_ROWS,
            check=lambda code, out_dir, stdout: check_eval(code, out_dir, stdout,
                                                           inputs.EVAL_ROWS),
        )], {}

    with open(inputs.predict_labels(setup_dir), encoding="utf-8") as fh:
        labels = [int(c) for c in fh.read().strip().split(",")]
    data = inputs.predict_csv(setup_dir)
    first = {}

    def check(code, out_dir, stdout):
        quality = check_predict(code, stdout, labels, first.get("response"))
        first.setdefault("response", stdout)
        return quality

    # 16 rows are too few for a steady macro F1, so predict_small reports the
    # validation macro F1 its set-up training run wrote for the served checkpoint
    served_f1 = report_macro_f1(inputs.checkpoint_dir(setup_dir))
    return [Command(
        argv=lambda out: ["predict", checkpoint, data],
        samples=inputs.PREDICT_ROWS,
        check=check,
    )], {"macro_f1": served_f1}


def _snapshot(directory: str) -> dict:
    files = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            files[os.path.relpath(path, directory)] = _read_bytes(path)
    return files


def run_setup(workload: str, seed: int, work: str, repeats: int) -> tuple[str, list[float]]:
    """Run the set-up ``repeats`` times in child processes; keep the last.

    Every repeat writes the same directory from scratch, and being seeded it
    must write the same bytes each time.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prepare.py")
    directory = os.path.join(work, "setup")
    times, previous = [], None
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, script, "--workload", workload, "--seed", str(seed),
             "--dir", directory],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
        if repeats > 1:
            current = _snapshot(directory)
            if previous is not None and current != previous:
                raise RuntimeError("set-up is not deterministic: repeats wrote different files")
            previous = current
    return directory, times


def run_command(program, commands, cmd: int, call: int, work: str, sinks,
                tracer=None) -> Result:
    """Time one call of ``commands[cmd]``, then check its output untimed.

    ``call`` numbers the call within the run: it names the output directory
    and, under a tracer, the command id of its spans.
    """
    if tracer is None and leftover_wrappers():
        raise RuntimeError(f"tracer wrappers still installed: {leftover_wrappers()}")
    command = commands[cmd]
    out, err = sinks
    out_dir = os.path.join(work, f"cmd{call}")
    argv = command.argv(out_dir)
    error = ""
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = program.cli.main(argv)
            else:
                code = tracer.run_command(call, program.cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing command is a failed command, not a crash
            code = "exception"
            error = traceback.format_exc()
    latency = time.perf_counter() - started
    stdout = out.take()
    err.take()
    try:
        quality = command.check(code, out_dir, stdout)
        ok = not error
    except CheckFailed as exc:
        quality, ok, error = {}, False, error or str(exc)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    return Result(cmd, latency, command.samples, ok, quality, error)


def run_phase(program, commands, seconds: float, work: str, sinks) -> list[Result]:
    """Closed loop: call the commands in turn until ``seconds`` have passed."""
    results = []
    minimum = max(MIN_COMMANDS, len(commands))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        results.append(run_command(program, commands, i % len(commands), i, work, sinks))
        i += 1
    return results


def run_traced(program, commands, seconds: float, work: str, sinks):
    """Closed loop of pairs: each command once untraced and once traced.

    A first, warm-up call takes the one-time costs (lazy imports, BLAS thread
    start, cold caches) and counts on neither side. Which side of a pair runs
    first alternates, so neither side always runs first. The tracer is
    installed only around each traced call.

    Returns the warm-up result, the untraced and the traced results, and the
    tracer holding the traced calls' spans.
    """
    tracer = Tracer()
    warm_up = run_command(program, commands, 0, 0, work, sinks)
    untraced, traced = [], []
    minimum = max(MIN_COMMANDS, len(commands))
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < minimum or time.perf_counter() < deadline:
        cmd = pair % len(commands)
        for side, is_traced in enumerate((False, True) if pair % 2 == 0 else (True, False)):
            call = 1 + 2 * pair + side
            if is_traced:
                tracer.install()
                try:
                    traced.append(run_command(program, commands, cmd, call, work, sinks, tracer))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(run_command(program, commands, cmd, call, work, sinks))
        pair += 1
    return warm_up, untraced, traced, tracer


def samples_per_s(results):
    """Median rows per second over passing commands; None if none passed."""
    ok = [r for r in results if r.ok]
    return statistics.median(r.samples / r.latency_s for r in ok) if ok else None


def end_to_end(results, setup_times, fixed_quality, n_commands) -> tuple[dict, dict]:
    """End-to-end figures; one that no passing command measured is left out.

    A figure is missing only when a command failed, so the run already reads
    ``"correct": false``; leaving it out keeps a missing loss or latency from
    reading as 0, which would look like a gain.
    """
    ok = [r for r in results if r.ok]
    lat = latency_summary([r.latency_s for r in ok]) if ok else None
    quality = dict(fixed_quality)
    # the first passing call of each distinct command carries its quality
    firsts = {}
    for r in ok:
        firsts.setdefault(r.cmd, r.quality)
    if len(firsts) == n_commands:
        for key in ("val_loss", "macro_f1"):
            if key not in quality:
                quality[key] = statistics.fmean(q[key] for q in firsts.values())
    values = {
        "samples_per_s": samples_per_s(results),
        "latency_ms_p50": lat["p50_ms"] if lat else None,
        "latency_ms_p90": lat["p90_ms"] if lat else None,
        "val_loss": quality.get("val_loss"),
        "macro_f1": quality.get("macro_f1"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": len(ok) / len(results),
    }
    return {k: v for k, v in values.items() if v is not None}, lat


def host_facts() -> dict:
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy without build-config dicts
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=_positive_int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = import_program()
    except (ProgramMissing, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        try:
            setup_dir, setup_times = run_setup(
                args.workload, args.seed, work, 1 if args.trace else SETUP_REPEATS)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        commands, fixed_quality = plan_commands(args.workload, setup_dir, program)
        sinks = (Sink(), Sink())
        if args.trace:
            warm_up, untraced, traced, tracer = run_traced(
                program, commands, args.seconds, work, sinks)
            results = [warm_up] + untraced + traced
            values = tracer.layer_metrics(len(traced))
            untraced_rate, traced_rate = samples_per_s(untraced), samples_per_s(traced)
            if untraced_rate and traced_rate:
                values["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
            units = {name: _layer_unit(name) for name in values}
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.csv.gz"))
            lat = None
        else:
            results = run_phase(program, commands, args.seconds, work, sinks)
            values, lat = end_to_end(results, setup_times, fixed_quality, len(commands))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if not r.ok]
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(), "setup_s": setup_times,
        "latency": lat, "latencies_ms": [round(r.latency_s * 1e3, 3) for r in results],
        "commands": len(results), "failures": [r.error for r in failed],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"host: {json.dumps(detail['host'], sort_keys=True)}")
    if lat:
        print(f"latency: {lat['samples']} commands, {lat['beyond_p90']} beyond p90")
    for r in failed[:3]:
        print(f"failed: {r.error.strip().splitlines()[-1]}")
    if args.trace:
        # the final line carries the baseline metric names; any op kind a
        # later change adds is printed here and kept in the result file
        _print_metrics(f"per-layer ({args.workload}, traced)", metrics)
        final = {k: v for k, v in metrics.items() if _reported(k)}
    else:
        _print_metrics(f"end-to-end ({args.workload})", metrics)
        final = metrics
    print(json.dumps({
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "metrics": final,
    }))
    return 0 if not failed else 1


def _layer_unit(name: str) -> str:
    if name.startswith("tensor."):
        return "ms/step" if name.endswith("_ms") else "count/step"
    if name == "trace.overhead_pct":
        return "%"
    return "ms/cmd" if name.endswith("_ms") else "count/cmd"


def _reported(name: str) -> bool:
    if name.startswith("tensor.op."):
        return name.split(".")[2] in BASELINE_OP_KINDS
    return True


if __name__ == "__main__":
    sys.exit(main())

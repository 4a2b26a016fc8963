"""Benchmark-side tracing of the program's layers.

:class:`Tracer` wraps the public functions of each layer module of
``beatformer`` from outside: every call made while a command is being
recorded becomes a span (name, start, end, parent, command id) kept in
memory. ``tensor.record_op`` is wrapped so the backward closure of every op
recorded on a tape becomes a span too, and the tape classes are tracked so
recorded ops can be counted. :meth:`Tracer.uninstall` puts every original
back; :func:`leftover_wrappers` proves it did.

A layer's time is the union of its spans' intervals, so a call nested in
another call of the same layer is not counted twice. A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

from program import LAYERS

PACKAGE = "beatformer"
ORIGINAL = "__bench_original__"

# op kinds recorded on the tape at the baseline; each always reports, as 0
# once an op is gone, so every traced run prints the same metric names
BASELINE_OP_KINDS = (
    "reshape", "add", "matmul", "bmm", "swap_last", "scale", "softmax", "mul",
    "layer_norm", "relu", "concat_cols", "first_rows", "tile_rows", "mean_axis1",
    "sparse_ce_loss",
)

# metric -> spans whose covered time it reports, in ms per command
LAYER_TIMES = {
    "model.forward_ms": ("model.forward",),
    "model.build_ms": ("model.build_model",),
    "train.loss_ms": ("train.sparse_ce_loss",),
    "train.adam_ms": ("train.Adam.step",),
    "train.evaluate_ms": ("train.evaluate",),
    "train.ckpt_save_ms": ("train.save_checkpoint",),
    "train.ckpt_load_ms": ("train.load_checkpoint",),
    "train.restore_ms": ("train.restore_model",),
    "train.predict_ms": ("train.predict",),
    "data.load_ms": ("data.load_csv", "data.load_features"),
    "data.normalize_ms": ("data.fit_normalizer", "data.apply_normalizer",
                          "data.per_sample_normalize", "data.apply_per_sample"),
}

# metric -> span whose calls it counts, per command
LAYER_CALLS = {
    "model.forward_calls": "model.forward",
    "train.ckpt_saves": "train.save_checkpoint",
}


class Span:
    __slots__ = ("index", "name", "parent", "cmd", "start", "end", "kind")

    def __init__(self, index, name, parent, cmd, start, end=None):
        self.index = index
        self.name = name
        self.parent = parent
        self.cmd = cmd
        self.start = start
        self.end = end
        self.kind = None  # op kind whose forward this span ran, if any


def union_length(intervals) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span index -> duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent.index].append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.index]]
        out[s.index] = (s.end - s.start) - union_length(
            (a, b) for a, b in covered if b > a
        )
    return out


def op_kind(backward_fn, fallback: str) -> str:
    """Name an op by the function that built its backward closure.

    ``matmul.<locals>.bwd`` is ``matmul`` and ``_softmax_impl.<locals>.bwd``
    is ``softmax``; a closure without a defining function takes ``fallback``.
    """
    qualname = getattr(backward_fn, "__qualname__", "")
    if ".<locals>" not in qualname:
        return fallback
    name = qualname.rsplit(".<locals>", 1)[0].rsplit(".", 1)[-1].strip("_")
    if name.endswith("_impl"):
        name = name[: -len("_impl")]
    return name or fallback


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list[str]:
    """Every attribute of the program that still holds a tracer wrapper."""
    found = []
    for module in _program_modules():
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value):
                for name, member in vars(value).items():
                    if hasattr(member, ORIGINAL):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class Tracer:
    """Spans and counters for the commands run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.cmd = None  # id of the command being recorded, None between commands
        self._stack: list[Span] = []
        self._tapes: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.cmd, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_command(self, cmd_id, fn, *args):
        """Call ``fn(*args)`` as command ``cmd_id`` under a root span."""
        self.cmd = cmd_id
        span = self.begin("command")
        try:
            return fn(*args)
        finally:
            self.end(span)
            self.cmd = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.cmd is None:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _wrap_record_op(self, fn):
        tracer = self

        @functools.wraps(fn)
        def record_op(out, inputs, backward_fn):
            tape = tracer._tapes[-1] if tracer._tapes else None
            if tracer.cmd is None or tape is None:
                return fn(out, inputs, backward_fn)
            op_span = tracer._stack[-1] if tracer._stack else None
            fallback = op_span.name.rsplit(".", 1)[-1] if op_span else "unknown"
            kind = op_kind(backward_fn, fallback)
            before = len(tape)
            result = fn(out, inputs, tracer._timed_backward(kind, backward_fn))
            if len(tape) > before:
                tracer.counters["records." + kind] += len(tape) - before
                # the forward time of an op is the self time of the tensor or
                # train function that recorded it
                if op_span is not None and op_span.name.split(".", 1)[0] in ("tensor", "train"):
                    op_span.kind = kind
            return result

        setattr(record_op, ORIGINAL, fn)
        return record_op

    def _timed_backward(self, kind: str, backward_fn):
        tracer = self
        name = "bwd." + kind

        def timed(grad):
            if tracer.cmd is None:
                return backward_fn(grad)
            span = tracer.begin(name)
            try:
                return backward_fn(grad)
            finally:
                tracer.end(span)

        return timed

    def _wrap_tape(self, cls):
        tracer = self

        class TracedTape(cls):
            def __enter__(self):
                entered = super().__enter__()
                tracer._tapes.append(self)
                return entered

            def __exit__(self, *exc):
                tracer._tapes.remove(self)
                return super().__exit__(*exc)

        TracedTape.__name__ = cls.__name__
        TracedTape.__qualname__ = cls.__qualname__
        setattr(TracedTape, ORIGINAL, cls)
        return TracedTape

    def _count_rows(self, args, result):
        rows = result.n if hasattr(result, "n") else result[0].shape[0]
        self.counters["rows_loaded"] += rows

    def _count_tape(self, args, result):
        self.counters["steps"] += 1
        self.counters["tape_records"] += len(args[0])

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr == "record_op":
                    wrapper = self._wrap_record_op(value)
                elif attr == "GradTape":
                    wrapper = self._wrap_tape(value)
                elif inspect.isfunction(value):
                    after = {"data.load_csv": self._count_rows,
                             "data.load_features": self._count_rows,
                             "tensor.backward": self._count_tape}.get(name)
                    wrapper = self._wrap(name, value, after)
                else:
                    continue
                replacements[id(value)] = (value, wrapper)
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        adam = sys.modules[f"{PACKAGE}.train"].Adam
        step = vars(adam)["step"]
        self._patches.append((adam, "step", step))
        adam.step = self._wrap("train.Adam.step", step)

    def uninstall(self) -> None:
        """Restore every original; safe to call when not installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, commands: int) -> dict:
        """Per-layer figures: per command, except the tensor ones, per train step."""
        steps = self.counters["steps"]
        per_cmd = 1.0 / commands if commands else 0.0
        per_step = 1.0 / steps if steps else 0.0
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append((s.start, s.end))
        selfs = self_times(self.spans)

        def covered_ms(names) -> float:
            return union_length(iv for n in names for iv in by_name[n]) / 1e6

        out = {
            "tensor.backward_ms": covered_ms(["tensor.backward"]) * per_step,
            "tensor.tape_records": self.counters["tape_records"] * per_step,
        }
        fwd = Counter()
        for s in self.spans:
            if s.kind is not None:
                fwd[s.kind] += selfs[s.index]
        recorded = [k[len("records."):] for k in self.counters if k.startswith("records.")]
        for kind in list(BASELINE_OP_KINDS) + sorted(set(recorded) - set(BASELINE_OP_KINDS)):
            prefix = f"tensor.op.{kind}."
            out[prefix + "fwd_ms"] = fwd[kind] / 1e6 * per_step
            out[prefix + "bwd_ms"] = covered_ms(["bwd." + kind]) * per_step
            out[prefix + "records"] = self.counters["records." + kind] * per_step
        for metric, names in LAYER_TIMES.items():
            out[metric] = covered_ms(names) * per_cmd
        for metric, name in LAYER_CALLS.items():
            out[metric] = len(by_name[name]) * per_cmd
        out["data.rows_loaded"] = self.counters["rows_loaded"] * per_cmd
        out["metrics.report_ms"] = covered_ms(
            [n for n in by_name if n.startswith("metrics.")]) * per_cmd
        out["cli.self_ms"] = sum(
            selfs[s.index] for s in self.spans if s.name.startswith("cli.")
        ) / 1e6 * per_cmd
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzip CSV: cmd,index,parent,name,start_ns,end_ns,kind."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("cmd,index,parent,name,start_ns,end_ns,kind\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent.index
                fh.write(f"{s.cmd},{s.index},{parent},{s.name},{s.start},{s.end},"
                         f"{s.kind or ''}\n")

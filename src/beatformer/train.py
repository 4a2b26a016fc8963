"""Training: cross-entropy loss, Adam, the epoch loop, and checkpointing.

:func:`epochs` shuffles per epoch, runs forward/backward/Adam per batch,
evaluates on the validation split after each epoch, and hands out a
checkpoint only when validation loss strictly improves the best seen so far.
This module writes no file: :func:`checkpoint_bytes` gives a checkpoint's
bytes to whoever writes them.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import signal
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import (
    SCHEMA,
    ModelConfig,
    RunConfig,
    TrainConfig,
    build_config,
    format_pairs,
    parse_int,
    read_pairs,
)
from .data import Dataset, NormStats, batches
from .errors import CheckpointError, ConfigError, NumericalError, ShapeError
from .model import Model, build_model, draw_masks, forward, weight_views
from .tensor import GradTape, Tensor, backward, record_op

__all__ = [
    "Adam",
    "EpochStats",
    "Checkpoint",
    "sparse_ce_loss",
    "infer",
    "openblas_threads",
    "blas_threads",
    "finite_logits",
    "score_logits",
    "predict",
    "epochs",
    "checkpoint_bytes",
    "load_checkpoint",
    "restore_model",
    "history_to_csv",
]

CKPT_MAGIC = b"BEATCKPT"
CKPT_VERSION = 3

# Rows per tape-free forward in :func:`infer`. The largest activation of a
# block is the packed QKV projection: at the default config a 64-row block
# holds 64 * 17 = 1,088 token rows of 3 * 8 * 16 = 384 float64, i.e.
# 1,088 * 384 * 8 B = 3.2 MiB (256 rows: 12.75 MiB), so a forward's working
# set stays near cache size and its peak heap is a quarter of what 256-row
# blocks took. Small blocks also give :func:`infer` blocks to share between
# its two processes: 2,000 rows make 32 blocks, split 16 and 16. Each row's
# logits depend only on that row, so any block size of two or more rows, and
# either process, gives the same bits. A one-row matmul goes to BLAS gemv,
# which rounds differently, so :func:`infer` folds a one-row last block into
# the block before it; a one-row input still runs gemv.
INFER_BLOCK_ROWS = 64


def sparse_ce_loss(logits: Tensor, labels, class_weights=None) -> Tensor:
    """Mean negative log-likelihood of the true class, via log-sum-exp.

    With ``class_weights`` the per-sample losses are averaged with weights
    looked up by true class (normalized by the total weight in the batch).
    Gradient is the fused softmax-minus-onehot rule.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError(f"logits {logits.shape} and labels {labels.shape} disagree")
    if labels.size and (labels.min() < 0 or labels.max() >= z.shape[1]):
        raise ValueError(f"labels must lie in {{0..{z.shape[1] - 1}}}")
    b = z.shape[0]
    if class_weights is None:
        sample_w = np.ones(b)
    else:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (z.shape[1],):
            raise ValueError(
                f"class_weights must have one entry per class, got {class_weights.shape}"
            )
        sample_w = class_weights[labels]
    total_w = sample_w.sum()
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    per_sample = lse - z[np.arange(b), labels]
    out = Tensor(np.asarray((sample_w * per_sample).sum() / total_w))

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(b), labels] -= 1.0
        return (np.asarray(g) * (sample_w[:, None] / total_w) * p,)

    record_op(out, (logits,), bwd)
    return out


class Adam:
    """Adam with bias correction over one flat parameter buffer, with the
    ``lr``, ``beta1``, ``beta2`` and ``eps`` of a :class:`TrainConfig`.

    ``params`` and ``grads`` are same-shaped float64 arrays, such as a model's
    ``flat_data`` and a gradient buffer laid out like it (see
    :meth:`~beatformer.model.Model.views`); each step updates ``params`` in place
    from whatever ``grads`` holds. The moments are two buffers of the same
    shape, and every operation is elementwise, so an update over the whole
    buffer equals one made tensor by tensor, bit for bit.
    """

    def __init__(self, params: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        self.params = params
        self.grads = grads
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self) -> None:
        """One update: t += 1, moment updates, bias correction, parameter step."""
        lr, beta1, beta2, eps = self.cfg.lr, self.cfg.beta1, self.cfg.beta2, self.cfg.eps
        self.t += 1
        c1 = 1.0 - beta1**self.t
        c2 = 1.0 - beta2**self.t
        g = self.grads
        self.m *= beta1
        self.m += (1.0 - beta1) * g
        self.v *= beta2
        self.v += (1.0 - beta2) * g * g
        self.params -= lr * (self.m / c1) / (np.sqrt(self.v / c2) + eps)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float


def history_to_csv(history: Sequence[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_loss,train_acc,val_acc"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.val_loss!r},{h.train_acc!r},{h.val_acc!r}")
    return "\n".join(lines) + "\n"


# the run-time thread setter and getter of the OpenBLAS that numpy wheels bundle
SET_THREADS = "scipy_openblas_set_num_threads64_"
GET_THREADS = "scipy_openblas_get_num_threads64_"


def openblas_threads():
    """The (setter, getter) of numpy's bundled OpenBLAS thread count, or None
    where the library or either symbol is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    if not all(hasattr(lib, name) for name in (SET_THREADS, GET_THREADS)):
        return None
    set_threads, get_threads = getattr(lib, SET_THREADS), getattr(lib, GET_THREADS)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@contextlib.contextmanager
def blas_threads(n: int):
    """Cap numpy's bundled OpenBLAS at ``n`` threads for the block, then
    restore its count; where :func:`openblas_threads` finds no setter this
    does nothing."""
    calls = openblas_threads()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def _block_logits(model: Model, features: np.ndarray, blocks) -> list[np.ndarray]:
    return [forward(model, features[start:end]).data for start, end in blocks]


def infer(model: Model, features: np.ndarray) -> np.ndarray:
    """Deterministic logits, one row per input row, computed
    :data:`INFER_BLOCK_ROWS` rows at a time; a last block of one row joins
    the block before it.

    With two or more blocks, two usable CPUs, ``os.fork`` and an OpenBLAS
    thread setter, a forked child runs the second half of the blocks while
    this process runs the first, each with BLAS at one thread; the child
    writes its logits into a shared anonymous mapping. If the child fails,
    this process runs its blocks itself; if this process raises, the child is
    killed and reaped first. Every path gives the serial bits.
    """
    n = features.shape[0]
    starts = list(range(0, n, INFER_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [n]))
    half = len(blocks) // 2
    if (half == 0 or openblas_threads() is None or not hasattr(os, "fork")
            or len(os.sched_getaffinity(0)) < 2):
        return np.vstack(_block_logits(model, features, blocks))
    mine, theirs = blocks[:half], blocks[half:]
    shape = (n - theirs[0][0], model.config.n_classes)
    with blas_threads(1), mmap.mmap(-1, shape[0] * shape[1] * 8) as shared:
        pid = os.fork()
        if pid == 0:
            try:
                np.concatenate(_block_logits(model, features, theirs),
                               out=np.frombuffer(shared, dtype=np.float64).reshape(shape))
                os._exit(0)
            finally:
                os._exit(1)
        try:
            logits = _block_logits(model, features, mine)
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        # copied out in one expression, so no view still exports the mapping
        # when it closes
        tail = (np.frombuffer(shared, dtype=np.float64).reshape(shape).copy()
                if os.waitstatus_to_exitcode(status) == 0 else None)
    # a failed child's blocks run here, serially, with BLAS's own thread count
    return np.vstack(logits + ([tail] if tail is not None
                               else _block_logits(model, features, theirs)))


def finite_logits(logits: np.ndarray) -> np.ndarray:
    """``logits``, unless a row holds a value that is not finite: that raises
    ``NumericalError`` naming the first such row."""
    bad = ~np.isfinite(logits).all(axis=1)
    if bad.any():
        raise NumericalError(f"the logits of input row {int(np.argmax(bad))} are not finite "
                             f"(rows counted from 0)")
    return logits


def score_logits(logits: np.ndarray, labels) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of a set of logits against true labels."""
    loss = sparse_ce_loss(Tensor(logits), labels).item()
    preds = np.argmax(logits, axis=1)  # ties resolve to the lowest class id
    return loss, float((preds == labels).mean())


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Deterministic softmax probabilities, one row per input row; logits
    that are not finite raise as :func:`finite_logits` does."""
    logits = finite_logits(infer(model, features))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Checkpoint:
    """Best-so-far model state plus everything needed to reproduce its run:
    ``weights`` is a flat float64 buffer laid out as
    :func:`~beatformer.model.weight_views` lays out ``config``'s weights."""

    config: ModelConfig
    weights: np.ndarray
    norm: NormStats
    best_val_loss: float
    epoch: int


def epochs(model: Model, cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset,
           norm: NormStats) -> Iterator[tuple[EpochStats, np.ndarray, Optional[Checkpoint]]]:
    """Train one epoch per ``next()``; yield its stats, its validation logits
    and, when its validation loss strictly improves on every earlier epoch's,
    the :class:`Checkpoint` of the current weights with ``norm`` (else None).

    The model config's seed seeds the shuffling and the dropout masks. A
    non-finite training loss aborts with the offending epoch/batch in the
    message, as does a non-finite gradient (naming its tensor) before the
    step that would take it into the weights; a non-finite validation loss
    aborts with the epoch.
    """
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    seed = model.config.seed
    flat_grad = np.zeros_like(model.flat_data)
    grads = model.views(flat_grad)
    optimizer = Adam(model.flat_data, flat_grad, cfg)
    dropout_rng = np.random.default_rng([seed, 0xD0])
    best = math.inf

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_idx, (features, labels) in enumerate(
            batches(train_ds, cfg.batch_size, [seed, epoch])
        ):
            flat_grad.fill(0.0)
            with GradTape() as tape:
                logits = forward(model, features,
                                 draw_masks(model.config, len(labels), dropout_rng))
                loss = sparse_ce_loss(logits, labels, cfg.class_weights or None)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericalError(
                    f"non-finite training loss {loss_value} at epoch {epoch}, "
                    f"batch {batch_idx}"
                )
            backward(tape, loss, grads)
            if not np.isfinite(flat_grad).all():
                name = next(name for name, g in weight_views(model.config, flat_grad).items()
                            if not np.isfinite(g).all())
                raise NumericalError(f"non-finite gradient of {name} at epoch {epoch}, "
                                     f"batch {batch_idx}")
            optimizer.step()
            epoch_loss += loss_value * len(labels)
            preds = np.argmax(logits.data, axis=1)
            epoch_correct += int((preds == labels).sum())

        val_logits = infer(model, val_ds.features)
        val_loss, val_acc = score_logits(val_logits, val_ds.labels)
        if not math.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss {val_loss} at epoch {epoch}")
        stats = EpochStats(epoch=epoch, train_loss=epoch_loss / train_ds.n, val_loss=val_loss,
                           train_acc=epoch_correct / train_ds.n, val_acc=val_acc)
        checkpoint = None
        if val_loss < best:
            best = val_loss
            checkpoint = Checkpoint(config=model.config, weights=model.flat_data.copy(),
                                    norm=norm, best_val_loss=val_loss, epoch=epoch)
        yield stats, val_logits, checkpoint


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------
#
# Little-endian binary layout:
#   magic (8 bytes) | version u32 | meta_len u64 | meta utf-8 | n_tensors u32
#   then per tensor: name_len u32 | name utf-8 | rank u32 | dims u64 * rank
#   | data float64 * prod(dims)
#   and last a CRC-32 u32 (zlib.crc32) of every byte before it.
# Meta is "key = value" lines in the codec of ``config``, each setting once:
# the model config (its seed is the run's), best_val_loss (float.hex for
# bit-exactness), epoch, the normalization mode and the file it was fitted on.

# meta key -> caster, in the order the keys are written
META_CASTERS = {**{f.name: SCHEMA[f.name] for f in fields(ModelConfig)},
                "best_val_loss": float.fromhex, "epoch": parse_int,
                "normalization": str, "norm_fitted_on": str}


def _tensor_table(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """The tensors a checkpoint stores, by name in file order: the weights as
    :func:`~beatformer.model.weight_views` gives them, then ``norm.mean`` and
    ``norm.std`` of ``input_len`` values; any other layout raises ``ShapeError``."""
    n = ckpt.config.input_len
    if np.shape(ckpt.norm.mean) != (n,) or np.shape(ckpt.norm.std) != (n,):
        raise ShapeError(f"normalization stats of this config hold {n} values each, got "
                         f"{np.shape(ckpt.norm.mean)} and {np.shape(ckpt.norm.std)}")
    return {**weight_views(ckpt.config, ckpt.weights),
            "norm.mean": ckpt.norm.mean, "norm.std": ckpt.norm.std}


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """The file bytes of ``ckpt``, its tensors as :func:`_tensor_table` gives
    them. A meta value that would not read back raises ``ConfigError``."""
    if ckpt.epoch < 0:
        raise ConfigError(f"checkpoint epoch {ckpt.epoch} is negative and would not read back")
    values = {**vars(ckpt.config), "best_val_loss": float(ckpt.best_val_loss).hex(),
              "epoch": ckpt.epoch, "normalization": ckpt.norm.mode,
              "norm_fitted_on": ckpt.norm.fitted_on}
    meta = format_pairs((key, values[key]) for key in META_CASTERS).encode("utf-8")
    tensors = _tensor_table(ckpt)

    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    blob += struct.pack("<Q", len(meta))
    blob += meta
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.astype("<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(blob))
    return bytes(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0
        self.end = len(data)  # where the parsed part stops

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > self.end:
            raise CheckpointError(f"truncated checkpoint while reading {what}",
                                  offset=self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and validate a checkpoint file; fail closed, naming the path or a
    byte offset, on a file that cannot be read and on any corruption."""
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh.read())
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read the checkpoint: "
                              f"{err.strerror or err}") from None

    magic = reader.take(len(CKPT_MAGIC), "magic")
    if magic != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, not a checkpoint file", offset=0)
    version = reader.u32("version")
    if version != CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported (expected {CKPT_VERSION})",
            offset=len(CKPT_MAGIC))
    # check the CRC before parsing, so a flipped weight byte cannot load
    reader.end = len(reader.data) - 4
    (crc,) = struct.unpack("<I", reader.data[reader.end:])
    if crc != zlib.crc32(memoryview(reader.data)[:reader.end]):
        raise CheckpointError("checksum does not match the file's contents", offset=reader.end)
    meta_len = reader.u64("meta length")
    meta_offset = reader.offset
    meta, problems = read_pairs(reader.take(meta_len, "meta"), META_CASTERS)
    if problems:
        _, at, key, problem = problems[0]
        raise CheckpointError(f"meta key {key}: {problem}" if key else f"meta block: {problem}",
                              offset=meta_offset + at)
    missing = [key for key in META_CASTERS if key not in meta]
    if missing:
        raise CheckpointError(f"meta block missing keys: {', '.join(missing)}")
    values = {key: value for key, (value, _, _) in meta.items()}
    if not math.isfinite(values["best_val_loss"]):
        _, _, at = meta["best_val_loss"]
        raise CheckpointError(f"meta key best_val_loss: '{values['best_val_loss']}' is not "
                              f"finite", offset=meta_offset + at)
    if values["epoch"] < 0:
        _, _, at = meta["epoch"]
        raise CheckpointError(f"meta key epoch: '{values['epoch']}' is negative",
                              offset=meta_offset + at)
    config = build_config(ModelConfig, values)
    violations = (config.validate()
                  + RunConfig(normalization=values["normalization"]).validate())
    if violations:
        raise CheckpointError(f"meta block holds an invalid config: {'; '.join(violations)}",
                              offset=meta_offset)

    # the stored table must be the one the writer walks: each name, rank and
    # shape is checked before its data is read into its view of fresh buffers
    n = config.input_len
    norm = NormStats(mean=np.empty(n), std=np.empty(n), mode=values["normalization"],
                     fitted_on=values["norm_fitted_on"])
    ckpt = Checkpoint(config=config, weights=np.empty(config.n_params()), norm=norm,
                      best_val_loss=values["best_val_loss"], epoch=values["epoch"])
    table = _tensor_table(ckpt)
    count_offset = reader.offset
    n_tensors = reader.u32("tensor count")
    for position, (name, view) in enumerate(table.items()):
        if position == n_tensors:
            raise CheckpointError(f"tensor count {n_tensors} leaves out {name}: the config "
                                  f"names {len(table)} tensors", offset=count_offset)
        name_len = reader.u32("tensor name length")
        name_offset = reader.offset
        try:
            stored = reader.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not valid UTF-8", offset=name_offset) from None
        if stored != name:
            raise CheckpointError(f"checkpoint holds tensor {stored!r} where its config "
                                  f"names {name}", offset=name_offset)
        rank = reader.u32(f"rank of {name}")
        if rank != view.ndim:
            raise CheckpointError(f"tensor {name} has rank {rank}, expected {view.ndim}",
                                  offset=name_offset)
        dims = struct.unpack(f"<{rank}Q", reader.take(8 * rank, f"dims of {name}"))
        if dims != view.shape:
            raise CheckpointError(f"tensor {name} has shape {dims}, expected {view.shape}",
                                  offset=name_offset)
        raw = reader.take(8 * view.size, f"data of {name}")
        flat = np.frombuffer(raw, dtype="<f8")
        # refuse what would reach a forward as nan: a value that is not
        # finite, or a std that is not > 0
        positive = name == "norm.std"
        ok = np.isfinite(flat) & (flat > 0 if positive else True)
        if not ok.all():
            i = int(np.argmin(ok))
            raise CheckpointError(f"tensor {name}: element {i} is {float(flat[i])!r}, must be "
                                  f"finite{' and > 0' if positive else ''}",
                                  offset=reader.offset - len(raw) + 8 * i)
        view[...] = flat.reshape(dims)
    if n_tensors != len(table):
        raise CheckpointError(f"tensor count {n_tensors} exceeds the {len(table)} tensors "
                              f"the config names", offset=count_offset)
    if reader.offset != reader.end:
        raise CheckpointError("trailing bytes after final tensor", offset=reader.offset)
    return ckpt


def restore_model(ckpt: Checkpoint) -> Model:
    """Rebuild the model from the stored config and load weights bit-exactly."""
    return build_model(ckpt.config, ckpt.weights)

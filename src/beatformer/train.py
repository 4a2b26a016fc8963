"""Training: cross-entropy loss, Adam, the epoch loop, and checkpointing.

The loop shuffles per epoch, runs forward/backward/Adam per batch, evaluates
on the validation split after each epoch, and overwrites the checkpoint only
when validation loss strictly improves the best seen so far.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .data import NORM_MODES, Dataset, NormStats, batches
from .errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    ConfigMismatchError,
    NumericalError,
)
from .model import Model, ModelConfig, build_model, forward
from .tensor import GradTape, Tensor, backward, record_op

__all__ = [
    "TrainConfig",
    "Adam",
    "EpochStats",
    "Checkpoint",
    "sparse_ce_loss",
    "infer",
    "score_logits",
    "predict",
    "train_loop",
    "save_checkpoint",
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
# blocks took. Each row's logits depend only on that row, so any block size of
# two or more rows gives the same bits. A one-row matmul goes to BLAS gemv,
# which rounds differently, so :func:`infer` folds a one-row last block into
# the block before it; a one-row input still runs gemv.
INFER_BLOCK_ROWS = 64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    # optional per-class loss weights (imbalance remedy); empty reproduces the
    # unweighted objective, which is the default
    class_weights: tuple[float, ...] = ()

    def validate(self) -> list[str]:
        bad = []
        if not isinstance(self.epochs, int) or self.epochs < 1:
            bad.append(f"epochs must be a positive integer, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            bad.append(f"batch_size must be a positive integer, got {self.batch_size!r}")
        # inf passes a bare "> 0": an infinite eps zeroes every Adam update
        if not 0 < self.lr < math.inf:
            bad.append(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                bad.append(f"{name} must lie in [0, 1), got {v}")
        if not 0 < self.eps < math.inf:
            bad.append(f"eps must be finite and > 0, got {self.eps}")
        if not all(0 < w < math.inf for w in self.class_weights):
            bad.append(f"class_weights must all be finite and > 0, got {self.class_weights}")
        return bad


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
    out = Tensor(np.asarray((sample_w * per_sample).sum() / total_w),
                 needs_grad=logits.needs_grad)

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(b), labels] -= 1.0
        return (np.asarray(g) * (sample_w[:, None] / total_w) * p,)

    record_op(out, (logits,), bwd)
    return out


class Adam:
    """Adam with bias correction over one flat parameter buffer.

    ``params`` and ``grads`` are same-shaped float64 arrays, such as a model's
    ``flat_data`` and a gradient buffer laid out like it (see
    :meth:`~beatformer.model.Model.views`); each step updates ``params`` in place
    from whatever ``grads`` holds. The moments are two buffers of the same
    shape, and every operation is elementwise, so an update over the whole
    buffer equals one made tensor by tensor, bit for bit.
    """

    def __init__(self, params: np.ndarray, grads: np.ndarray, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7):
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self) -> None:
        """One update: t += 1, moment updates, bias correction, parameter step."""
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g = self.grads
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        self.params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


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


def infer(model: Model, features: np.ndarray,
          batch_size: int = INFER_BLOCK_ROWS) -> np.ndarray:
    """Deterministic logits, one row per input row, computed ``batch_size`` rows at a time.

    A last block of one row joins the block before it (see
    :data:`INFER_BLOCK_ROWS`).
    """
    n = features.shape[0]
    starts = list(range(0, n, batch_size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [n]
    return np.vstack([forward(model, features[start:end]).data
                      for start, end in zip(starts, ends)])


def score_logits(logits: np.ndarray, labels) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of a set of logits against true labels."""
    loss = sparse_ce_loss(Tensor(logits), labels).item()
    preds = np.argmax(logits, axis=1)  # ties resolve to the lowest class id
    return loss, float((preds == labels).mean())


def predict(model: Model, features: np.ndarray,
            batch_size: int = INFER_BLOCK_ROWS) -> np.ndarray:
    """Deterministic softmax probabilities, one row per input row."""
    logits = infer(model, features, batch_size)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Checkpoint:
    """Best-so-far model state plus everything needed to reproduce its run."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    norm: NormStats
    best_val_loss: float
    epoch: int
    # the validation logits these weights gave at ``epoch``; kept in memory for
    # the run's report, never written to the checkpoint file
    val_logits: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.parameters()}


def train_loop(
    model: Model,
    cfg: TrainConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    checkpoint_path: Optional[str] = None,
    norm_stats: Optional[NormStats] = None,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Run the full training schedule; return the best checkpoint and history.

    The model config's seed seeds the shuffling and the dropout masks.
    The checkpoint (in memory, and on disk when a path is given) is replaced
    only when validation loss strictly improves, and carries the validation
    logits it was scored on. A non-finite training loss aborts with the
    offending epoch/batch in the message, a non-finite validation loss with
    the epoch.
    """
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    stats = norm_stats or NormStats(
        mean=np.zeros(model.config.input_len),
        std=np.ones(model.config.input_len),
        mode="standard",
        fitted_on="identity",
    )
    seed = model.config.seed
    flat_grad = np.zeros_like(model.flat_data)
    grads = model.views(flat_grad)
    optimizer = Adam(model.flat_data, flat_grad, lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2, eps=cfg.eps)
    dropout_rng = np.random.default_rng([seed, 0xD0])

    best = Checkpoint(
        config=model.config,
        params=_snapshot(model),
        norm=stats,
        best_val_loss=math.inf,
        epoch=-1,
    )
    history: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_idx, batch in enumerate(
            batches(train_ds, cfg.batch_size, shuffle=True, seed=[seed, epoch])
        ):
            flat_grad.fill(0.0)
            with GradTape() as tape:
                logits = forward(model, batch.features, dropout_rng)
                loss = sparse_ce_loss(logits, batch.labels, cfg.class_weights or None)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericalError(
                    f"non-finite training loss {loss_value} at epoch {epoch}, "
                    f"batch {batch_idx}"
                )
            backward(tape, loss, grads)
            optimizer.step()
            epoch_loss += loss_value * batch.n
            preds = np.argmax(logits.data, axis=1)
            epoch_correct += int((preds == batch.labels).sum())

        val_logits = infer(model, val_ds.features)
        val_loss, val_acc = score_logits(val_logits, val_ds.labels)
        if not math.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss {val_loss} at epoch {epoch}")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / train_ds.n,
                val_loss=val_loss,
                train_acc=epoch_correct / train_ds.n,
                val_acc=val_acc,
            )
        )
        if val_loss < best.best_val_loss:
            best = replace(best, params=_snapshot(model), best_val_loss=val_loss,
                           epoch=epoch, val_logits=val_logits)
            if checkpoint_path is not None:
                save_checkpoint(best, checkpoint_path)

    return best, history


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------
#
# Little-endian binary layout:
#   magic (8 bytes) | version u32 | meta_len u64 | meta utf-8 | n_tensors u32
#   then per tensor: name_len u32 | name utf-8 | rank u32 | dims u64 * rank
#   | data float64 * prod(dims)
#   and last a CRC-32 u32 (zlib.crc32) of every byte before it.
# Meta is "key = value" lines, each setting once: the model config (its seed
# is the run's), best_val_loss (float.hex for bit-exactness), epoch, the
# normalization mode and the file it was fitted on.


def _meta_text(ckpt: Checkpoint) -> str:
    pairs = dict(ckpt.config.to_dict())
    pairs["best_val_loss"] = float(ckpt.best_val_loss).hex()
    pairs["epoch"] = ckpt.epoch
    pairs["normalization"] = ckpt.norm.mode
    pairs["norm_fitted_on"] = ckpt.norm.fitted_on
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def _parse_meta(text: str, offset: int) -> dict[str, str]:
    """``key = value`` lines of a meta block that starts at byte ``offset``.

    Lines end in ``\n`` alone, as :func:`_meta_text` writes them, so a value
    may hold any other line separator. A line without ``=``, or a key given
    twice, raises ``CheckpointError`` naming the line's byte offset.
    """
    out = {}
    for line in text.split("\n"):
        if line.strip():
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise CheckpointError(f"meta line {line.strip()!r} is not 'key = value'",
                                      offset=offset)
            if key in out:
                raise CheckpointError(f"meta key {key!r} is given twice", offset=offset)
            out[key] = value.strip()
        offset += len(line.encode("utf-8")) + 1
    return out


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Atomic write: serialize to a temp file, then rename over the target."""
    meta = _meta_text(ckpt).encode("utf-8")
    tensors = dict(ckpt.params)
    tensors["norm.mean"] = ckpt.norm.mean
    tensors["norm.std"] = ckpt.norm.std

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

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0
        self.end = len(data)  # where the parsed part stops

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > self.end:
            raise CheckpointError(
                f"truncated checkpoint while reading {what}", offset=self.offset
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and validate a checkpoint file; fail closed on any corruption."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())

    magic = reader.take(len(CKPT_MAGIC), "magic")
    if magic != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, not a checkpoint file", offset=0)
    version = reader.u32("version")
    if version != CKPT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version} unsupported (expected {CKPT_VERSION})",
            offset=len(CKPT_MAGIC))
    # check the CRC before parsing, so a flipped weight byte cannot load
    reader.end = len(reader.data) - 4
    (crc,) = struct.unpack("<I", reader.data[reader.end:])
    if crc != zlib.crc32(memoryview(reader.data)[:reader.end]):
        raise CheckpointError("checksum does not match the file's contents", offset=reader.end)
    meta_len = reader.u64("meta length")
    meta_offset = reader.offset
    try:
        text = reader.take(meta_len, "meta").decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("meta block is not valid UTF-8", offset=reader.offset) from None
    meta = _parse_meta(text, meta_offset)

    config_keys = [f.name for f in fields(ModelConfig)]
    missing = [k for k in config_keys + ["best_val_loss", "epoch", "normalization",
                                         "norm_fitted_on"] if k not in meta]
    if missing:
        raise CheckpointError(f"meta block missing keys: {', '.join(missing)}")
    try:
        config = ModelConfig.from_dict({k: meta[k] for k in config_keys})
        best_val_loss = float.fromhex(meta["best_val_loss"])
        epoch = int(meta["epoch"])
    except (ValueError, OverflowError) as err:
        raise CheckpointError(f"meta block holds an unparsable value: {err}",
                              offset=meta_offset) from None
    violations = config.validate()
    if meta["normalization"] not in NORM_MODES:
        violations.append(f"normalization must be one of {NORM_MODES}, "
                          f"got {meta['normalization']!r}")
    if violations:
        raise CheckpointError(f"meta block holds an invalid config: {'; '.join(violations)}",
                              offset=meta_offset)

    n_tensors = reader.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name_len = reader.u32("tensor name length")
        name_offset = reader.offset
        try:
            name = reader.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not valid UTF-8", offset=name_offset) from None
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}", offset=name_offset)
        rank = reader.u32(f"rank of {name}")
        if rank > 3:
            raise CheckpointError(f"tensor {name} has rank {rank} > 3", offset=reader.offset)
        dims = struct.unpack(f"<{rank}Q", reader.take(8 * rank, f"dims of {name}"))
        count = 1
        for d in dims:
            count *= d
        raw = reader.take(8 * count, f"data of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    if reader.offset != reader.end:
        raise CheckpointError("trailing bytes after final tensor", offset=reader.offset)
    for required in ("norm.mean", "norm.std"):
        if required not in tensors:
            raise CheckpointError(f"checkpoint lacks the {required} tensor")
        if tensors[required].shape != (config.input_len,):
            raise CheckpointError(f"tensor {required} has shape {tensors[required].shape}, "
                                  f"expected ({config.input_len},) for input_len "
                                  f"{config.input_len}")

    return Checkpoint(
        config=config,
        params={k: v for k, v in tensors.items() if not k.startswith("norm.")},
        norm=NormStats(mean=tensors["norm.mean"], std=tensors["norm.std"],
                       mode=meta["normalization"], fitted_on=meta["norm_fitted_on"]),
        best_val_loss=best_val_loss,
        epoch=epoch,
    )


def restore_model(ckpt: Checkpoint) -> Model:
    """Rebuild the model from the stored config and load weights bit-exactly."""
    model = build_model(ckpt.config)
    named = dict(model.parameters())
    for name, tensor in named.items():
        if name not in ckpt.params:
            raise ConfigMismatchError(f"checkpoint lacks parameter {name}")
        stored = ckpt.params[name]
        if stored.shape != tensor.data.shape:
            raise ConfigMismatchError(
                f"parameter {name} has shape {stored.shape}, expected {tensor.data.shape}"
            )
        tensor.data[...] = stored
    leftover = [name for name in ckpt.params if name not in named]
    if leftover:
        raise ConfigMismatchError(f"checkpoint holds tensor {leftover[0]}, which its config "
                                  f"does not name")
    return model

"""Dense float64 tensors with taped reverse-mode gradient accumulation.

Every numerical value in the package flows through :class:`Tensor`. Running
ops inside a ``with GradTape() as tape:`` block records one entry per op;
``backward(tape, loss, grads)`` replays the records in reverse and adds each
gradient into the array that ``grads`` maps its tensor to. Gradients are an
output the caller places: a tensor holds no gradient slot, and repeated
backward calls accumulate into the same arrays.

A record names its output and inputs by :attr:`Tensor.key` and holds no
tensor, and each backward rule captures only the arrays it reads. So an op
output that no rule reads (a residual branch, a pre-ReLU activation) is
freed as soon as the forward has consumed it, as in PyTorch's autograd,
which saves per op only what the derivative formula needs. Dropout masks
are boolean; an op rebuilds the scaled float mask ``keep / (1 - p)`` where
it needs it.

Storage is row-major (C-contiguous) float64 throughout. Rank 0..3 is
supported; fused ops such as :func:`attention` use higher-rank arrays only
inside the op.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "GradTape",
    "backward",
    "record_op",
    "linear",
    "embed_tokens",
    "attention",
    "relu",
    "add_layer_norm",
    "mean_tokens",
    "grad_check",
    "GradCheckReport",
]


# serial numbers for Tensor.key; unlike id(), never handed out twice
_KEYS = itertools.count()

LN_EPS = 1e-6  # add_layer_norm's variance floor


class Tensor:
    """Dense float64 array, hashed by identity.

    Every tensor is differentiable: what gets a gradient is what
    :func:`backward`'s ``grads`` maps. ``key`` is a serial number no other
    tensor of the process gets, even after this one is freed; tape records
    name tensors by it.
    """

    __slots__ = ("data", "key")

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} tensor not supported (max rank 3)")
        self.data = arr
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass
class _OpRecord:
    # the output's key and each input's key: no tensor is kept, so the tape
    # pins no array a rule does not read
    out: int
    inputs: tuple
    # maps d(loss)/d(out) to a tuple of d(loss)/d(input), None where it gives none
    backward_fn: Callable[[np.ndarray], tuple]


class GradTape:
    """Ordered record of executed ops for one reverse pass.

    Use as a context manager; ops executed inside the block are recorded.
    Independent tapes are independent recordings (the active-tape stack is
    thread-local, so separate threads may run separate tapes in parallel).
    """

    def __init__(self):
        self._records: list[_OpRecord] = []

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)


_TAPE_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TAPE_LOCAL, "stack", None)
    if stack is None:
        stack = _TAPE_LOCAL.stack = []
    return stack


def _active_tape() -> Optional[GradTape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def record_op(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> None:
    """Record a custom op on the active tape, if any.

    ``backward_fn(out_grad)`` must return one gradient array (or None) per
    input, in order. Extension point for fused ops defined outside this
    module (e.g. the cross-entropy loss).
    """
    tape = _active_tape()
    if tape is not None:
        tape._records.append(_OpRecord(out.key, tuple(t.key for t in inputs), backward_fn))


def backward(tape: GradTape, loss: Tensor, grads: Mapping[Tensor, np.ndarray]) -> None:
    """Add d(loss)/d(t) into ``grads[t]`` for every tensor ``t`` that ``grads`` maps.

    The records are replayed exactly once each, in reverse recording order,
    and each contribution to a mapped tensor is added into its array as its
    record runs, so two calls accumulate; zero the arrays between optimizer
    steps. A tensor ``grads`` does not map gets nothing. Map only tape
    leaves (parameters, inputs): nothing flows on from a mapped tensor to
    the tensors it was computed from.

    Every other adjoint is dropped as soon as the op that produced it has
    run: every consumer was recorded later and has already added into it, so
    backward holds only the adjoints still waiting for their producer, not
    one per recorded op.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    adjoints: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
    dests = {t.key: arr for t, arr in grads.items()}
    for rec in reversed(tape._records):
        out_adj = adjoints.pop(rec.out, None)
        if out_adj is None:
            continue  # not on any path to the loss
        for key, g in zip(rec.inputs, rec.backward_fn(out_adj)):
            if g is None:
                continue
            dest = dests.get(key)
            if dest is not None:
                dest += g
                continue
            # out of place: a backward rule may hand the same array to several
            # inputs (add_layer_norm's does without a dropout mask), so a
            # stored adjoint is never written into
            if key in adjoints:
                adjoints[key] = adjoints[key] + g
            else:
                adjoints[key] = g


def _out(data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    record_op(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def _affine(x: Tensor, w: Tensor, b: Tensor, op: str):
    """X @ W + b for a rank-2 X, and the rule mapping dY to (dX, dW, db).

    The bias row is added in place to the product; its gradient is the column
    sum of dY, while dX = dY @ W^T and dW = X^T @ dY.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"{op} needs rank-2 input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op} inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"{op} bias must have shape ({w.shape[1]},), got {b.shape}")
    y = x.data @ w.data
    y += b.data

    def grads(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return y, grads


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Y = X @ W + b for a rank-2 X, recorded as one op."""
    y, grads = _affine(x, w, b, "linear")
    # a closure of linear's own, so a profiled tape record is named after the op
    return _out(y, (x, w, b), lambda g: grads(g))


def embed_tokens(patches: Tensor, w: Tensor, b: Tensor, pos: Tensor) -> Tensor:
    """Token embeddings patches @ W + b plus each token's positional row, as one op.

    ``patches`` stacks the (t, patch_len) patch rows of each sample, sample
    after sample, and ``pos`` is the (t, d) positional table: token i of every
    sample gets row i. The table's gradient is dY summed over the samples.
    """
    if pos.data.ndim != 2 or pos.shape[1] != w.shape[-1]:
        raise ShapeError(f"embed_tokens table must have {w.shape[-1]} columns, got {pos.shape}")
    t, d = pos.shape
    if patches.shape[0] % t:
        raise ShapeError(f"{patches.shape[0]} patch rows do not split into samples of {t} tokens")
    y, grads = _affine(patches, w, b, "embed_tokens")
    tokens = y.reshape(-1, t, d)
    tokens += pos.data

    def bwd(g):
        return (*grads(g), g.reshape(-1, t, d).sum(axis=0))

    return _out(y, (patches, w, b, pos), bwd)


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """``x`` summed over axis 0 in the order numpy sums one contiguous row.

    Each entry equals numpy's sum of the same n values stored as one row, bit
    for bit, yet every add here runs over a whole slab ``x[i]`` at once. That
    order: below 8 terms a running sum; up to 128 terms (numpy's block size)
    eight running sums over blocks of 8, added as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in turn;
    beyond that the two halves, the first rounded down to a multiple of 8,
    each summed so and then added.
    """
    n = x.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    if n < 8:
        acc = x[0].copy()
        tail = x[1:]
    else:
        r = x[:8].copy()
        whole = n - n % 8
        for i in range(8, whole, 8):
            r += x[i:i + 8]
        # the tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), one level per line
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        acc = r[0] + r[4]
        tail = x[whole:]
    for row in tail:
        acc += row
    # numpy adds the row's sum to a +0.0 start, which turns a -0.0 sum into +0.0
    acc += 0.0
    return acc


def attention(qkv: Tensor, b: int, t: int, heads: int, d_head: int) -> Tensor:
    """Multi-head self-attention softmax(Q K^T / sqrt(d_head)) V as one op.

    ``qkv`` is the packed (b*t, 3*heads*d_head) projection of ``b`` samples
    of ``t`` tokens each, its columns ordered q|k|v, then head, then position
    within the head. Tokens attend only within their own sample. The result
    is (b*t, heads*d_head) with the heads side by side.

    The scores are stored key-major, one (t, b, heads, t) buffer indexed
    [key, sample, head, query], so each softmax step runs over axis 0: t
    passes over rows of b*heads*t values, not b*heads*t passes over rows of
    t. The max is exact in any order and the other steps are elementwise;
    the sum adds in numpy's own row order (:func:`_pairwise_sum`), so from
    the same scores the weights equal a query-major row softmax's bit for bit.
    Both products get the same dot products as a query-major layout. The
    backward takes a query-major copy of the saved weights and writes dQ, dK
    and dV into one buffer laid out like ``qkv``.
    """
    width = 3 * heads * d_head
    if qkv.data.ndim != 2 or qkv.shape != (b * t, width):
        raise ShapeError(
            f"attention needs a ({b * t}, {width}) packed projection for {b} samples of "
            f"{t} tokens and {heads} heads of size {d_head}, got {qkv.shape}"
        )
    s = 1.0 / math.sqrt(d_head)
    # (b, heads, t, d_head) views into the packed columns, no copies
    q, k, v = qkv.data.reshape(b, t, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    keys = np.empty((t, b, heads, t))
    np.matmul(k, q.swapaxes(-1, -2), out=keys.transpose(1, 2, 0, 3))
    keys *= s
    keys -= keys.max(axis=0)
    np.exp(keys, out=keys)
    keys /= _pairwise_sum(keys)
    out = np.empty((b, t, heads, d_head))
    np.matmul(keys.transpose(1, 2, 3, 0), v, out=out.transpose(0, 2, 1, 3))

    def bwd(g):
        # (b, heads, query, key); einsum's row sums below need query-major rows
        weights = np.ascontiguousarray(keys.transpose(1, 2, 3, 0))
        g_out = g.reshape(b, t, heads, d_head).transpose(0, 2, 1, 3)
        grad = np.empty((b, t, 3, heads, d_head))
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(weights.swapaxes(-1, -2), g_out, out=gv)
        g_scores = np.matmul(g_out, v.swapaxes(-1, -2))
        # softmax backward, W * (dW - rowsum(dW * W)), then the 1/sqrt(d) scale;
        # einsum forms the row sums without a (b, heads, t, t) temporary
        g_scores -= np.einsum("...ij,...ij->...i", g_scores, weights)[..., None]
        g_scores *= weights
        g_scores *= s
        np.matmul(g_scores, k, out=gq)
        np.matmul(g_scores.swapaxes(-1, -2), q, out=gk)
        return (grad.reshape(b * t, width),)

    return _out(out.reshape(b * t, heads * d_head), (qkv,), bwd)


def relu(a: Tensor, keep: Optional[np.ndarray] = None, p: float = 0.0) -> Tensor:
    """max(a, 0), with inverted dropout at rate ``p`` when a boolean mask
    ``keep`` is given: kept entries are scaled by 1 / (1 - p), the rest zeroed."""
    if keep is not None and keep.shape != a.shape:
        raise ShapeError(f"relu dropout mask has shape {keep.shape}, expected {a.shape}")
    mask = a.data > 0
    # np.maximum (not where) so NaN propagates instead of being silently zeroed
    out = np.maximum(a.data, 0.0)
    if keep is None:
        return _out(out, (a,), lambda g: (g * mask,))
    out *= keep / (1.0 - p)
    return _out(out, (a,), lambda g: (g * (keep / (1.0 - p)) * mask,))


def add_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor,
                   keep: Optional[np.ndarray] = None, p: float = 0.0) -> Tensor:
    """Residual sum then LayerNorm over the last axis, gamma * x_hat + beta of
    x + y, with the variance floor :data:`LN_EPS`.

    With a boolean dropout mask ``keep`` of rate ``p`` the sum is
    x + (keep / (1 - p)) * y: the post-norm residual step LN(x + Dropout(y)).
    The forward centres the sum in one buffer and scales it in place into
    x_hat; the backward works in place on g * gamma and, without a mask,
    hands the same dX array to both inputs. It keeps x_hat, not x or y.
    """
    if x.shape != y.shape:
        raise ShapeError(f"add_layer_norm residual shapes disagree: {x.shape} + {y.shape}")
    if keep is not None and keep.shape != y.shape:
        raise ShapeError(f"add_layer_norm dropout mask has shape {keep.shape}, expected {y.shape}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"add_layer_norm gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    # mean and variance summed exactly as np.mean and np.var sum them
    xhat = x.data + (y.data if keep is None else y.data * (keep / (1.0 - p)))
    xhat -= xhat.sum(axis=-1, keepdims=True) / d
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        tmp = g * xhat
        ggamma = tmp.sum(axis=lead)
        gbeta = g.sum(axis=lead)
        # dX = inv / d * (d * dX_hat - sum(dX_hat) - x_hat * sum(dX_hat * x_hat))
        gx = g * gamma.data
        sum_gx = gx.sum(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=tmp)
        sum_gx_xhat = tmp.sum(axis=-1, keepdims=True)
        gx *= d
        gx -= sum_gx
        np.multiply(xhat, sum_gx_xhat, out=tmp)
        gx -= tmp
        gx *= inv / d
        return gx, (gx if keep is None else gx * (keep / (1.0 - p))), ggamma, gbeta

    return _out(out, (x, y, gamma, beta), bwd)


def mean_tokens(x: Tensor, b: int) -> Tensor:
    """Each sample's token mean, (b * t, d) token rows to (b, d), as one op."""
    if x.data.ndim != 2 or b < 1 or x.shape[0] % b:
        raise ShapeError(f"mean_tokens needs rank-2 rows that split into {b} samples, "
                         f"got {x.shape}")
    t = x.shape[0] // b
    return _out(x.data.reshape(b, t, -1).mean(axis=1), (x,),
                lambda g: (np.repeat(g / t, t, axis=0),))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

_REL_GUARD = 1e-6  # denominator floor so near-zero gradients compare sanely
GRADCHECK_EPS = 1e-5  # grad_check's finite-difference step
GRADCHECK_TOL = 1e-4  # grad_check's bound on the worst relative error


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    n_elements: int
    worst_param: str
    worst_index: int
    analytic: float
    numeric: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max relative error {self.max_rel_error:.3e} over "
            f"{self.n_elements} elements (tol {GRADCHECK_TOL:.1e}); worst "
            f"{self.worst_param}[{self.worst_index}] analytic={self.analytic:.9e} "
            f"numeric={self.numeric:.9e}"
        )


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    names: Optional[Sequence[str]] = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be a zero-argument deterministic function (any dropout masks
    drawn once, outside it) returning a scalar Tensor computed from
    ``params``. Every parameter element is perturbed by +/- :data:`GRADCHECK_EPS`,
    and the check passes when the worst relative error is at most
    :data:`GRADCHECK_TOL`. The analytic gradients go into arrays of this
    check's own.
    """
    if names is None:
        names = [f"param{i}" for i in range(len(params))]

    base = f().item()
    if f().item() != base:
        raise ValueError(
            "gradient check target is not deterministic (does it draw dropout masks?)"
        )

    grads = {p: np.zeros_like(p.data) for p in params}
    with GradTape() as tape:
        loss = f()
    backward(tape, loss, grads)
    analytic = [grads[p] for p in params]

    max_rel = 0.0
    worst = ("", 0, 0.0, 0.0)
    n_elements = 0
    for name, p, a in zip(names, params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            f_plus = f().item()
            flat[i] = orig - GRADCHECK_EPS
            f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRADCHECK_EPS)
            rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), _REL_GUARD)
            if rel > max_rel:
                max_rel = rel
                worst = (name, i, float(a_flat[i]), float(numeric))
            n_elements += 1

    return GradCheckReport(
        passed=max_rel <= GRADCHECK_TOL,
        max_rel_error=max_rel,
        n_elements=n_elements,
        worst_param=worst[0],
        worst_index=worst[1],
        analytic=worst[2],
        numeric=worst[3],
    )

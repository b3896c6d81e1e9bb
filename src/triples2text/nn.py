"""Tensor operations with a replay tape for reverse-mode gradients.

Everything operates on 2-D, C-contiguous numpy arrays with shape
[batch, features] unless stated otherwise; that array layout is the
project's only tensor type. The program computes in float32: a
:class:`Parameter` and the batch-norm running statistics are made in
``DTYPE``, and every kernel, workspace loan and scratch buffer takes its
dtype from its inputs. :func:`to_float64` recasts a built model's arrays,
exactly, so that the same code computes in float64; the gradient check
and the tests' float64 oracles run on that path. Checkpoints hold
float64 blocks whatever the model's dtype.

A forward pass optionally records closures on a :class:`Tape`;
``Tape.backward`` replays them in reverse order and accumulates gradients
into the nodes' ``grad`` buffers. A :class:`Parameter` is itself a node,
whose buffer persists across passes, so every operation takes a parameter
directly. There is no graph compiler: the triple encoder, the decoder's
recurrence and its output layer with the loss each record one fused op
with a hand-written backward (the encoder through the
batch-normalisation kernels here, the output head through
:func:`masked_softmax_nll`), so a training batch records 3 closures.
Passing ``tape=None`` runs the same code as a pure forward evaluation.

A :class:`Workspace` lends those ops their large arrays from buffers it
keeps (``training.train`` keeps one per epoch's batches); without one
every array is fresh.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

from .fileio import atomic_open

Array = np.ndarray


class ShapeError(ValueError):
    """Operands with incompatible shapes, named in the message."""


class TapeError(RuntimeError):
    """Tape misuse, e.g. backward() twice without a new forward pass."""


class BadCheckpointError(ValueError):
    """Checkpoint container is truncated, corrupt, or of the wrong version."""


DTYPE = np.float32  # of every parameter and running statistic, so of all arithmetic


def tensor2d(rows: int, cols: int) -> Array:
    return np.zeros((rows, cols), DTYPE)


class Node:
    """A value in the recorded computation, with a lazily allocated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: Array):
        self.value = value
        self.grad: Array | None = None


class Parameter(Node):
    """A named trainable matrix: a node whose gradient buffer persists
    across forward passes, with its RMSProp accumulator.

    value, grad and rms_acc always share one shape. Vectors are stored as
    [1, n] matrices so every parameter serialises the same way.
    """

    __slots__ = ("name", "rms_acc")

    def __init__(self, name: str, rows: int, cols: int):
        super().__init__(tensor2d(rows, cols))
        self.name = name
        self.grad = tensor2d(rows, cols)
        self.rms_acc = tensor2d(rows, cols)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, {self.value.shape[0]}x{self.value.shape[1]})"


def _acc(node: Node, g: Array) -> None:
    if node.grad is None:
        node.grad = g + 0.0  # a new array, bit for bit zeros + g
    else:
        node.grad += g


class Tape:
    """Records backward closures during a forward pass and replays them."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []
        self._spent = False

    def record(self, fn: Callable[[], None]) -> None:
        self._ops.append(fn)

    def backward(self, loss: Node) -> None:
        """Populate gradients of every recorded input of ``loss``.

        Each closure is dropped once it has run, so the arrays it cached are
        freed during the sweep rather than after it; that keeps a batch's
        peak memory, and the fresh pages it touches, lower. Raises
        TapeError when called a second time: the recorded closures
        accumulate, so replaying them again would double every gradient.
        """
        if self._spent:
            raise TapeError("backward() called twice on the same tape; run a new forward pass")
        self._spent = True
        loss.grad = np.ones_like(loss.value)
        while self._ops:
            self._ops.pop()()


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0.0


def leaf(value: Array) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


# ---------------------------------------------------------------------------
# recorded operations


def matmul(tape: Tape | None, a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    out = Node(a.value @ b.value)
    if tape is not None:
        def bwd():
            _acc(a, out.grad @ b.value.T)
            _acc(b, a.value.T @ out.grad)
        tape.record(bwd)
    return out


def sigmoid_array(x: Array) -> Array:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, so exp
    never overflows; both branches share e = exp(-|x|). The numerator
    max(e, x >= 0) is 1 where x >= 0, since e <= 1 there, and e elsewhere,
    NaN included: the same bits as choosing by the sign, without a branch."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def masked_softmax_nll(logits: Array, targets: Array, weights: Array, masked: int) -> Array:
    """Per-row negative log probability of `targets`, with the masked
    column renormalised away and rows weighted (weight 0 = padding, no
    loss). In place: the [batch, |X|] logits become the probabilities.

    Where the target's probability underflows to a subnormal or zero (a
    logit gap above about 87 in float32, 708 in float64), its log is
    taken from the logits instead, as (target - max) - log(row sum), so
    the loss stays finite and exact; every other row is -log p."""
    rows = np.arange(len(targets))
    logits[:, masked] = -np.inf
    with np.errstate(invalid="ignore"):  # -inf - -inf on masked columns is fine
        logits -= logits.max(axis=1, keepdims=True)
        shifted = logits[rows, targets]  # a copy, kept from before the exp
        np.exp(logits, out=logits)
        sums = logits.sum(axis=1, keepdims=True)
        logits /= sums
    # weight-0 rows may point at a masked target; keep the log argument sane
    safe = np.where(weights > 0.0, logits[rows, targets], 1.0)
    under = safe < np.finfo(safe.dtype).tiny
    safe[under] = 1.0
    logp = np.log(safe)
    logp[under] = shifted[under] - np.log(sums[under, 0])
    return -(logp * weights)


# ---------------------------------------------------------------------------
# batch normalisation


class BatchNorm:
    """Per-feature batch normalisation with running statistics.

    Training mode normalises by the batch mean and (biased) variance and
    folds them into the running statistics; inference mode normalises by
    the running statistics alone. A training batch of one row has no
    usable variance and is rejected.
    """

    momentum = 0.9  # weight of the old running statistics per update
    eps = 1e-5

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width
        self.scale = Parameter(f"{name}.scale", 1, width)
        self.scale.value[...] = 1.0
        self.shift = Parameter(f"{name}.shift", 1, width)
        self.running_mean = tensor2d(1, width)
        self.running_var = tensor2d(1, width)
        self.running_var[...] = 1.0

    def parameters(self) -> list[Parameter]:
        return [self.scale, self.shift]

    def state_blocks(self) -> list[tuple[str, Array]]:
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]


def to_float64(params: Iterable[Parameter], batch_norms: Iterable[BatchNorm]) -> None:
    """Recast each parameter's value, gradient and RMSProp accumulator and
    each batch norm's running statistics to float64, exactly. Every kernel
    takes its dtype from these arrays, so the parts they belong to then
    compute in float64."""
    for p in params:
        p.value, p.grad, p.rms_acc = (a.astype(np.float64) for a in (p.value, p.grad, p.rms_acc))
    for bn in batch_norms:
        bn.running_mean = bn.running_mean.astype(np.float64)
        bn.running_var = bn.running_var.astype(np.float64)


def batch_norm_forward(x: Array, bn: BatchNorm, training: bool) -> tuple[Array, Array, Array]:
    """Normalise the rows of x by ``bn``: (output, normalised rows, 1/std).

    The variance is np.var's own arithmetic on the centred rows, so it
    equals ``x.var(axis=0)`` bit for bit without a second centring pass.
    """
    if x.shape[1] != bn.width:
        raise ShapeError(f"batch_norm {bn.name}: width {x.shape[1]} != {bn.width}")
    n = x.shape[0]
    if training:
        if n < 2:
            raise ValueError(f"batch_norm {bn.name}: training needs a batch of >= 2 rows, got {n}")
        mean = x.mean(axis=0, keepdims=True)
        xc = x - mean
        var = np.square(xc).sum(axis=0, keepdims=True) / n
        bn.running_mean[...] = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mean
        bn.running_var[...] = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var
    else:
        xc, var = x - bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + bn.eps)
    xhat = xc * inv
    return bn.scale.value * xhat + bn.shift.value, xhat, inv


def batch_norm_backward(g: Array, bn: BatchNorm, xhat: Array, inv: Array,
                        training: bool) -> Array:
    """The input gradient of :func:`batch_norm_forward` for the output
    gradient g; the scale and shift gradients are added to their buffers."""
    bn.shift.grad += g.sum(axis=0, keepdims=True)
    bn.scale.grad += (g * xhat).sum(axis=0, keepdims=True)
    dxhat = g * bn.scale.value
    if not training:
        return dxhat * inv
    n = g.shape[0]  # the batch statistics depend on every row too
    return inv / n * (n * dxhat
                      - dxhat.sum(axis=0, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))


# ---------------------------------------------------------------------------
# optimisation


def init_uniform(params: Iterable[Parameter], low: float, high: float, seed: int) -> None:
    """Fill every parameter with uniform samples from [low, high).

    The generator is seeded once and parameters are filled in iteration
    order, so an identical seed reproduces the initialisation bitwise.
    """
    rng = np.random.default_rng(seed)
    for p in params:
        p.value[...] = rng.uniform(low, high, size=p.value.shape)


_BLOCK = 1 << 14  # values per cache-sized block of an elementwise update
RMSPROP_DECAY = 0.95  # rho: weight of the old mean square per update
RMSPROP_EPSILON = 1e-8
FD_STEP = 1e-5  # h of gradient_check's central differences


class Workspace:
    """Flat buffers by key, lent as contiguous arrays of any shape and
    dtype that fits, and replaced when one does not. An array lent for a
    key is overwritten by the next loan of that key, so whatever holds one
    (a node, a recorded closure) must be spent before the next pass."""

    def __init__(self):
        self._buffers: dict[str, Array] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype: np.dtype) -> Array:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def empty(ws: Workspace | None, key: str, shape: tuple[int, ...], dtype: np.dtype) -> Array:
    """``ws``'s buffer for ``key`` in the given shape and dtype, or a fresh array."""
    return np.empty(shape, dtype) if ws is None else ws.take(key, shape, dtype)


def clip_gradients(params: Iterable[Parameter], max_norm: float | None) -> tuple[float, float]:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns (norm, factor): the global norm before clipping and the
    applied scale (1.0 when no clipping happened or clipping is disabled
    with max_norm=None).
    """
    params = list(params)
    buf = np.empty(max((p.grad.size for p in params), default=0),
                   params[0].grad.dtype if params else DTYPE)
    total = 0.0
    for p in params:
        sq = np.multiply(p.grad, p.grad, out=buf[:p.grad.size].reshape(p.grad.shape))
        total += float(sq.sum())
    norm = total ** 0.5
    if max_norm is None or norm <= max_norm or norm == 0.0:
        return norm, 1.0
    factor = max_norm / norm
    for p in params:
        p.grad *= factor
    return norm, factor


def rmsprop_step(params: Iterable[Parameter], learning_rate: float,
                 l2_coefficient: float) -> None:
    """One RMSProp update: divide each step by a running RMS of gradients.

    The l2 penalty enters through the gradient (g += 2*l2*value) before
    both the accumulator and the step, so zero gradient with zero l2 is a
    fixed point. Every accumulator decays, rows with zero gradient too.

    The update runs in place, in cache-sized blocks of each flattened
    parameter and two scratch buffers of its dtype, in the operation order of
    acc = rho*acc + ((1-rho)*g)*g and value -= (lr*g) / sqrt(acc + eps),
    with rho = RMSPROP_DECAY and eps = RMSPROP_EPSILON;
    every operation is elementwise, so it is bit-identical to that formula
    written with temporaries.
    """
    for p in params:
        value, grad, acc = p.value.reshape(-1), p.grad.reshape(-1), p.rms_acc.reshape(-1)
        buf_a, buf_b = np.empty((2, min(value.size, _BLOCK)), value.dtype)
        for lo in range(0, value.size, _BLOCK):
            v, g, r = value[lo:lo + _BLOCK], grad[lo:lo + _BLOCK], acc[lo:lo + _BLOCK]
            a, b = buf_a[:v.size], buf_b[:v.size]
            if l2_coefficient:
                g = np.add(g, np.multiply(v, 2.0 * l2_coefficient, out=a), out=a)
            np.multiply(g, 1.0 - RMSPROP_DECAY, out=b)
            b *= g
            r *= RMSPROP_DECAY
            r += b
            np.add(r, RMSPROP_EPSILON, out=b)
            np.sqrt(b, out=b)
            np.multiply(g, learning_rate, out=a)
            a /= b
            v -= a


def gradient_check(loss_fn: Callable[[bool], float], params: Sequence[Parameter]) -> float:
    """Compare analytic gradients to central differences of step ``FD_STEP``.

    ``loss_fn(compute_grads)`` must rerun the same forward pass on fixed
    data; with compute_grads=True it must also populate Parameter.grad.
    Returns the worst relative error over every entry of every parameter,
    with the denominator floored at 1e-4 so that pure float noise around
    zero gradients does not register.
    """
    zero_grads(params)
    loss_fn(True)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = loss_fn(False)
            flat[i] = keep - FD_STEP
            down = loss_fn(False)
            flat[i] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            an = a.reshape(-1)[i]
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-4)
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# binary block container (checkpoints)

_MAGIC = b"T2TB"
_VERSION = 1


def write_blocks(path: str, header: dict, blocks: Sequence[tuple[str, Array]]) -> None:
    """Write the versioned container: magic, version, JSON header, then
    named blocks of (name, rows, cols, row-major little-endian float64).
    A float32 array widens to float64 exactly.

    The write is atomic (:func:`fileio.atomic_open`): a write that fails
    part-way leaves any previous file at ``path`` intact.
    """
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            if arr.ndim != 2:
                raise ShapeError(f"block {name}: expected a 2-D array")
            data = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<QQ", data.shape[0], data.shape[1]))
            fh.write(data.tobytes())


def read_blocks(path: str) -> tuple[dict, dict[str, Array]]:
    """Read a container written by :func:`write_blocks`.

    Every length and shape is checked against the bytes left in the file
    before it is read, so any truncated or corrupted file raises
    :class:`BadCheckpointError`. Each block is a read-only little-endian
    float64 view of the bytes read, so that a caller converts it to its
    own dtype in one pass.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(n, what):
            nonlocal left
            buf = fh.read(n) if n <= left else b""
            if len(buf) != n:
                raise BadCheckpointError(f"truncated checkpoint while reading {what}")
            left -= n
            return buf

        def text(raw, what):
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                raise BadCheckpointError(f"corrupt checkpoint {what}: invalid UTF-8") from None

        if take(4, "magic") != _MAGIC:
            raise BadCheckpointError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != _VERSION:
            raise BadCheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", take(4, "header length"))
        try:
            header = json.loads(text(take(hlen, "header"), "header"))
        except json.JSONDecodeError as exc:
            raise BadCheckpointError(f"corrupt checkpoint header: {exc}") from None
        if not isinstance(header, dict):
            raise BadCheckpointError("corrupt checkpoint header: not a JSON object")
        (nblocks,) = struct.unpack("<I", take(4, "block count"))
        blocks: dict[str, Array] = {}
        for _ in range(nblocks):
            (nlen,) = struct.unpack("<I", take(4, "name length"))
            name = text(take(nlen, "name"), "block name")
            rows, cols = struct.unpack("<QQ", take(16, "shape"))
            raw = take(rows * cols * 8, f"data of {name}")
            try:
                blocks[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
            except ValueError:  # an empty block whose other dimension is absurd
                raise BadCheckpointError(f"corrupt shape {rows}x{cols} of {name}") from None
        return header, blocks

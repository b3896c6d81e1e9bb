"""The per-step taped training loss that ``Decoder.sequence`` and
``Decoder.output_loss`` replaced, kept as the reference the fused
recurrence and output head are compared with.

``batch_loss`` walks the decoder one timestep at a time: each step
records its embedding lookup, joint gate GEMM, gate slices and
elementwise cell ops on the tape, and each step gets its own output layer
and masked softmax-NLL. ``output_loss`` is the taped chain the fused head
replaced: the affine output layer, the softmax-NLL, the sum and the
scale, one closure each. ``masked_log_softmax`` is the reference of
``Decoder.log_distribution``. The elementwise tape ops they need no longer
exist in ``triples2text.nn`` and are kept here as they were; the row
lookup, stacking and affine ops and the taped encoder come from
``reference_encoder``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import reference_encoder
from reference_encoder import _grad, affine, hstack, rows_lookup
from triples2text import nn
from triples2text.decoder import LSTM
from triples2text.nn import Node, Tape, _acc, sigmoid_array

Array = np.ndarray

# ---------------------------------------------------------------------------
# the elementwise tape ops of the per-step cell and the loss


def add(tape: Tape | None, x: Node, y: Node) -> Node:
    if x.value.shape != y.value.shape:
        raise nn.ShapeError(f"add: {x.value.shape} + {y.value.shape}")
    out = Node(x.value + y.value)
    if tape is not None:
        def bwd():
            _acc(x, out.grad)
            _acc(y, out.grad)
        tape.record(bwd)
    return out


def mul(tape: Tape | None, x: Node, y: Node) -> Node:
    if x.value.shape != y.value.shape:
        raise nn.ShapeError(f"mul: {x.value.shape} * {y.value.shape}")
    out = Node(x.value * y.value)
    if tape is not None:
        def bwd():
            _acc(x, out.grad * y.value)
            _acc(y, out.grad * x.value)
        tape.record(bwd)
    return out


def slice_cols(tape: Tape | None, x: Node, start: int, stop: int) -> Node:
    out = Node(x.value[:, start:stop])
    if tape is not None:
        def bwd():
            _grad(x)[:, start:stop] += out.grad
        tape.record(bwd)
    return out


def sigmoid(tape: Tape | None, x: Node) -> Node:
    out = Node(sigmoid_array(x.value))
    if tape is not None:
        def bwd():
            _acc(x, out.grad * out.value * (1.0 - out.value))
        tape.record(bwd)
    return out


def tanh(tape: Tape | None, x: Node) -> Node:
    out = Node(np.tanh(x.value))
    if tape is not None:
        def bwd():
            _acc(x, out.grad * (1.0 - out.value * out.value))
        tape.record(bwd)
    return out


def scale_shift(tape: Tape | None, x: Node, scale: float, shift: float = 0.0) -> Node:
    out = Node(x.value * scale + shift)
    if tape is not None:
        def bwd():
            _acc(x, out.grad * scale)
        tape.record(bwd)
    return out


def sum_all(tape: Tape | None, x: Node) -> Node:
    out = Node(np.array([[x.value.sum()]]))
    if tape is not None:
        def bwd():
            _acc(x, np.full_like(x.value, out.grad[0, 0]))
        tape.record(bwd)
    return out


def masked_softmax_nll(tape: Tape | None, logits: Node, targets: Array,
                       weights: Array, masked_cols: Sequence[int]) -> tuple[Node, Array]:
    """Per-row negative log probability of `targets`, with masked columns
    renormalised away and rows weighted (weight 0 = padding, no loss).

    Returns the [batch, 1] loss node and the probability matrix.
    """
    b, _ = logits.value.shape
    with np.errstate(invalid="ignore"):  # -inf - -inf on masked columns is fine
        z = logits.value.copy()
        if len(masked_cols):
            z[:, list(masked_cols)] = -np.inf
        e = np.exp(z - z.max(axis=1, keepdims=True))
        total = e.sum(axis=1, keepdims=True)
        probs = e / total
    rows = np.arange(b)
    # weight-0 rows may point at a masked target; keep the log argument sane
    ptar = probs[rows, targets]
    safe = np.where(weights > 0.0, ptar, 1.0)
    nll = -(np.log(safe) * weights)[:, None]
    out = Node(nll)
    if tape is not None:
        def bwd():
            g = out.grad[:, 0] * weights
            d = probs * g[:, None]
            d[rows, targets] -= g
            _acc(logits, d)
        tape.record(bwd)
    return out, probs


def masked_log_softmax(logits: Array, masked_cols: Sequence[int]) -> Array:
    """Row-wise log softmax with the given columns excluded (probability
    0): the operations ``Decoder.log_distribution`` runs in place."""
    s = logits.copy()
    if len(masked_cols):
        s[:, list(masked_cols)] = -np.inf
    s -= s.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def output_loss(dec, tape: Tape | None, hidden: Node, targets: Array, weights: Array,
                scale: float) -> tuple[Node, float]:
    """``Decoder.output_loss`` as the taped chain it replaced: the output
    layer, the softmax-NLL, the sum and the scale."""
    logits = affine(tape, hidden, dec.out_w, dec.out_b)
    nll, _ = masked_softmax_nll(tape, logits, targets, weights, [dec.pad_index])
    total = sum_all(tape, nll)
    return scale_shift(tape, total, scale), float(total.value[0, 0])


# ---------------------------------------------------------------------------
# the per-step decoder and loss


def step(dec, tape: nn.Tape | None, x, h_prev: Node, c_prev: Node | None
         ) -> tuple[Node, Node | None]:
    """One taped timestep of ``dec`` on a batch of token indices: the new
    hidden and (LSTM) cell nodes."""
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= dec.target_size):
        raise nn.ShapeError(f"decoder step: token index out of range [0, {dec.target_size})")
    emb = rows_lookup(tape, dec.embed, x)
    m = dec.m
    joint = hstack(tape, [emb, h_prev])
    z = affine(tape, joint, dec.gate_w, dec.gate_b)
    if dec.cell_kind == LSTM:
        in_g = sigmoid(tape, slice_cols(tape, z, 0, m))
        f_g = sigmoid(tape, slice_cols(tape, z, m, 2 * m))
        out_g = sigmoid(tape, slice_cols(tape, z, 2 * m, 3 * m))
        cand = tanh(tape, slice_cols(tape, z, 3 * m, 4 * m))
        c = add(tape, mul(tape, f_g, c_prev), mul(tape, in_g, cand))
        return mul(tape, out_g, tanh(tape, c)), c
    r_g = sigmoid(tape, slice_cols(tape, z, 0, m))
    u_g = sigmoid(tape, slice_cols(tape, z, m, 2 * m))
    cand = tanh(tape, add(
        tape,
        affine(tape, emb, dec.cand_in_w, dec.cand_in_b),
        nn.matmul(tape, mul(tape, r_g, h_prev), dec.cand_hh_w),
    ))
    keep = scale_shift(tape, u_g, -1.0, 1.0)  # 1 - u
    return add(tape, mul(tape, keep, h_prev), mul(tape, u_g, cand)), None


def batch_loss(model, tape: nn.Tape | None, batch, training: bool,
               max_timestep: int | None = None) -> tuple[nn.Node, float, int]:
    """``Seq2Seq.batch_loss`` with one taped step, output layer and
    softmax-NLL per timestep."""
    if not batch:
        raise ValueError("empty batch")
    h0 = reference_encoder.encode_batch(model.encoder, tape, [ex.triples for ex in batch],
                                        training)
    h = h0
    c = nn.leaf(np.zeros(h0.value.shape)) if model.decoder.cell_kind == LSTM else None
    steps = max(len(ex.target) for ex in batch) - 1
    if max_timestep is not None:
        steps = min(steps, max_timestep)
    b = len(batch)
    inputs = np.full((b, steps), model.pad_index, dtype=int)
    targets = np.full((b, steps), model.pad_index, dtype=int)
    weights = np.zeros((b, steps))
    for i, ex in enumerate(batch):
        seq = ex.target
        n = min(len(seq) - 1, steps)
        inputs[i, :n] = seq[:n]
        targets[i, :n] = seq[1:n + 1]
        weights[i, :n] = 1.0
    weights[targets == model.pad_index] = 0.0  # appended padding is never predicted
    total = None
    total_nll = 0.0
    for t in range(steps):
        h, c = step(model.decoder, tape, inputs[:, t], h, c)
        logits = affine(tape, h, model.decoder.out_w, model.decoder.out_b)
        nll, _ = masked_softmax_nll(tape, logits, targets[:, t], weights[:, t],
                                    [model.pad_index])
        total_nll += float(nll.value.sum())
        total = nll if total is None else add(tape, total, nll)
    cost = scale_shift(tape, sum_all(tape, total), 1.0 / b)
    return cost, total_nll, int(weights.sum())

"""The per-step taped training loss that ``Decoder.sequence`` replaced,
kept as the reference the fused recurrence is compared with.

``batch_loss`` walks the decoder one timestep at a time: each step
records its embedding lookup, joint gate GEMM, gate slices and
elementwise cell ops on the tape, and each step gets its own output layer
and masked softmax-NLL. The elementwise tape ops it needs no longer exist
in ``triples2text.nn`` and are kept here as they were; the row lookup and
stacking ops and the taped encoder come from ``reference_encoder``.
"""

from __future__ import annotations

import numpy as np

import reference_encoder
from reference_encoder import _grad, hstack, rows_lookup
from triples2text import nn
from triples2text.decoder import LSTM
from triples2text.nn import Node, Tape, _acc, sigmoid_array

# ---------------------------------------------------------------------------
# the elementwise tape ops of the per-step cell


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
    z = nn.affine(tape, joint, dec.gate_w, dec.gate_b)
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
        nn.affine(tape, emb, dec.cand_in_w, dec.cand_in_b),
        nn.matmul(tape, mul(tape, r_g, h_prev), dec.cand_hh_w),
    ))
    keep = nn.scale_shift(tape, u_g, -1.0, 1.0)  # 1 - u
    return add(tape, mul(tape, keep, h_prev), mul(tape, u_g, cand)), None


def batch_loss(model, tape: nn.Tape | None, batch, training: bool,
               max_timestep: int | None = None,
               update_running: bool = True) -> tuple[nn.Node, float, int]:
    """``Seq2Seq.batch_loss`` with one taped step, output layer and
    softmax-NLL per timestep."""
    if not batch:
        raise ValueError("empty batch")
    h0 = reference_encoder.encode_batch(model.encoder, tape, [ex.triples for ex in batch],
                                        training, update_running)
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
        logits = model.decoder.logits(tape, h)
        nll, _ = nn.masked_softmax_nll(tape, logits, targets[:, t], weights[:, t],
                                       [model.pad_index])
        total_nll += float(nll.value.sum())
        total = nll if total is None else add(tape, total, nll)
    cost = nn.scale_shift(tape, nn.sum_all(tape, total), 1.0 / b)
    return cost, total_nll, int(weights.sum())

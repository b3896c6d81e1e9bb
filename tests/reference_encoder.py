"""The taped triple encoder that ``TripleEncoder.encode_batch`` replaced,
kept as the reference the fused encoder is compared with bit for bit.

``encode_batch`` composes the generic tape ops: an embedding row lookup,
a bias, batch norm over the 3n component rows, three row slices stacked
side by side, the hidden map, batch norm and ReLU, slot packing, the
aggregate affine map and the last batch norm. Each records its own
closure. The ops that no code in ``triples2text`` calls any more are kept
here as they were (``add_bias`` and ``affine`` since the decoder's output
layer became one op), and the per-step decoder reference uses them too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from triples2text import nn
from triples2text.nn import Node, Tape, _acc

Array = np.ndarray


def _grad(node: Node) -> Array:
    """The node's gradient buffer, allocated as zeros on first use."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    return node.grad


# ---------------------------------------------------------------------------
# the generic tape ops of the encoder


def rows_lookup(tape: Tape | None, w: Node, idx: Array) -> Node:
    """Select rows of w by index; the embedding realisation of one-hot input."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= w.value.shape[0]):
        raise nn.ShapeError(
            f"rows_lookup: index out of range [0, {w.value.shape[0]}) in {np.sort(np.unique(idx))[:5]}..."
        )
    out = Node(w.value[idx])
    if tape is not None:
        def bwd():
            np.add.at(_grad(w), idx, out.grad)
        tape.record(bwd)
    return out


def add_bias(tape: Tape | None, x: Node, b: Node) -> Node:
    """Add a [1, n] bias row to every row of x."""
    if b.value.shape != (1, x.value.shape[1]):
        raise nn.ShapeError(f"add_bias: bias {b.value.shape} onto {x.value.shape}")
    out = Node(x.value + b.value)
    if tape is not None:
        def bwd():
            _acc(x, out.grad)
            _acc(b, out.grad.sum(axis=0, keepdims=True))
        tape.record(bwd)
    return out


def affine(tape: Tape | None, x: Node, w: Node, b: Node | None) -> Node:
    """x @ w (+ b broadcast over the batch)."""
    out = nn.matmul(tape, x, w)
    if b is not None:
        out = add_bias(tape, out, b)
    return out


def hstack(tape: Tape | None, parts: Sequence[Node]) -> Node:
    widths = [p.value.shape[1] for p in parts]
    out = Node(np.concatenate([p.value for p in parts], axis=1))
    if tape is not None:
        def bwd():
            off = 0
            for p, w in zip(parts, widths):
                _acc(p, out.grad[:, off:off + w])
                off += w
        tape.record(bwd)
    return out


def slice_rows(tape: Tape | None, x: Node, start: int, stop: int) -> Node:
    out = Node(x.value[start:stop])
    if tape is not None:
        def bwd():
            _grad(x)[start:stop] += out.grad
        tape.record(bwd)
    return out


def pack_slots(tape: Tape | None, x: Node, example_idx: Array, slot_idx: Array,
               n_examples: int, n_slots: int) -> Node:
    """Scatter rows of x into a zero-padded [n_examples, n_slots*width] layout.

    Row r of x lands in example example_idx[r], slot slot_idx[r]. Unfilled
    slots stay zero, which realises padding-with-zero-vectors.
    """
    width = x.value.shape[1]
    buf = np.zeros((n_examples, n_slots, width))
    buf[example_idx, slot_idx] = x.value
    out = Node(buf.reshape(n_examples, n_slots * width))
    if tape is not None:
        def bwd():
            g3 = out.grad.reshape(n_examples, n_slots, width)
            _acc(x, g3[example_idx, slot_idx])
        tape.record(bwd)
    return out


def relu(tape: Tape | None, x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0))
    if tape is not None:
        def bwd():
            _acc(x, out.grad * (x.value > 0.0))
        tape.record(bwd)
    return out


def batch_norm(tape: Tape | None, x: Node, bn: nn.BatchNorm, training: bool) -> Node:
    if x.value.shape[1] != bn.width:
        raise nn.ShapeError(f"batch_norm {bn.name}: width {x.value.shape[1]} != {bn.width}")
    n = x.value.shape[0]
    if training:
        if n < 2:
            raise ValueError(f"batch_norm {bn.name}: training needs a batch of >= 2 rows, got {n}")
        mean = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)
        bn.running_mean[...] = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mean
        bn.running_var[...] = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var
    else:
        mean, var = bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x.value - mean) * inv
    out = Node(bn.scale.value * xhat + bn.shift.value)
    if tape is not None:
        def bwd():
            g = out.grad
            _acc(bn.shift, g.sum(axis=0, keepdims=True))
            _acc(bn.scale, (g * xhat).sum(axis=0, keepdims=True))
            dxhat = g * bn.scale.value
            if training:  # the batch statistics depend on x too
                dx = inv / n * (n * dxhat
                                - dxhat.sum(axis=0, keepdims=True)
                                - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
            else:
                dx = dxhat * inv
            _acc(x, dx)
        tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# the taped encoder


def encode_triples(enc, tape: nn.Tape | None, spo: Array, training: bool) -> nn.Node:
    """Vector representations for a [n, 3] array of source index triples.

    The three components go through the shared embedding (and one
    shared batch-norm state, applied to all component vectors at once),
    are concatenated to a [n, 3m] block and mapped through the unbiased
    hidden layer with batch norm before the ReLU.
    """
    spo = np.asarray(spo)
    if spo.ndim != 2 or spo.shape[1] != 3:
        raise nn.ShapeError(f"encode_triples: expected [n, 3] indices, got {spo.shape}")
    if spo.size and (spo.min() < 0 or spo.max() >= enc.source_size):
        raise nn.ShapeError(
            f"encode_triples: source index out of range [0, {enc.source_size})")
    n = spo.shape[0]
    flat = rows_lookup(tape, enc.embed, spo.T.reshape(-1))  # [3n, m]: all s, all p, all o
    flat = add_bias(tape, flat, enc.embed_bias)
    flat = batch_norm(tape, flat, enc.bn_embed, training)
    parts = [slice_rows(tape, flat, k * n, (k + 1) * n) for k in range(3)]
    h = hstack(tape, parts)  # [n, 3m]
    h = nn.matmul(tape, h, enc.hidden)
    h = batch_norm(tape, h, enc.bn_hidden, training)
    return relu(tape, h)


def aggregate(enc, tape: nn.Tape | None, h_triples: nn.Node,
              example_idx: Array, slot_idx: Array, n_examples: int,
              training: bool) -> nn.Node:
    """Concatenate per-triple vectors per example, pad with zero vectors
    up to e_max slots, and map to the decoder initialisation vector.

    h_triples holds one row per real triple; example_idx / slot_idx give
    each row's example and its position within that example's set.
    """
    if slot_idx.size and slot_idx.max() >= enc.e_max:
        raise ValueError(
            f"aggregate: {int(slot_idx.max()) + 1} triples exceed the capacity e_max={enc.e_max}")
    packed = pack_slots(tape, h_triples, example_idx, slot_idx, n_examples, enc.e_max)
    out = affine(tape, packed, enc.aggregate_w, enc.aggregate_b)
    return batch_norm(tape, out, enc.bn_out, training)


def encode_batch(enc, tape: nn.Tape | None, triple_sets: list[list[tuple[int, int, int]]],
                 training: bool) -> nn.Node:
    """Decoder initialisation vectors for a batch of triple sets."""
    rows, ex_idx, slot_idx = [], [], []
    for i, triples in enumerate(triple_sets):
        if len(triples) > enc.e_max:
            raise ValueError(
                f"example {i}: {len(triples)} triples exceed the capacity e_max={enc.e_max}")
        for j, t in enumerate(triples):
            rows.append(t)
            ex_idx.append(i)
            slot_idx.append(j)
    n = len(triple_sets)
    if rows:
        h = encode_triples(enc, tape, np.asarray(rows), training)
    else:
        h = nn.leaf(np.zeros((0, enc.m)))
    return aggregate(enc, tape, h, np.asarray(ex_idx, dtype=int),
                     np.asarray(slot_idx, dtype=int), n, training)

"""Feed-forward triple encoder and triple-set aggregation.

Each (subject, predicate, object) index triple is embedded through one
shared source embedding, the three component vectors are concatenated and
mapped through an unbiased hidden layer with a ReLU, and the per-triple
vectors are concatenated in input order (zero-padded up to the slot
capacity) and mapped to the vector that initialises the decoder.

Batch normalisation sits after each fully-connected map: on the shared
embedding output, before the ReLU, and after the aggregation map.

The whole encoder runs on plain arrays and, given a tape, records one op
whose hand-written backward writes every encoder gradient from the
activations cached by the forward pass.
"""

from __future__ import annotations

import numpy as np

from . import nn


class TripleEncoder:

    def __init__(self, source_size: int, m: int, e_max: int):
        self.source_size = source_size
        self.m = m
        self.e_max = e_max
        self.embed = nn.Parameter("encoder.embed", source_size, m)
        self.embed_bias = nn.Parameter("encoder.embed_bias", 1, m)
        self.hidden = nn.Parameter("encoder.hidden", 3 * m, m)  # unbiased map
        self.aggregate_w = nn.Parameter("encoder.aggregate_w", e_max * m, m)
        self.aggregate_b = nn.Parameter("encoder.aggregate_b", 1, m)
        self.bn_embed = nn.BatchNorm("encoder.bn_embed", m)
        self.bn_hidden = nn.BatchNorm("encoder.bn_hidden", m)
        self.bn_out = nn.BatchNorm("encoder.bn_out", m)

    def parameters(self) -> list[nn.Parameter]:
        ps = [self.embed, self.embed_bias, self.hidden, self.aggregate_w, self.aggregate_b]
        for bn in self.batch_norms():
            ps.extend(bn.parameters())
        return ps

    def batch_norms(self) -> list[nn.BatchNorm]:
        return [self.bn_embed, self.bn_hidden, self.bn_out]

    def encode_batch(self, tape: nn.Tape | None, triple_sets: list[list[tuple[int, int, int]]],
                     training: bool) -> nn.Node:
        """Decoder initialisation vectors [len(triple_sets), m] for a batch
        of triple sets, as one recorded op.

        The three components of every triple go through the shared
        embedding and one batch-norm state (all subjects, then all
        predicates, then all objects), are concatenated to one [n, 3m] row
        per triple and mapped through the unbiased hidden layer with batch
        norm before the ReLU. Triple j of set i fills slot j of row i of a
        zero-padded [len(triple_sets), e_max*m] block, which the aggregate
        affine map and the last batch norm turn into the output.
        """
        for i, triples in enumerate(triple_sets):
            if len(triples) > self.e_max:
                raise ValueError(
                    f"example {i}: {len(triples)} triples exceed the capacity e_max={self.e_max}")
        counts = [len(triples) for triples in triple_sets]
        n_sets, n, m = len(triple_sets), sum(counts), self.m
        spo = np.asarray([t for triples in triple_sets for t in triples], dtype=int)
        if n and (spo.ndim != 2 or spo.shape[1] != 3):
            raise nn.ShapeError(f"encode_batch: expected [n, 3] indices, got {spo.shape}")
        if n and (spo.min() < 0 or spo.max() >= self.source_size):
            raise nn.ShapeError(
                f"encode_batch: source index out of range [0, {self.source_size})")
        ex_idx = np.repeat(np.arange(n_sets), counts)
        slot_idx = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        packed = np.zeros((n_sets, self.e_max, m), self.embed.value.dtype)
        if n:
            idx = spo.T.reshape(-1)  # [3n]: all subjects, all predicates, all objects
            flat = self.embed.value[idx]
            flat += self.embed_bias.value
            flat, xhat_e, inv_e = nn.batch_norm_forward(flat, self.bn_embed, training)
            joint = flat.reshape(3, n, m).transpose(1, 0, 2).reshape(n, 3 * m)  # [s; p; o]
            pre, xhat_h, inv_h = nn.batch_norm_forward(joint @ self.hidden.value,
                                                       self.bn_hidden, training)
            packed[ex_idx, slot_idx] = np.maximum(pre, 0.0)
        packed = packed.reshape(n_sets, self.e_max * m)
        agg, xhat_o, inv_o = nn.batch_norm_forward(
            packed @ self.aggregate_w.value + self.aggregate_b.value, self.bn_out, training)
        out = nn.Node(agg)
        if tape is None:
            return out

        def bwd():
            g = out.grad
            if g is None:
                return
            g = nn.batch_norm_backward(g, self.bn_out, xhat_o, inv_o, training)
            self.aggregate_b.grad += g.sum(axis=0, keepdims=True)
            self.aggregate_w.grad += packed.T @ g
            if not n:
                return
            g = (g @ self.aggregate_w.value.T).reshape(n_sets, self.e_max, m)[ex_idx, slot_idx]
            g = g * (pre > 0.0)
            g = nn.batch_norm_backward(g, self.bn_hidden, xhat_h, inv_h, training)
            self.hidden.grad += joint.T @ g
            g = (g @ self.hidden.value.T).reshape(n, 3, m).transpose(1, 0, 2).reshape(3 * n, m)
            g = nn.batch_norm_backward(g, self.bn_embed, xhat_e, inv_e, training)
            self.embed_bias.grad += g.sum(axis=0, keepdims=True)
            # one bincount adds the rows of each index in the order np.add.at would
            keys = (idx[:, None] * m + np.arange(m)).reshape(-1)
            self.embed.grad += np.bincount(keys, g.reshape(-1),
                                           self.source_size * m).reshape(self.source_size, m)
        tape.record(bwd)
        return out

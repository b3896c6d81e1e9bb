"""Feed-forward triple encoder and triple-set aggregation.

Each (subject, predicate, object) index triple is embedded through one
shared source embedding, the three component vectors are concatenated and
mapped through an unbiased hidden layer with a ReLU, and the per-triple
vectors are concatenated in input order (zero-padded up to the slot
capacity) and mapped to the vector that initialises the decoder.

Batch normalisation sits after each fully-connected map: on the shared
embedding output, before the ReLU, and after the aggregation map. It can
be switched off for hand-computable verification.
"""

from __future__ import annotations

import numpy as np

from . import nn

Array = np.ndarray


class TripleEncoder:

    def __init__(self, source_size: int, m: int, e_max: int, use_batch_norm: bool = True):
        if e_max < 1:
            raise ValueError("e_max must be at least 1")
        self.source_size = source_size
        self.m = m
        self.e_max = e_max
        self.use_batch_norm = use_batch_norm
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
        if self.use_batch_norm:
            for bn in (self.bn_embed, self.bn_hidden, self.bn_out):
                ps.extend(bn.parameters())
        return ps

    def batch_norms(self) -> list[nn.BatchNorm]:
        return [self.bn_embed, self.bn_hidden, self.bn_out] if self.use_batch_norm else []

    def encode_triples(self, tape: nn.Tape | None, spo: Array, training: bool,
                       update_running: bool = True) -> nn.Node:
        """Vector representations for a [n, 3] array of source index triples.

        The three components go through the shared embedding (and one
        shared batch-norm state, applied to all component vectors at once),
        are concatenated to a [n, 3m] block and mapped through the unbiased
        hidden layer with batch norm before the ReLU.
        """
        spo = np.asarray(spo)
        if spo.ndim != 2 or spo.shape[1] != 3:
            raise nn.ShapeError(f"encode_triples: expected [n, 3] indices, got {spo.shape}")
        if spo.size and (spo.min() < 0 or spo.max() >= self.source_size):
            raise nn.ShapeError(
                f"encode_triples: source index out of range [0, {self.source_size})")
        n = spo.shape[0]
        flat = nn.rows_lookup(tape, self.embed, spo.T.reshape(-1))  # [3n, m]: all s, all p, all o
        flat = nn.add_bias(tape, flat, self.embed_bias)
        if self.use_batch_norm:
            flat = nn.batch_norm(tape, flat, self.bn_embed, training, update_running)
        parts = [nn.slice_rows(tape, flat, k * n, (k + 1) * n) for k in range(3)]
        h = nn.hstack(tape, parts)  # [n, 3m]
        h = nn.matmul(tape, h, self.hidden)
        if self.use_batch_norm:
            h = nn.batch_norm(tape, h, self.bn_hidden, training, update_running)
        return nn.relu(tape, h)

    def encode_triple(self, spo: tuple[int, int, int]) -> Array:
        """Inference-mode vector for a single triple (running batch-norm stats)."""
        return self.encode_triples(None, np.asarray([spo]), training=False).value[0]

    def aggregate(self, tape: nn.Tape | None, h_triples: nn.Node,
                  example_idx: Array, slot_idx: Array, n_examples: int,
                  training: bool, update_running: bool = True) -> nn.Node:
        """Concatenate per-triple vectors per example, pad with zero vectors
        up to e_max slots, and map to the decoder initialisation vector.

        h_triples holds one row per real triple; example_idx / slot_idx give
        each row's example and its position within that example's set.
        """
        if slot_idx.size and slot_idx.max() >= self.e_max:
            raise ValueError(
                f"aggregate: {int(slot_idx.max()) + 1} triples exceed the capacity e_max={self.e_max}")
        packed = nn.pack_slots(tape, h_triples, example_idx, slot_idx, n_examples, self.e_max)
        out = nn.affine(tape, packed, self.aggregate_w, self.aggregate_b)
        if self.use_batch_norm:
            out = nn.batch_norm(tape, out, self.bn_out, training, update_running)
        return out

    def encode_batch(self, tape: nn.Tape | None, triple_sets: list[list[tuple[int, int, int]]],
                     training: bool, update_running: bool = True) -> nn.Node:
        """Decoder initialisation vectors for a batch of triple sets."""
        rows, ex_idx, slot_idx = [], [], []
        for i, triples in enumerate(triple_sets):
            if len(triples) > self.e_max:
                raise ValueError(
                    f"example {i}: {len(triples)} triples exceed the capacity e_max={self.e_max}")
            for j, t in enumerate(triples):
                rows.append(t)
                ex_idx.append(i)
                slot_idx.append(j)
        n = len(triple_sets)
        if rows:
            h = self.encode_triples(tape, np.asarray(rows), training, update_running)
        else:
            h = nn.leaf(np.zeros((0, self.m)))
        return self.aggregate(tape, h, np.asarray(ex_idx, dtype=int),
                              np.asarray(slot_idx, dtype=int), n, training, update_running)

    def embedding_rows(self) -> Array:
        """The learned source-token vectors, one row per source-vocab token."""
        return self.embed.value

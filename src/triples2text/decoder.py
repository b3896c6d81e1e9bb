"""Recurrent decoder (LSTM or GRU cell) and the output distribution.

The decoder consumes the previous target token, embeds it, and runs one
recurrent layer whose gates read the concatenation [x_t; h_{t-1}]; the
triple encoder's vector is the initial hidden state h_0. The hidden
vector maps through a biased output layer to logits over the target
vocabulary; the padding token is masked out of the distribution and the
remaining mass renormalised.

The LSTM computes all four gate pre-activations with a single [2m, 4m]
map and uses a tanh cell candidate. Parameter blocks keep the
``decoder.l0.`` prefix of the checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

Array = np.ndarray

LSTM = "lstm"
GRU = "gru"
CELL_KINDS = (LSTM, GRU)


@dataclass
class DecoderState:
    """Hidden vectors (and cell vectors for the LSTM, else None), batch-major."""
    h: nn.Node
    c: nn.Node | None


class Decoder:

    def __init__(self, target_size: int, m: int, cell_kind: str = LSTM, pad_index: int = 0):
        if cell_kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {cell_kind!r}")
        self.target_size = target_size
        self.m = m
        self.cell_kind = cell_kind
        self.pad_index = pad_index
        self.embed = nn.Parameter("decoder.embed", target_size, m)
        gates = 4 * m if cell_kind == LSTM else 2 * m
        self.gate_w = nn.Parameter("decoder.l0.gates_w", 2 * m, gates)
        self.gate_b = nn.Parameter("decoder.l0.gates_b", 1, gates)
        if cell_kind == GRU:
            self.cand_in_w = nn.Parameter("decoder.l0.cand_in_w", m, m)
            self.cand_in_b = nn.Parameter("decoder.l0.cand_in_b", 1, m)
            self.cand_hh_w = nn.Parameter("decoder.l0.cand_hh_w", m, m)
        self.out_w = nn.Parameter("decoder.out_w", m, target_size)
        self.out_b = nn.Parameter("decoder.out_b", 1, target_size)

    def parameters(self) -> list[nn.Parameter]:
        cand = [self.cand_in_w, self.cand_in_b, self.cand_hh_w] if self.cell_kind == GRU else []
        return [self.embed, self.gate_w, self.gate_b, *cand, self.out_w, self.out_b]

    def initial_state(self, h0: nn.Node) -> DecoderState:
        """State before the first step: hidden = h0, cell (LSTM) zero."""
        c0 = nn.leaf(np.zeros((h0.value.shape[0], self.m))) if self.cell_kind == LSTM else None
        return DecoderState(h=h0, c=c0)

    def step(self, tape: nn.Tape | None, x: Array, state: DecoderState) -> tuple[DecoderState, nn.Node]:
        """Advance one timestep on a batch of token indices.

        Returns the new state and its hidden vectors.
        """
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.target_size):
            raise nn.ShapeError(f"decoder step: token index out of range [0, {self.target_size})")
        emb = nn.rows_lookup(tape, self.embed, x)
        m = self.m
        h_prev = state.h
        joint = nn.hstack(tape, [emb, h_prev])
        z = nn.affine(tape, joint, self.gate_w, self.gate_b)
        if self.cell_kind == LSTM:
            in_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 0, m))
            f_g = nn.sigmoid(tape, nn.slice_cols(tape, z, m, 2 * m))
            out_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 2 * m, 3 * m))
            cand = nn.tanh(tape, nn.slice_cols(tape, z, 3 * m, 4 * m))
            c = nn.add(tape, nn.mul(tape, f_g, state.c), nn.mul(tape, in_g, cand))
            h = nn.mul(tape, out_g, nn.tanh(tape, c))
            return DecoderState(h=h, c=c), h
        r_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 0, m))
        u_g = nn.sigmoid(tape, nn.slice_cols(tape, z, m, 2 * m))
        cand = nn.tanh(tape, nn.add(
            tape,
            nn.affine(tape, emb, self.cand_in_w, self.cand_in_b),
            nn.matmul(tape, nn.mul(tape, r_g, h_prev), self.cand_hh_w),
        ))
        keep = nn.scale_shift(tape, u_g, -1.0, 1.0)  # 1 - u
        h = nn.add(tape, nn.mul(tape, keep, h_prev), nn.mul(tape, u_g, cand))
        return DecoderState(h=h, c=None), h

    def logits(self, tape: nn.Tape | None, h: nn.Node) -> nn.Node:
        return nn.affine(tape, h, self.out_w, self.out_b)

    def output_distribution(self, h: Array) -> Array:
        """Probabilities over the target vocabulary with padding masked out."""
        return np.exp(self.log_distribution(h))

    def log_distribution(self, h: Array) -> Array:
        logits = h @ self.out_w.value + self.out_b.value
        return nn.masked_log_softmax(logits, [self.pad_index])

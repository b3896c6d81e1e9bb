"""Recurrent decoders (LSTM and GRU cells) and the output distribution.

The decoder consumes the previous target token, embeds it as the layer-0
hidden vector, and runs one or more recurrent layers whose gates read the
concatenation [h_t^{l-1}; h_{t-1}^l]. The top hidden vector maps through a
biased output layer to logits over the target vocabulary; the padding
token is masked out of the distribution and the remaining mass
renormalised.

The LSTM computes all four gate pre-activations with a single [2m, 4m]
map. By default the cell candidate uses tanh; the switch
``literal_sigmoid_candidate`` selects a sigmoid candidate instead, for
comparison against descriptions that use one.
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
    """Per-layer hidden vectors (and cell vectors for the LSTM), batch-major."""
    hs: list[nn.Node]
    cs: list[nn.Node]

    def batch_size(self) -> int:
        return self.hs[0].value.shape[0]


class Decoder:

    def __init__(self, target_size: int, m: int, layers: int = 1, cell_kind: str = LSTM,
                 pad_index: int = 0, literal_sigmoid_candidate: bool = False):
        if cell_kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {cell_kind!r}")
        if layers < 1:
            raise ValueError("layers must be at least 1")
        self.target_size = target_size
        self.m = m
        self.layers = layers
        self.cell_kind = cell_kind
        self.pad_index = pad_index
        self.literal_sigmoid_candidate = literal_sigmoid_candidate
        self.embed = nn.Parameter("decoder.embed", target_size, m)
        self.gate_w: list[nn.Parameter] = []
        self.gate_b: list[nn.Parameter] = []
        self.cand_in_w: list[nn.Parameter] = []
        self.cand_in_b: list[nn.Parameter] = []
        self.cand_hh_w: list[nn.Parameter] = []
        for l in range(layers):
            if cell_kind == LSTM:
                self.gate_w.append(nn.Parameter(f"decoder.l{l}.gates_w", 2 * m, 4 * m))
                self.gate_b.append(nn.Parameter(f"decoder.l{l}.gates_b", 1, 4 * m))
            else:
                self.gate_w.append(nn.Parameter(f"decoder.l{l}.gates_w", 2 * m, 2 * m))
                self.gate_b.append(nn.Parameter(f"decoder.l{l}.gates_b", 1, 2 * m))
                self.cand_in_w.append(nn.Parameter(f"decoder.l{l}.cand_in_w", m, m))
                self.cand_in_b.append(nn.Parameter(f"decoder.l{l}.cand_in_b", 1, m))
                self.cand_hh_w.append(nn.Parameter(f"decoder.l{l}.cand_hh_w", m, m))
        self.out_w = nn.Parameter("decoder.out_w", m, target_size)
        self.out_b = nn.Parameter("decoder.out_b", 1, target_size)

    def parameters(self) -> list[nn.Parameter]:
        ps = [self.embed]
        ps.extend(self.gate_w)
        ps.extend(self.gate_b)
        ps.extend(self.cand_in_w)
        ps.extend(self.cand_in_b)
        ps.extend(self.cand_hh_w)
        ps.extend([self.out_w, self.out_b])
        return ps

    def _p(self, tape, param):
        return tape.param(param) if tape is not None else nn.Node(param.value)

    def initial_state(self, h0: nn.Node) -> DecoderState:
        """State before the first step: layer 1 hidden = h0, everything else zero."""
        batch = h0.value.shape[0]
        zeros = lambda: nn.leaf(np.zeros((batch, self.m)))
        hs = [h0] + [zeros() for _ in range(self.layers - 1)]
        cs = [zeros() for _ in range(self.layers)] if self.cell_kind == LSTM else []
        return DecoderState(hs=hs, cs=cs)

    def step(self, tape: nn.Tape | None, x: Array, state: DecoderState) -> tuple[DecoderState, nn.Node]:
        """Advance one timestep on a batch of token indices.

        Returns the new state and the top-layer hidden vectors.
        """
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.target_size):
            raise nn.ShapeError(f"decoder step: token index out of range [0, {self.target_size})")
        below = nn.rows_lookup(tape, self._p(tape, self.embed), x)
        m = self.m
        new_hs: list[nn.Node] = []
        new_cs: list[nn.Node] = []
        for l in range(self.layers):
            h_prev = state.hs[l]
            joint = nn.hstack(tape, [below, h_prev])
            if self.cell_kind == LSTM:
                z = nn.affine(tape, joint, self._p(tape, self.gate_w[l]), self._p(tape, self.gate_b[l]))
                in_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 0, m))
                f_g = nn.sigmoid(tape, nn.slice_cols(tape, z, m, 2 * m))
                out_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 2 * m, 3 * m))
                cand_pre = nn.slice_cols(tape, z, 3 * m, 4 * m)
                cand = (nn.sigmoid(tape, cand_pre) if self.literal_sigmoid_candidate
                        else nn.tanh(tape, cand_pre))
                c = nn.add(tape, nn.mul(tape, f_g, state.cs[l]), nn.mul(tape, in_g, cand))
                h = nn.mul(tape, out_g, nn.tanh(tape, c))
                new_cs.append(c)
            else:
                z = nn.affine(tape, joint, self._p(tape, self.gate_w[l]), self._p(tape, self.gate_b[l]))
                r_g = nn.sigmoid(tape, nn.slice_cols(tape, z, 0, m))
                u_g = nn.sigmoid(tape, nn.slice_cols(tape, z, m, 2 * m))
                cand = nn.tanh(tape, nn.add(
                    tape,
                    nn.affine(tape, below, self._p(tape, self.cand_in_w[l]), self._p(tape, self.cand_in_b[l])),
                    nn.matmul(tape, nn.mul(tape, r_g, h_prev), self._p(tape, self.cand_hh_w[l])),
                ))
                keep = nn.scale_shift(tape, u_g, -1.0, 1.0)  # 1 - u
                h = nn.add(tape, nn.mul(tape, keep, h_prev), nn.mul(tape, u_g, cand))
            new_hs.append(h)
            below = h
        return DecoderState(hs=new_hs, cs=new_cs), below

    def logits(self, tape: nn.Tape | None, h_top: nn.Node) -> nn.Node:
        return nn.affine(tape, h_top, self._p(tape, self.out_w), self._p(tape, self.out_b))

    def output_distribution(self, h_top: Array) -> Array:
        """Probabilities over the target vocabulary with padding masked out."""
        return np.exp(self.log_distribution(h_top))

    def log_distribution(self, h_top: Array) -> Array:
        logits = h_top @ self.out_w.value + self.out_b.value
        return nn.masked_log_softmax(logits, [self.pad_index])

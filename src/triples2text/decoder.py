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

Training runs the whole teacher-forced recurrence as one recorded op
(:meth:`Decoder.sequence`) and the output layer with the loss as another
(:meth:`Decoder.output_loss`); beam search advances one step at a time
(:meth:`Decoder.step`) through the same cell kernel. The two training
ops take their large arrays from an ``nn.Workspace`` when given one.
"""

from __future__ import annotations

import numpy as np

from . import nn

Array = np.ndarray

LSTM = "lstm"
GRU = "gru"
CELL_KINDS = (LSTM, GRU)


# The cell kernels: one timestep's update from the gate pre-activations,
# shared by beam search (Decoder.step) and training (Decoder.sequence).
# Each also returns the activations its backward pass reads.


def _lstm_cell(z: Array, c_prev: Array) -> tuple[Array, Array, tuple]:
    """h, c and (input, forget, output, candidate, tanh c) from z [B, 4m]."""
    m = c_prev.shape[1]
    s = nn.sigmoid_array(z[:, :3 * m])
    i, f, o = s[:, :m], s[:, m:2 * m], s[:, 2 * m:]
    g = np.tanh(z[:, 3 * m:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, o, g, tc)


def _gru_cell(z: Array, xc: Array, h_prev: Array, cand_hh_w: Array) -> tuple[Array, tuple]:
    """h and (reset, update, reset * h_prev, candidate) from z [B, 2m] and
    the input half of the candidate's pre-activation, xc [B, m]."""
    m = h_prev.shape[1]
    s = nn.sigmoid_array(z)
    r, u = s[:, :m], s[:, m:]
    rh = r * h_prev
    cand = np.tanh(xc + rh @ cand_hh_w)
    return (1.0 - u) * h_prev + u * cand, (r, u, rh, cand)


def _product(first: Array, *rest: Array) -> Array:
    """first * rest[0] * rest[1] * ..., multiplied left to right (so in the
    rounding order of the written-out expression) into one new array."""
    out = first * rest[0]
    for factor in rest[1:]:
        out *= factor
    return out


# The reverse sweeps of Decoder.sequence. Each reads the activations the
# forward pass stored, one [T, B, m] block per activation, computes every
# factor that depends on them alone for all steps before the sweep, writes
# the gate pre-activation gradients into dz [T, B, gates] and returns the
# gradient of the initial hidden state. Every product keeps the
# left-to-right order of the per-step formula it replaced, so the results
# are bit for bit those of computing the factors inside the sweep. The
# factors are freed when a sweep returns, before the weight-gradient GEMMs.


def _lstm_sweep(d_out: Array, acts: Array, cs: Array, w_h_t: Array, dz: Array) -> Array:
    """cs [T+1, B, m] holds the cell state entering each step."""
    i, f, o, g, tc = acts
    one_i, one_f, one_o = 1.0 - acts[:3]
    squares = np.square(acts[3:])
    one_g2, one_tc2 = np.subtract(1.0, squares, out=squares)
    m = d_out.shape[2]
    dh, dc = np.zeros(d_out.shape[1:], d_out.dtype), np.zeros(d_out.shape[1:], d_out.dtype)
    for t in reversed(range(d_out.shape[0])):
        dh += d_out[t]
        dc += _product(dh, o[t], one_tc2[t])
        dzt = dz[t]
        dzt[:, :m] = _product(dc, g[t], i[t], one_i[t])
        dzt[:, m:2 * m] = _product(dc, cs[t], f[t], one_f[t])
        dzt[:, 2 * m:3 * m] = _product(dh, tc[t], o[t], one_o[t])
        dzt[:, 3 * m:] = _product(dc, i[t], one_g2[t])
        dc *= f[t]
        dh = dzt @ w_h_t
    return dh


def _gru_sweep(d_out: Array, acts: Array, hs: Array, w_h_t: Array, cand_hh_t: Array,
               dz: Array, da: Array) -> Array:
    """Also writes the candidate pre-activation gradients into da [T, B, m];
    turns the candidate block of acts into 1 - candidate²."""
    r, u, _, cand = acts
    one_r, one_u = 1.0 - acts[:2]
    cand_h = cand - hs[:-1]
    one_cand2 = np.subtract(1.0, np.square(cand, out=cand), out=cand)
    m = d_out.shape[2]
    dh = np.zeros(d_out.shape[1:], d_out.dtype)
    for t in reversed(range(d_out.shape[0])):
        dh += d_out[t]
        da[t] = _product(dh, u[t], one_cand2[t])
        drh = da[t] @ cand_hh_t
        dzt = dz[t]
        dzt[:, :m] = _product(drh, hs[t], r[t], one_r[t])
        dzt[:, m:] = _product(dh, cand_h[t], u[t], one_u[t])
        dh = dh * one_u[t] + drh * r[t] + dzt @ w_h_t
    return dh


class Decoder:

    def __init__(self, target_size: int, m: int, cell_kind: str, pad_index: int):
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

    def initial_state(self, h0: Array) -> tuple[Array, Array | None]:
        """(h, c) before the first step: hidden = h0, cell zero (LSTM) or None."""
        return h0, (np.zeros((h0.shape[0], self.m), h0.dtype) if self.cell_kind == LSTM else None)

    def _tokens(self, x) -> Array:
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.target_size):
            raise nn.ShapeError(f"decoder: token index out of range [0, {self.target_size})")
        return x

    def step(self, x: Array, h: Array, c: Array | None) -> tuple[Array, Array | None]:
        """Advance one timestep on a batch of token indices (forward only)
        from hidden vectors h [B, m] and, for the LSTM, cell vectors c.

        Returns the new (h, c); c is None for the GRU.
        """
        emb = self.embed.value[self._tokens(x)]
        z = np.concatenate([emb, h], axis=1) @ self.gate_w.value + self.gate_b.value
        if self.cell_kind == LSTM:
            return _lstm_cell(z, c)[:2]
        xc = emb @ self.cand_in_w.value + self.cand_in_b.value
        return _gru_cell(z, xc, h, self.cand_hh_w.value)[0], None

    def sequence(self, tape: nn.Tape | None, inputs: Array, h0: nn.Node,
                 ws: nn.Workspace | None) -> nn.Node:
        """Run the recurrence over a [T, B] array of token indices from the
        initial hidden vectors h0 [B, m], as one recorded op.

        Returns every step's hidden vectors as one [T*B, m] node in
        time-major order (row t*B + b). The input half of every gate
        pre-activation, x_t @ W_x + b, is one GEMM over all T*B rows; only
        h_{t-1} @ W_h runs per step. The forward pass keeps the cell
        activations in [T, B, ...] arrays. Backward first computes, over all
        steps at once, every factor that reads only those activations (such
        as 1 - u), then runs one reverse sweep whose per-step products keep
        their left-to-right order; each weight gradient is then one GEMM
        over all rows.
        """
        inputs = self._tokens(inputs)
        steps, b = inputs.shape
        m, gates = self.m, self.gate_w.value.shape[1]
        dtype = self.gate_w.value.dtype
        lstm = self.cell_kind == LSTM
        taped = tape is not None
        flat = inputs.reshape(-1)
        emb = np.take(self.embed.value, flat, axis=0, out=nn.empty(ws, "emb", (flat.size, m), dtype),
                      mode="clip")  # in range (_tokens); "clip" writes out unbuffered
        w_x, w_h = self.gate_w.value[:m], self.gate_w.value[m:]
        zx = np.matmul(emb, w_x, out=nn.empty(ws, "zx", (flat.size, gates), dtype))
        zx += self.gate_b.value
        zx = zx.reshape(steps, b, gates)
        hs = nn.empty(ws, "hs", (steps + 1, b, m), dtype)  # hs[t] is the hidden state entering step t
        hs[0] = h0.value
        if lstm:
            cs = nn.empty(ws, "cs", (steps + 1, b, m), dtype)  # cs[t] is the cell state entering step t
            cs[0] = 0.0
        else:
            xc = np.matmul(emb, self.cand_in_w.value, out=nn.empty(ws, "xc", (flat.size, m), dtype))
            xc += self.cand_in_b.value
            xc = xc.reshape(steps, b, m)
        if taped:  # each cell activation over all steps, as one contiguous [T, B, m] block
            acts = nn.empty(ws, "acts", (5 if lstm else 4, steps, b, m), dtype)
        for t in range(steps):
            z = zx[t]  # the backward pass overwrites zx, so the sum can go in place
            z += hs[t] @ w_h
            if lstm:
                hs[t + 1], cs[t + 1], act = _lstm_cell(z, cs[t])
            else:
                hs[t + 1], act = _gru_cell(z, xc[t], hs[t], self.cand_hh_w.value)
            if taped:
                acts[:, t] = act
        out = nn.Node(hs[1:].reshape(steps * b, m))
        if not taped:
            return out

        def bwd():
            if out.grad is None or not steps:
                return
            d_out = out.grad.reshape(steps, b, m)
            # the gate and candidate gradients go into the spent buffers zx and xc
            if lstm:
                dh = _lstm_sweep(d_out, acts, cs, w_h.T, zx)
            else:
                dh = _gru_sweep(d_out, acts, hs, w_h.T, self.cand_hh_w.value.T, zx, xc)
            dz = zx.reshape(steps * b, gates)
            h_prev_rows = hs[:-1].reshape(steps * b, m)
            self.gate_w.grad[:m] += emb.T @ dz
            self.gate_w.grad[m:] += h_prev_rows.T @ dz
            self.gate_b.grad += dz.sum(axis=0, keepdims=True)
            d_emb = dz @ w_x.T
            if not lstm:
                da = xc.reshape(steps * b, m)
                self.cand_in_w.grad += emb.T @ da
                self.cand_in_b.grad += da.sum(axis=0, keepdims=True)
                self.cand_hh_w.grad += acts[2].reshape(steps * b, m).T @ da
                d_emb += da @ self.cand_in_w.value.T
            np.add.at(self.embed.grad, flat, d_emb)
            nn._acc(h0, dh)
        tape.record(bwd)
        return out

    def logits(self, h: Array, out: Array | None = None) -> Array:
        """h @ out_w + out_b for hidden rows h [N, m], written into ``out``
        when given."""
        s = np.matmul(h, self.out_w.value, out=out)
        s += self.out_b.value
        return s

    def output_loss(self, tape: nn.Tape | None, hidden: nn.Node, targets: Array,
                    weights: Array, scale: float, ws: nn.Workspace | None
                    ) -> tuple[nn.Node, float]:
        """The output layer and the loss over hidden rows [N, m] as one
        recorded op: the [1, 1] cost node, ``scale`` times the weighted sum
        of the rows' target NLLs, and that sum. Backward turns the
        probabilities into the logit gradient in place, then writes the
        out_w, out_b and (sole consumer of ``hidden``) hidden gradients."""
        h = hidden.value
        probs = self.logits(h, nn.empty(ws, "logits", (h.shape[0], self.target_size), h.dtype))
        total = float(nn.masked_softmax_nll(probs, targets, weights, self.pad_index).sum())
        cost = nn.Node(np.array([[total * scale + 0.0]]))  # 0.0, not -0.0, for no tokens
        if tape is None:
            return cost, total

        def bwd():
            g = weights * (float(cost.grad[0, 0]) * scale)  # a numpy float64 would widen g
            np.multiply(probs, g[:, None], out=probs)
            probs[np.arange(len(targets)), targets] -= g
            self.out_b.grad += probs.sum(axis=0, keepdims=True)
            self.out_w.grad += h.T @ probs
            hidden.grad = np.matmul(probs, self.out_w.value.T,
                                    out=nn.empty(ws, "d_hidden", h.shape, h.dtype))
        tape.record(bwd)
        return cost, total

    def log_distribution(self, h: Array) -> Array:
        """Log probabilities over the target vocabulary with padding masked
        out: a masked log softmax, computed in place on the logits."""
        s = self.logits(h)
        s[:, self.pad_index] = -np.inf
        s -= s.max(axis=1, keepdims=True)
        s -= np.log(np.exp(s).sum(axis=1, keepdims=True))
        return s

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder
import reference_encoder
from conftest import make_model
from triples2text import nn
from triples2text.decoder import Decoder
from triples2text.encoder import TripleEncoder
from triples2text.model import EncodedExample


def encoder_identity_bn(source_size=8, m=2, e_max=3):
    """An encoder whose batch norms are the identity in inference mode:
    running mean 0 and running variance 1 - eps, so that var + eps is 1.0
    exactly in float64 and each batch norm passes its input through."""
    enc = TripleEncoder(source_size, m, e_max)
    for bn in enc.batch_norms():
        bn.running_var[...] = 1.0 - bn.eps
    return enc


def encode_one(enc, triples):
    """The decoder initialisation vector of one triple set."""
    return enc.encode_batch(None, [triples], training=False).value[0]


def test_encode_triple_zero_parameters_gives_zero():
    enc = encoder_identity_bn()
    assert np.allclose(encode_one(enc, [(1, 2, 3)]), 0.0)


def test_encode_triple_hand_case():
    # m=2; embeddings s=[1,0], p=[0,1], o=[1,1]; hidden rows pick entries of
    # the concatenation [s; p; o]
    enc = encoder_identity_bn()
    enc.embed.value[1] = [1.0, 0.0]
    enc.embed.value[2] = [0.0, 1.0]
    enc.embed.value[3] = [1.0, 1.0]
    w = np.zeros((6, 2))
    w[0, 0] = 1.0   # out[0] = s[0]
    w[2, 0] = 1.0   #        + p[0]
    w[3, 1] = 1.0   # out[1] = p[1]
    w[4, 1] = 1.0   #        + o[0]
    enc.hidden.value[...] = w
    enc.aggregate_w.value[:2] = np.eye(2)  # slot 0 passes through
    h = encode_one(enc, [(1, 2, 3)])
    # concat = [1,0, 0,1, 1,1]; out = [1+0, 1+1] = [1, 2]
    assert np.allclose(h, [1.0, 2.0])


def test_encode_triple_direction_sensitive():
    enc = encoder_identity_bn(m=4)
    rng = np.random.default_rng(0)
    enc.embed.value[...] = rng.normal(size=enc.embed.value.shape)
    enc.hidden.value[...] = rng.normal(size=enc.hidden.value.shape)
    enc.aggregate_w.value[...] = rng.normal(size=enc.aggregate_w.value.shape)
    fwd = encode_one(enc, [(1, 2, 3)])
    rev = encode_one(enc, [(3, 2, 1)])
    assert not np.allclose(fwd, rev)
    # the set is read in slot order, so swapping two triples changes it too
    ab = encode_one(enc, [(1, 2, 3), (4, 5, 6)])
    ba = encode_one(enc, [(4, 5, 6), (1, 2, 3)])
    assert not np.allclose(ab, 0.0) and not np.allclose(ab, ba)


def test_encode_triple_index_out_of_range():
    enc = encoder_identity_bn()
    for bad in [(99, 0, 0), (0, -1, 0), (0, 0, 8)]:
        with pytest.raises(nn.ShapeError, match="out of range"):
            encode_one(enc, [(1, 2, 3), bad])


def encoder_passing_subjects(m=2, e_max=3):
    """An encoder with identity batch norms whose per-triple vector is the
    subject's embedding row (kept non-negative, so the ReLU passes it)."""
    enc = encoder_identity_bn(m=m, e_max=e_max)
    enc.hidden.value[:m] = np.eye(m)
    return enc


def test_aggregate_pads_with_zero_vectors():
    enc = encoder_passing_subjects(m=2, e_max=3)
    rng = np.random.default_rng(1)
    enc.aggregate_w.value[...] = rng.normal(size=enc.aggregate_w.value.shape)
    h1 = np.array([0.7, 0.3])
    enc.embed.value[1] = h1
    out = encode_one(enc, [(1, 0, 0)])
    # the padded slots 1 and 2 contribute nothing
    assert np.allclose(out, h1 @ enc.aggregate_w.value[:2])


def test_aggregate_hand_case_e_max_two():
    enc = encoder_passing_subjects(m=2, e_max=2)
    enc.embed.value[1] = [1.0, 2.0]
    enc.embed.value[2] = [3.0, 4.0]
    enc.aggregate_w.value[...] = np.array([[1.0, 0.0],
                                           [0.0, 1.0],
                                           [1.0, 1.0],
                                           [2.0, 0.0]])
    out = encode_one(enc, [(1, 0, 0), (2, 0, 0)])
    # concat [1,2,3,4]: out = [1*1+2*0+3*1+4*2, 1*0+2*1+3*1+4*0] = [12, 5]
    assert np.allclose(out, [12.0, 5.0])


def test_aggregate_zero_inputs_zero_bias_gives_zero():
    enc = encoder_identity_bn(m=2, e_max=2)
    out = enc.encode_batch(None, [[]], training=False)
    assert np.allclose(out.value, 0.0)


def test_aggregate_rejects_overfull_sets():
    enc = encoder_identity_bn(m=2, e_max=2)
    with pytest.raises(ValueError, match="e_max"):
        enc.encode_batch(None, [[(0, 0, 0)] * 3], training=False)


def test_shape_contract_all_counts():
    enc = TripleEncoder(8, 5, 3)
    for n_triples in range(0, 4):
        out = enc.encode_batch(None, [[(1, 2, 3)] * n_triples], training=False)
        assert out.value.shape == (1, 5)


def test_padding_neutrality_with_zeroed_pad_columns():
    # zero weights for the padded slots cannot change the aggregate
    enc = encoder_identity_bn(m=2, e_max=3)
    rng = np.random.default_rng(3)
    enc.embed.value[...] = rng.normal(size=enc.embed.value.shape)
    enc.embed_bias.value[...] = rng.normal(size=enc.embed_bias.value.shape)
    enc.hidden.value[...] = rng.normal(size=enc.hidden.value.shape)
    enc.aggregate_w.value[...] = rng.normal(size=enc.aggregate_w.value.shape)
    enc.aggregate_w.value[2:, :] = 0.0  # slots 2 and 3 zeroed (rows 2m..)
    one = enc.encode_batch(None, [[(1, 2, 3)]], training=False)
    assert one.value.shape == (1, 2)
    # re-encode with capacity for more slots but the same single triple
    same = enc.encode_batch(None, [[(1, 2, 3)]], training=False)
    assert np.allclose(one.value, same.value)


def test_gradients_reach_all_three_embeddings():
    enc = TripleEncoder(8, 3, 2)
    nn.init_uniform(enc.parameters(), -0.5, 0.5, seed=0)
    params = enc.parameters()
    tape = nn.Tape()
    nn.zero_grads(params)
    out = enc.encode_batch(tape, [[(1, 2, 3)], [(4, 5, 6)]], training=True)
    tape.backward(reference_decoder.sum_all(tape, out))
    for row in (1, 2, 3, 4, 5, 6):
        assert np.any(enc.embed.grad[row] != 0.0), f"no gradient at row {row}"


# -- the fused encoder against the taped reference ------------------------------

ORACLE_SOURCE, ORACLE_M, ORACLE_E_MAX = 9, 4, 3


def oracle_encoder() -> TripleEncoder:
    """A float64 encoder, as the taped reference is an oracle in float64,
    with random parameters and running statistics; every call builds the
    same one."""
    enc = TripleEncoder(ORACLE_SOURCE, ORACLE_M, ORACLE_E_MAX)
    nn.to_float64(enc.parameters(), enc.batch_norms())
    nn.init_uniform(enc.parameters(), -0.5, 0.5, seed=5)
    rng = np.random.default_rng(6)
    for bn in enc.batch_norms():
        bn.running_mean[...] = rng.normal(size=bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
    return enc


def run_encoder(enc, encode, triple_sets, training):
    """The output, running statistics afterwards and every parameter
    gradient of one taped pass with a fixed, row-varying output gradient."""
    params = enc.parameters()
    nn.zero_grads(params)
    tape = nn.Tape()
    out = encode(tape, triple_sets, training)
    g = np.random.default_rng(7).normal(size=out.value.shape)
    tape.record(lambda: nn._acc(out, g))
    tape.backward(nn.leaf(np.zeros((1, 1))))
    stats = [a.copy() for bn in enc.batch_norms() for _, a in bn.state_blocks()]
    return out.value, stats, {p.name: p.grad.copy() for p in params}


def assert_fused_encoder_is_reference(training, triple_sets):
    fused, ref = oracle_encoder(), oracle_encoder()
    got = run_encoder(fused, fused.encode_batch, triple_sets, training)
    want = run_encoder(ref, functools.partial(reference_encoder.encode_batch, ref),
                       triple_sets, training)
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    assert list(got[2]) == list(want[2])
    for name, grad in got[2].items():
        assert np.array_equal(grad, want[2][name]), name
    # the untaped forward pass (corpus_nll, init_generation) is the same one
    fresh = oracle_encoder()
    untaped = fresh.encode_batch(None, triple_sets, training).value
    assert np.array_equal(untaped, want[0])


ORACLE_BATCHES = {
    "ragged": [[(1, 2, 3), (4, 5, 6)], [], [(8, 0, 7)], [(2, 2, 2), (0, 1, 0), (3, 8, 5)]],
    "empty": [[], []],
    "full": [[(1, 2, 3)] * ORACLE_E_MAX, [(4, 5, 6), (6, 5, 4), (0, 0, 8)]],
}


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("batch", sorted(ORACLE_BATCHES))
def test_fused_encoder_matches_taped_reference(training, batch):
    assert_fused_encoder_is_reference(training, ORACLE_BATCHES[batch])


@st.composite
def triple_batches(draw):
    component = st.integers(min_value=0, max_value=ORACLE_SOURCE - 1)
    triple = st.tuples(component, component, component)
    sets = draw(st.lists(st.lists(triple, max_size=ORACLE_E_MAX), min_size=2, max_size=6))
    only = [t for triples in sets for t in triples]
    if len(only) == 1:  # training batch norm needs two triples or none
        sets.append(only)
    return sets


@settings(max_examples=40, deadline=None)
@given(triple_batches(), st.booleans())
def test_fused_encoder_matches_taped_reference_on_drawn_batches(triple_sets, training):
    assert_fused_encoder_is_reference(training, triple_sets)


@pytest.mark.parametrize("encode", ["fused", "reference"])
def test_encoder_input_errors_match_reference(encode):
    enc = oracle_encoder()
    run = (enc.encode_batch if encode == "fused"
           else functools.partial(reference_encoder.encode_batch, enc))
    with pytest.raises(nn.ShapeError, match="out of range"):
        run(nn.Tape(), [[(1, 2, 3)], [(0, ORACLE_SOURCE, 0)]], True)
    with pytest.raises(nn.ShapeError, match="out of range"):
        run(None, [[(-1, 2, 3)], []], False)
    with pytest.raises(ValueError, match="e_max"):
        run(nn.Tape(), [[(1, 2, 3)] * (ORACLE_E_MAX + 1), [(1, 2, 3)]], True)


def test_training_batch_records_three_closures():
    class CountingTape(nn.Tape):
        def __init__(self):
            super().__init__()
            self.recorded = 0

        def record(self, fn):
            self.recorded += 1
            super().record(fn)

    model = make_model(seed=3, cell="gru", m=6, e_max=3, target_extra=9)
    tape = CountingTape()
    model.batch_loss(tape, ragged_batch(model, [3, 7, 5], seed=0), training=True)
    assert tape.recorded == 3  # the encoder, the recurrence and the output head


# -- decoder cells -------------------------------------------------------------


def zero_decoder(cell, m=3, target=12):
    return Decoder(target, m, cell, pad_index=0)


def float64_decoder(cell, m):
    """A zero decoder computing in float64, for hand cases at 1e-12."""
    dec = zero_decoder(cell, m=m)
    nn.to_float64(dec.parameters(), [])
    return dec


def step_once(dec, x=1, h=None, c=None):
    """(new cell rows or None, new hidden row) after one step from batch 1."""
    batch = 1
    h = np.zeros((batch, dec.m)) if h is None else np.asarray([h], dtype=float)
    c = ((np.zeros((batch, dec.m)) if c is None else np.asarray([c], dtype=float))
         if dec.cell_kind == "lstm" else None)
    h, c = dec.step(np.asarray([x]), h, c)
    return c, h[0]


def test_lstm_zero_parameters_zero_state():
    dec = zero_decoder("lstm")
    c, h = step_once(dec)
    assert np.allclose(h, 0.0)           # out=0.5, tanh(c)=0
    assert np.allclose(c, 0.0)


def test_lstm_saturated_gates_carry_memory():
    dec = zero_decoder("lstm", m=2)
    # forget bias large positive, input bias large negative: c' ~= c
    dec.gate_b.value[0, 2:4] = 50.0    # forget gate
    dec.gate_b.value[0, 0:2] = -50.0   # input gate
    c0 = [0.37, -0.81]
    c, _ = step_once(dec, c=c0)
    assert np.allclose(c[0], c0, atol=1e-12)


def test_lstm_scalar_hand_case():
    # m=1, every weight 0.1, input embedding 0.1, previous h=0.2, c=0.3
    dec = float64_decoder("lstm", m=1)
    dec.embed.value[...] = 0.0
    dec.embed.value[1, 0] = 0.1
    dec.gate_w.value[...] = 0.1
    dec.gate_b.value[...] = 0.1
    c_new, h = step_once(dec, x=1, h=[0.2], c=[0.3])
    z = 0.1 * 0.1 + 0.2 * 0.1 + 0.1  # joint = [x_emb, h_prev] @ W + b
    sig = 1.0 / (1.0 + np.exp(-z))
    cand = np.tanh(z)
    c = sig * 0.3 + sig * cand
    expected_h = sig * np.tanh(c)
    assert abs(c_new[0, 0] - c) < 1e-12
    assert abs(h[0] - expected_h) < 1e-12


def test_gru_zero_parameters_zero_state():
    dec = zero_decoder("gru")
    _, h = step_once(dec)
    assert np.allclose(h, 0.0)


def test_gru_update_gate_zero_keeps_state():
    dec = zero_decoder("gru", m=2)
    dec.gate_b.value[0, 2:4] = -50.0  # update gate forced to 0
    h0 = [0.4, -0.9]
    _, h = step_once(dec, h=h0)
    assert np.allclose(h, h0, atol=1e-12)


def test_gru_scalar_hand_case():
    dec = float64_decoder("gru", m=1)
    dec.embed.value[1, 0] = 0.1
    dec.gate_w.value[...] = 0.1
    dec.gate_b.value[...] = 0.1
    dec.cand_in_w.value[...] = 0.1
    dec.cand_in_b.value[...] = 0.1
    dec.cand_hh_w.value[...] = 0.1
    h_prev = 0.2
    _, h = step_once(dec, x=1, h=[h_prev])
    z = 0.1 * 0.1 + h_prev * 0.1 + 0.1
    r = u = 1.0 / (1.0 + np.exp(-z))
    cand = np.tanh(0.1 * 0.1 + 0.1 + (r * h_prev) * 0.1)
    expected = (1 - u) * h_prev + u * cand
    assert abs(h[0] - expected) < 1e-12


def test_decoder_rejects_out_of_range_token():
    dec = zero_decoder("gru")
    with pytest.raises(nn.ShapeError):
        step_once(dec, x=99)


def test_one_step_determinism():
    dec = zero_decoder("lstm", m=4)
    nn.init_uniform(dec.parameters(), -0.5, 0.5, seed=9)
    a = step_once(dec, x=2, h=[0.1, 0.2, 0.3, 0.4], c=[0.0, 0.1, 0.0, -0.1])
    b = step_once(dec, x=2, h=[0.1, 0.2, 0.3, 0.4], c=[0.0, 0.1, 0.0, -0.1])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[0], b[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gru_convexity_property(seed):
    # each component of the new hidden state lies between the previous
    # state and the candidate (elementwise convex combination)
    rng = np.random.default_rng(seed)
    dec = zero_decoder("gru", m=3)
    for p in dec.parameters():
        p.value[...] = rng.normal(scale=1.5, size=p.value.shape)
    h_prev = rng.normal(size=3)
    top, _ = dec.step(np.asarray([1]), np.asarray([h_prev]), None)
    h_new = top[0]
    # recompute the candidate with plain numpy
    x_emb = dec.embed.value[1]
    joint = np.concatenate([x_emb, h_prev])
    z = joint @ dec.gate_w.value + dec.gate_b.value[0]
    r = 1.0 / (1.0 + np.exp(-z[:3]))
    cand = np.tanh(x_emb @ dec.cand_in_w.value + dec.cand_in_b.value[0]
                   + (r * h_prev) @ dec.cand_hh_w.value)
    lo = np.minimum(h_prev, cand)
    hi = np.maximum(h_prev, cand)
    assert np.all(h_new >= lo - 1e-12) and np.all(h_new <= hi + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lstm_hidden_bounded_property(seed):
    rng = np.random.default_rng(seed)
    dec = zero_decoder("lstm", m=3)
    for p in dec.parameters():
        p.value[...] = rng.normal(scale=2.0, size=p.value.shape)
    h = rng.normal(size=(1, 3))
    c = rng.normal(size=(1, 3))
    top, _ = dec.step(np.asarray([2]), h, c)
    assert np.all(np.abs(top) <= 1.0 + 1e-12)


def test_output_distribution_masks_pad_and_sums_to_one(rng):
    dec = zero_decoder("gru", m=3)
    probs = np.exp(dec.log_distribution(rng.normal(size=(4, 3))))
    assert np.allclose(probs[:, dec.pad_index], 0.0)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_output_distribution_zero_weights_uniform():
    dec = zero_decoder("gru", m=3, target=11)
    probs = np.exp(dec.log_distribution(np.zeros((1, 3))))
    unmasked = 10
    assert np.allclose(probs[0, 1:], 1.0 / unmasked)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_log_distribution_equals_masked_log_softmax(seed):
    # the in-place output layer runs the reference's operations in order
    rng = np.random.default_rng(seed)
    dec = zero_decoder("lstm", m=3, target=11)
    for p in dec.parameters():
        p.value[...] = rng.normal(scale=3.0, size=p.value.shape)
    h = rng.normal(size=(5, 3))
    want = reference_decoder.masked_log_softmax(h @ dec.out_w.value + dec.out_b.value,
                                                [dec.pad_index])
    assert np.array_equal(dec.log_distribution(h), want)


def test_output_distribution_dominant_logit_saturates():
    dec = zero_decoder("gru", m=1, target=11)
    dec.out_w.value[...] = 0.0
    dec.out_b.value[0, 5] = 50.0
    probs = np.exp(dec.log_distribution(np.zeros((1, 1))))
    assert 1.0 - probs[0, 5] < 1e-20



# -- the fused recurrence against the per-step tape ---------------------------


def ragged_batch(model, lengths, seed):
    rng = np.random.default_rng(seed)
    batch = []
    for n in lengths:
        triples = [tuple(int(v) for v in rng.integers(0, len(model.source_vocab), 3))
                   for _ in range(int(rng.integers(1, model.config.e_max + 1)))]
        words = [int(v) for v in rng.integers(4, len(model.target_vocab), n)]
        batch.append(EncodedExample(triples, [model.start_index, *words, model.end_index]))
    batch[-1].target += [model.pad_index] * 2  # explicit padding is never predicted
    return batch


def taped_loss(model, loss_fn, batch, max_timestep):
    params = model.parameters()
    nn.zero_grads(params)
    tape = nn.Tape()
    cost, total_nll, count = loss_fn(tape, batch, True, max_timestep)
    tape.backward(cost)
    return float(cost.value[0, 0]), total_nll, count, {p.name: p.grad.copy() for p in params}


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("max_timestep", [None, 4])
def test_sequence_matches_per_step_reference(cell, max_timestep):
    model = make_model(seed=3, cell=cell, m=6, e_max=3, target_extra=9).to_float64()
    batch = ragged_batch(model, [3, 7, 5, 1], seed=0)
    cost, nll, count, grads = taped_loss(model, model.batch_loss, batch, max_timestep)
    want_cost, want_nll, want_count, want = taped_loss(
        model, functools.partial(reference_decoder.batch_loss, model), batch, max_timestep)
    assert count == want_count
    assert cost == pytest.approx(want_cost, rel=1e-12)
    assert nll == pytest.approx(want_nll, rel=1e-12)
    assert list(grads) == list(want)
    for name, g in grads.items():
        # blocks such as encoder.embed_bias and bn_*.shift are rounding
        # noise around zero under batch norm, hence the absolute floor
        tol = max(1e-10 * np.abs(want[name]).max(), 1e-15)
        assert np.abs(g - want[name]).max() <= tol, name
    for training in (False, True):  # forward-only (corpus_nll) path
        got = model.batch_loss(None, batch, training, max_timestep)
        ref = reference_decoder.batch_loss(model, None, batch, training, max_timestep)
        assert got[0].value[0, 0] == pytest.approx(ref[0].value[0, 0], rel=1e-12)
        assert got[1:] == pytest.approx(ref[1:], rel=1e-12)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_sequence_hidden_rows_equal_beam_steps(cell):
    # row t*B + b of the fused pass is example b's hidden vector after
    # step t of Decoder.step, which beam search runs; in float32 the two
    # GEMM shapes round differently
    model = make_model(seed=4, cell=cell, m=5)
    inputs = np.array([[1, 6], [7, 8], [9, 2]])
    h0 = nn.Node(np.random.default_rng(1).normal(size=(2, 5)).astype(nn.DTYPE))
    rows = model.decoder.sequence(None, inputs, h0, None).value
    h, c = model.decoder.initial_state(h0.value)
    for t, x in enumerate(inputs):
        h, c = model.decoder.step(x, h, c)
        np.testing.assert_allclose(rows[2 * t:2 * t + 2], h, rtol=1e-5, atol=1e-6)
    with pytest.raises(nn.ShapeError):
        model.decoder.sequence(None, np.array([[1, 99]]), h0, None)


# -- the fused output head against the taped chain ------------------------------


def head_inputs(model, rows, seed):
    """Hidden rows, targets and weights with zero-weight padding rows, one
    of them pointing at the padding target."""
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=(rows, model.config.m))
    targets = rng.integers(1, len(model.target_vocab), rows)
    weights = np.ones(rows)
    weights[[1, rows - 1]] = 0.0
    targets[rows - 1] = model.pad_index
    return hidden, targets, weights


def run_head(loss_fn, model, hidden, targets, weights, scale):
    params = model.parameters()
    nn.zero_grads(params)
    h = nn.Node(hidden.copy())
    tape = nn.Tape()
    cost, total = loss_fn(tape, h, targets, weights, scale)
    tape.backward(cost)
    dec = model.decoder
    return cost.value, total, dec.out_w.grad.copy(), dec.out_b.grad.copy(), h.grad


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("workspace", [False, True])
def test_fused_head_matches_taped_chain(cell, workspace):
    model = make_model(seed=5, cell=cell, m=7, target_extra=30).to_float64()
    dec = model.decoder
    hidden, targets, weights = head_inputs(model, 12, seed=2)
    ws = nn.Workspace() if workspace else None
    if ws is not None:  # stale contents of a larger earlier pass
        ws.take("logits", (40, 64), np.float64)[...] = np.nan
        ws.take("d_hidden", (40, 64), np.float64)[...] = np.nan
    got = run_head(functools.partial(dec.output_loss, ws=ws), model, hidden, targets,
                   weights, 1.0 / 3)
    want = run_head(functools.partial(reference_decoder.output_loss, dec), model, hidden,
                    targets, weights, 1.0 / 3)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    for g, w in zip(got[2:], want[2:]):
        assert np.array_equal(g, w)
    assert np.all(dec.out_w.grad[:, model.pad_index] == 0.0)  # the -inf column gets none
    untaped_cost, untaped_total = dec.output_loss(None, nn.Node(hidden), targets, weights,
                                                  1.0 / 3, ws)
    assert np.array_equal(untaped_cost.value, want[0]) and untaped_total == want[1]


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_gradient_check_through_fused_head(cell):
    # criterion 1 on a batch with explicit padding targets and ragged lengths
    model = make_model(seed=8, cell=cell, m=5, e_max=3, target_extra=6).to_float64()
    batch = ragged_batch(model, [2, 4, 1], seed=1)

    def loss_fn(compute):
        tape = nn.Tape() if compute else None
        cost, _, _ = model.batch_loss(tape, batch, training=True)
        if compute:
            tape.backward(cost)
        return float(cost.value[0, 0])

    assert nn.gradient_check(loss_fn, model.parameters()) < 1e-4


# -- the workspace ---------------------------------------------------------------


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_passes_without_workspace_do_not_overwrite_each_other(cell):
    model = make_model(seed=6, cell=cell, m=5, e_max=3, target_extra=9)
    first, second = ragged_batch(model, [4, 6], seed=1), ragged_batch(model, [5, 2, 3], seed=2)
    h0 = nn.leaf(np.random.default_rng(3).normal(size=(2, 5)))
    rows = model.decoder.sequence(None, np.array([[1, 6], [7, 8]]), h0, None)
    kept = rows.value.copy()
    model.decoder.sequence(None, np.array([[2, 3], [4, 5], [9, 9]]), h0, None)
    assert np.array_equal(rows.value, kept)
    # two taped passes alive at once, spent in reverse order, give the
    # gradients each gives alone
    alone = [taped_loss(model, model.batch_loss, batch, None)[3] for batch in (first, second)]
    tapes = [nn.Tape(), nn.Tape()]
    costs = [model.batch_loss(tape, batch, True)[0]
             for tape, batch in zip(tapes, (first, second))]
    for tape, cost, want in reversed(list(zip(tapes, costs, alone))):
        nn.zero_grads(model.parameters())
        tape.backward(cost)
        for p in model.parameters():
            assert np.array_equal(p.grad, want[p.name]), p.name


def test_workspace_hands_out_its_buffers_again():
    model = make_model(seed=6, cell="lstm", m=5, target_extra=9)
    ws = nn.Workspace()
    h0 = nn.leaf(np.zeros((2, 5)))
    rows = model.decoder.sequence(None, np.array([[1, 6], [7, 8], [2, 2]]), h0, ws)
    again = model.decoder.sequence(None, np.array([[3, 4]]), h0, ws)
    assert np.shares_memory(rows.value, again.value)  # the aliasing train() keeps to itself
    assert ws.take("hs", (2, 3), nn.DTYPE).base is ws.take("hs", (4,), nn.DTYPE).base
    assert ws.take("hs", (2,), np.float64).dtype == np.float64  # a loan of another dtype

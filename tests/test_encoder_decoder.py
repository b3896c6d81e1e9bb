import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder
from conftest import make_model
from triples2text import nn
from triples2text.decoder import Decoder
from triples2text.encoder import TripleEncoder
from triples2text.model import EncodedExample


def encoder_no_bn(source_size=8, m=2, e_max=3):
    return TripleEncoder(source_size, m, e_max, use_batch_norm=False)


def encode_one(enc, triples):
    """The decoder initialisation vector of one triple set."""
    return enc.encode_batch(None, [triples], training=False).value[0]


def test_encode_triple_zero_parameters_gives_zero():
    enc = encoder_no_bn()
    assert np.allclose(encode_one(enc, [(1, 2, 3)]), 0.0)


def test_encode_triple_hand_case():
    # m=2; embeddings s=[1,0], p=[0,1], o=[1,1]; hidden rows pick entries of
    # the concatenation [s; p; o]
    enc = encoder_no_bn()
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
    enc = encoder_no_bn(m=4)
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
    enc = encoder_no_bn()
    for bad in [(99, 0, 0), (0, -1, 0), (0, 0, 8)]:
        with pytest.raises(nn.ShapeError, match="out of range"):
            encode_one(enc, [(1, 2, 3), bad])


def test_aggregate_pads_with_zero_vectors():
    enc = encoder_no_bn(m=2, e_max=3)
    rng = np.random.default_rng(1)
    enc.aggregate_w.value[...] = rng.normal(size=enc.aggregate_w.value.shape)
    h1 = np.array([[0.7, -0.3]])
    packed = nn.pack_slots(None, nn.leaf(h1), np.array([0]), np.array([0]), 1, 3)
    expected = packed.value @ enc.aggregate_w.value
    out = enc.aggregate(None, nn.leaf(h1), np.array([0]), np.array([0]), 1,
                        training=False)
    assert np.allclose(out.value, expected)
    # the padded slots contribute nothing
    assert np.allclose(packed.value[0, 2:], 0.0)


def test_aggregate_hand_case_e_max_two():
    enc = encoder_no_bn(m=2, e_max=2)
    enc.aggregate_w.value[...] = np.array([[1.0, 0.0],
                                           [0.0, 1.0],
                                           [1.0, 1.0],
                                           [2.0, 0.0]])
    hs = nn.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = enc.aggregate(None, hs, np.array([0, 0]), np.array([0, 1]), 1,
                        training=False)
    # concat [1,2,3,4]: out = [1*1+2*0+3*1+4*2, 1*0+2*1+3*1+4*0] = [12, 5]
    assert np.allclose(out.value, [[12.0, 5.0]])


def test_aggregate_zero_inputs_zero_bias_gives_zero():
    enc = encoder_no_bn(m=2, e_max=2)
    out = enc.encode_batch(None, [[]], training=False)
    assert np.allclose(out.value, 0.0)


def test_aggregate_rejects_overfull_sets():
    enc = encoder_no_bn(m=2, e_max=2)
    with pytest.raises(ValueError, match="e_max"):
        enc.encode_batch(None, [[(0, 0, 0)] * 3], training=False)


def test_shape_contract_all_counts():
    enc = TripleEncoder(8, 5, 3, use_batch_norm=True)
    for n_triples in range(0, 4):
        out = enc.encode_batch(None, [[(1, 2, 3)] * n_triples], training=False)
        assert out.value.shape == (1, 5)


def test_padding_neutrality_with_zeroed_pad_columns():
    # zero weights for the padded slots cannot change the aggregate
    enc = encoder_no_bn(m=2, e_max=3)
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
    enc = TripleEncoder(8, 3, 2, use_batch_norm=True)
    nn.init_uniform(enc.parameters(), -0.5, 0.5, seed=0)
    params = enc.parameters()
    tape = nn.Tape()
    nn.zero_grads(params)
    out = enc.encode_batch(tape, [[(1, 2, 3)], [(4, 5, 6)]], training=True,
                           update_running=False)
    tape.backward(nn.sum_all(tape, out))
    for row in (1, 2, 3, 4, 5, 6):
        assert np.any(enc.embed.grad[row] != 0.0), f"no gradient at row {row}"


# -- decoder cells -------------------------------------------------------------


def zero_decoder(cell, m=3, target=12):
    return Decoder(target, m, cell)


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
    dec = zero_decoder("lstm", m=1)
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
    dec = zero_decoder("gru", m=1)
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
    top, _ = dec.step(np.asarray([1]), np.asarray([h_prev]))
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
    # the in-place output layer runs nn.masked_log_softmax's operations in order
    rng = np.random.default_rng(seed)
    dec = zero_decoder("lstm", m=3, target=11)
    for p in dec.parameters():
        p.value[...] = rng.normal(scale=3.0, size=p.value.shape)
    h = rng.normal(size=(5, 3))
    want = nn.masked_log_softmax(h @ dec.out_w.value + dec.out_b.value, [dec.pad_index])
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
    cost, total_nll, count = loss_fn(tape, batch, True, max_timestep, update_running=False)
    tape.backward(cost)
    return float(cost.value[0, 0]), total_nll, count, {p.name: p.grad.copy() for p in params}


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("use_batch_norm", [True, False])
@pytest.mark.parametrize("max_timestep", [None, 4])
def test_sequence_matches_per_step_reference(cell, use_batch_norm, max_timestep):
    model = make_model(seed=3, cell=cell, m=6, e_max=3, target_extra=9,
                       use_batch_norm=use_batch_norm)
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
        got = model.batch_loss(None, batch, training, max_timestep, update_running=False)
        ref = reference_decoder.batch_loss(model, None, batch, training, max_timestep,
                                           update_running=False)
        assert got[0].value[0, 0] == pytest.approx(ref[0].value[0, 0], rel=1e-12)
        assert got[1:] == pytest.approx(ref[1:], rel=1e-12)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_sequence_hidden_rows_equal_beam_steps(cell):
    # row t*B + b of the fused pass is example b's hidden vector after
    # step t of Decoder.step, which beam search runs
    model = make_model(seed=4, cell=cell, m=5)
    inputs = np.array([[1, 6], [7, 8], [9, 2]])
    h0 = nn.leaf(np.random.default_rng(1).normal(size=(2, 5)))
    rows = model.decoder.sequence(None, inputs, h0).value
    h, c = model.decoder.initial_state(h0.value)
    for t, x in enumerate(inputs):
        h, c = model.decoder.step(x, h, c)
        np.testing.assert_allclose(rows[2 * t:2 * t + 2], h, rtol=1e-12, atol=1e-15)
    with pytest.raises(nn.ShapeError):
        model.decoder.sequence(None, np.array([[1, 99]]), h0)

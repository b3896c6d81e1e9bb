import os
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triples2text import nn


def test_affine_identity_and_bias():
    tape = nn.Tape()
    w = nn.leaf(np.eye(3))
    x = nn.leaf(np.array([[1.0, -2.0, 3.0]]))
    out = nn.affine(tape, x, w, None)
    assert np.allclose(out.value, x.value)
    b = nn.leaf(np.array([[5.0, 5.0, 5.0]]))
    zero_w = nn.leaf(np.zeros((3, 3)))
    out2 = nn.affine(tape, x, zero_w, b)
    assert np.allclose(out2.value, 5.0)


def test_affine_hand_case():
    # [[1,2],[3,4]] @ [1,1]^T = [3, 7]^T
    w = nn.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]).T)
    x = nn.leaf(np.array([[1.0, 1.0]]))
    out = nn.affine(None, x, w, None)
    assert np.allclose(out.value, [[3.0, 7.0]])


def test_affine_shape_mismatch_names_operands():
    with pytest.raises(nn.ShapeError, match="matmul"):
        nn.matmul(None, nn.leaf(np.zeros((1, 3))), nn.leaf(np.zeros((2, 1))))


def test_activation_values():
    x = nn.leaf(np.array([[-3.0, 0.0, 3.0]]))
    assert np.allclose(nn.relu(None, x).value, [[0.0, 0.0, 3.0]])
    assert nn.sigmoid_array(np.zeros((1, 1)))[0, 0] == 0.5
    # extreme inputs stay finite
    big = nn.sigmoid_array(np.array([[-1e4, 1e4]]))
    assert np.all(np.isfinite(big))
    assert big[0, 0] == 0.0 and big[0, 1] == 1.0


def test_softmax_uniform_on_zero_row():
    v = 7
    probs = np.exp(nn.masked_log_softmax(np.zeros((2, v)), []))
    assert np.allclose(probs, 1.0 / v)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-50, max_value=50),
                         min_size=3, max_size=3), min_size=1, max_size=5))
def test_softmax_rows_sum_to_one(rows):
    probs = np.exp(nn.masked_log_softmax(np.array(rows), []))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(np.isfinite(probs))


def test_batch_norm_constant_batch_gives_shift():
    bn = nn.BatchNorm("bn", 3)
    bn.shift.value[...] = 2.5
    x = nn.leaf(np.ones((4, 3)) * 9.0)
    out = nn.batch_norm(None, x, bn, training=True)
    assert np.allclose(out.value, 2.5)


def test_batch_norm_standardized_batch_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    bn = nn.BatchNorm("bn", 4)
    out = nn.batch_norm(None, nn.leaf(x), bn, training=True)
    assert np.max(np.abs(out.value - x)) < 1e-4


def test_batch_norm_inference_uses_running_stats():
    bn = nn.BatchNorm("bn", 2)
    bn.scale.value[...] = [[2.0, 3.0]]
    bn.shift.value[...] = [[1.0, -1.0]]
    x = np.array([[1.0, 2.0]])
    out = nn.batch_norm(None, nn.leaf(x), bn, training=False)
    expected = bn.scale.value * x / np.sqrt(1.0 + bn.eps) + bn.shift.value
    assert np.allclose(out.value, expected)


def test_batch_norm_rejects_training_batch_of_one():
    bn = nn.BatchNorm("bn", 2)
    with pytest.raises(ValueError, match="batch"):
        nn.batch_norm(None, nn.leaf(np.zeros((1, 2))), bn, training=True)


def test_backward_twice_is_an_error():
    tape = nn.Tape()
    p = nn.Parameter("p", 1, 2)
    loss = nn.sum_all(tape, nn.sum_all(tape, p))
    tape.backward(loss)
    with pytest.raises(nn.TapeError):
        tape.backward(loss)


def test_gradient_zero_for_unused_parameter():
    used = nn.Parameter("used", 1, 2)
    used.value[...] = 3.0
    unused = nn.Parameter("unused", 1, 2)
    tape = nn.Tape()
    nn.zero_grads([used, unused])
    loss = nn.sum_all(tape, used)
    tape.backward(loss)
    assert np.allclose(used.grad, 1.0)
    assert np.allclose(unused.grad, 0.0)


def test_hand_gradient_of_sum_wx():
    # loss = sum(x @ W) with x fixed => dloss/dW[i, j] = sum over batch of x[:, i]
    w = nn.Parameter("w", 2, 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    tape = nn.Tape()
    nn.zero_grads([w])
    loss = nn.sum_all(tape, nn.matmul(tape, nn.leaf(x), w))
    tape.backward(loss)
    assert np.allclose(w.grad, [[4.0, 4.0], [6.0, 6.0]])


def test_rmsprop_zero_gradient_is_fixed_point():
    p = nn.Parameter("p", 2, 2)
    p.value[...] = 1.5
    nn.rmsprop_step([p], learning_rate=0.1, l2_coefficient=0.0)
    assert np.allclose(p.value, 1.5)


def test_rmsprop_scalar_hand_case():
    # acc = 0.05, step = lr * 1 / sqrt(0.05 + eps)
    p = nn.Parameter("p", 1, 1)
    p.grad[...] = 1.0
    nn.rmsprop_step([p], learning_rate=0.1, decay_rho=0.95, epsilon=1e-8)
    assert abs(p.rms_acc[0, 0] - 0.05) < 1e-15
    assert abs(p.value[0, 0] + 0.1 / np.sqrt(0.05 + 1e-8)) < 1e-12


def test_rmsprop_identical_parameters_update_identically():
    a = nn.Parameter("a", 2, 3)
    b = nn.Parameter("b", 2, 3)
    for p in (a, b):
        p.value[...] = 0.7
        p.grad[...] = 0.3
    nn.rmsprop_step([a, b], 0.01, l2_coefficient=1e-5)
    assert np.array_equal(a.value, b.value)


def test_rmsprop_l2_enters_gradient():
    p = nn.Parameter("p", 1, 1)
    p.value[...] = 2.0
    lam = 0.01
    g = 2 * lam * 2.0
    nn.rmsprop_step([p], learning_rate=0.1, decay_rho=0.95, epsilon=1e-8,
                    l2_coefficient=lam)
    expected = 2.0 - 0.1 * g / np.sqrt(0.05 * g * g + 1e-8)
    assert abs(p.value[0, 0] - expected) < 1e-12


def rmsprop_with_temporaries(p, lr, rho, eps, l2):
    """RMSProp written with temporaries, the formula the in-place update keeps."""
    g = p.grad
    if l2:
        g = g + 2.0 * l2 * p.value
    p.rms_acc[...] = rho * p.rms_acc + (1.0 - rho) * g * g
    p.value -= lr * g / np.sqrt(p.rms_acc + eps)


@pytest.mark.parametrize("l2", [1e-5, 0.0])
def test_rmsprop_in_place_equals_formula_exactly(l2):
    rng = np.random.default_rng(3)

    def params():
        ps = [nn.Parameter("embed", 6, 4), nn.Parameter("w", 4, 9), nn.Parameter("b", 1, 9)]
        for p in ps:
            p.value[...] = rng.normal(size=p.value.shape)
            p.rms_acc[...] = rng.uniform(0.0, 2.0, size=p.value.shape)
        return ps

    got = params()
    want = [nn.Parameter(p.name, *p.value.shape) for p in got]
    for p, q in zip(got, want):
        q.value[...], q.rms_acc[...] = p.value, p.rms_acc
    for _ in range(3):
        for p, q in zip(got, want):
            p.grad[...] = q.grad[...] = rng.normal(size=p.value.shape)
        got[0].grad[2] = want[0].grad[2] = 0.0  # an embedding row no token used
        acc_before = got[0].rms_acc[2].copy()
        nn.rmsprop_step(got, 0.01, decay_rho=0.9, epsilon=1e-6, l2_coefficient=l2)
        for q in want:
            rmsprop_with_temporaries(q, 0.01, 0.9, 1e-6, l2)
        for p, q in zip(got, want):
            assert np.array_equal(p.value, q.value) and np.array_equal(p.rms_acc, q.rms_acc)
            assert np.array_equal(p.grad, q.grad)  # the gradient is left as it was
        assert np.all(got[0].rms_acc[2] < acc_before)  # the unused row still decays
        if not l2:
            assert np.array_equal(got[0].rms_acc[2], 0.9 * acc_before)
            assert np.array_equal(got[0].value[2], want[0].value[2])


def test_clip_gradients_equals_formula_exactly():
    rng = np.random.default_rng(4)
    ps = [nn.Parameter("a", 5, 3), nn.Parameter("b", 1, 7)]
    for p in ps:
        p.grad[...] = rng.normal(size=p.value.shape)
    want_norm = sum(float((p.grad * p.grad).sum()) for p in ps) ** 0.5
    want = [p.grad * (0.5 / want_norm) for p in ps]
    norm, factor = nn.clip_gradients(ps, 0.5)
    assert norm == want_norm and factor == 0.5 / want_norm
    assert all(np.array_equal(p.grad, w) for p, w in zip(ps, want))


def test_init_uniform_reproducible_and_in_bounds():
    a = [nn.Parameter("x", 10, 10), nn.Parameter("y", 5, 2)]
    b = [nn.Parameter("x", 10, 10), nn.Parameter("y", 5, 2)]
    nn.init_uniform(a, seed=42)
    nn.init_uniform(b, seed=42)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.value, pb.value)
        assert pa.value.min() >= -0.001 and pa.value.max() < 0.001
    with pytest.raises(ValueError):
        nn.init_uniform(a, seed=None)


def test_init_uniform_mean_near_zero():
    p = nn.Parameter("p", 1000, 1000)
    nn.init_uniform([p], seed=7)
    assert abs(p.value.mean()) < 1e-4


def test_clip_gradients_hand_case():
    p = nn.Parameter("p", 1, 2)
    p.grad[...] = [[3.0, 4.0]]
    norm, scale = nn.clip_gradients([p], 1.0)
    assert norm == 5.0
    assert abs(scale - 0.2) < 1e-15
    assert np.allclose(p.grad, [[0.6, 0.8]])


def test_clip_gradients_noop_cases():
    p = nn.Parameter("p", 1, 2)
    p.grad[...] = [[0.1, 0.1]]
    norm = (0.1 * 0.1 + 0.1 * 0.1) ** 0.5
    assert nn.clip_gradients([p], 5.0) == (norm, 1.0)
    assert np.allclose(p.grad, 0.1)
    assert nn.clip_gradients([p], None) == (norm, 1.0)  # the norm is still reported
    assert np.allclose(p.grad, 0.1)
    p.grad[...] = 0.0
    assert nn.clip_gradients([p], 5.0) == (0.0, 1.0)
    assert nn.clip_gradients([p], None) == (0.0, 1.0)


def test_masked_softmax_nll_masks_and_weights():
    logits = nn.leaf(np.zeros((2, 4)))
    targets = np.array([1, 2])
    weights = np.array([1.0, 0.0])
    nll, probs = nn.masked_softmax_nll(None, logits, targets, weights, [0])
    assert np.allclose(probs[:, 0], 0.0)
    assert np.allclose(probs[:, 1:].sum(axis=1), 1.0)
    assert abs(nll.value[0, 0] - np.log(3.0)) < 1e-12
    assert nll.value[1, 0] == 0.0


def test_block_container_roundtrip(tmp_path):
    path = str(tmp_path / "blocks.bin")
    blocks = [("alpha", np.arange(6.0).reshape(2, 3)), ("beta", np.zeros((1, 4)))]
    nn.write_blocks(path, {"kind": "test", "n": 2}, blocks)
    header, loaded = nn.read_blocks(path)
    assert header == {"kind": "test", "n": 2}
    for name, arr in blocks:
        assert np.array_equal(loaded[name], arr)


def test_block_container_truncation_and_magic(tmp_path):
    path = str(tmp_path / "blocks.bin")
    nn.write_blocks(path, {}, [("a", np.ones((4, 4)))])
    data = pathlib.Path(path).read_bytes()
    pathlib.Path(path).write_bytes(data[:-9])
    with pytest.raises(nn.BadCheckpointError, match="truncated"):
        nn.read_blocks(path)
    pathlib.Path(path).write_bytes(b"XXXX" + data[4:])
    with pytest.raises(nn.BadCheckpointError, match="magic"):
        nn.read_blocks(path)


def _small_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d, "small.bin")
        nn.write_blocks(str(path), {"cell_kind": "gru", "m": 2},
                        [("encoder.embed", np.arange(6.0).reshape(2, 3)),
                         ("decoder.out_b", np.ones((1, 2)))])
        return path.read_bytes()


def _read_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d, "fuzzed.bin")
        path.write_bytes(data)
        return nn.read_blocks(str(path))


_SMALL = _small_checkpoint()


def _container(head: bytes, rows: int = 1, cols: int = 1) -> bytes:
    """A one-block container with a raw header and a claimed block shape."""
    return (nn._MAGIC + struct.pack("<II", 1, len(head)) + head
            + struct.pack("<II", 1, 1) + b"a" + struct.pack("<QQ", rows, cols)
            + struct.pack("<d", 0.0))


@pytest.mark.parametrize("data, match", [
    (_SMALL[:8] + struct.pack("<I", 2**32 - 1) + _SMALL[12:], "truncated"),
    (_container(b"\xff\xfe"), "UTF-8"),
    (_container(b"[]"), "not a JSON object"),
    (_container(b"{x"), "header"),
    (_container(b"{}", 2**40, 2**20), "truncated"),
    (_container(b"{}", 2**63, 2**63), "truncated"),
    (_container(b"{}", 0, 2**64 - 1), "shape"),
], ids=["header-length", "header-utf8", "header-list", "header-json",
        "huge-block", "overflowing-block", "empty-block-absurd-width"])
def test_read_blocks_rejects_corrupt_container(data, match):
    with pytest.raises(nn.BadCheckpointError, match=match):
        _read_bytes(data)


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, len(_SMALL) - 1), st.integers(1, 255)),
                      max_size=4),
       keep=st.integers(0, len(_SMALL)))
def test_read_blocks_fuzzed_bytes_raise_only_bad_checkpoint(flips, keep):
    data = bytearray(_SMALL)
    for pos, mask in flips:
        data[pos] ^= mask
    try:
        header, blocks = _read_bytes(bytes(data[:keep]))
    except nn.BadCheckpointError:
        return
    assert isinstance(header, dict)
    assert all(arr.ndim == 2 for arr in blocks.values())


def test_write_blocks_failure_keeps_previous_file(tmp_path):
    path = str(tmp_path / "checkpoint_best.bin")
    nn.write_blocks(path, {"n": 1}, [("a", np.ones((2, 2)))])
    with pytest.raises(nn.ShapeError):
        nn.write_blocks(path, {"n": 2}, [("a", np.zeros((2, 2))), ("b", np.zeros((1, 2, 2)))])
    header, blocks = nn.read_blocks(path)
    assert header == {"n": 1}
    assert np.array_equal(blocks["a"], np.ones((2, 2)))
    assert os.listdir(tmp_path) == ["checkpoint_best.bin"]


def test_gradient_check_catches_a_broken_gradient():
    p = nn.Parameter("p", 1, 3)
    p.value[...] = [[0.3, -0.2, 0.5]]
    w = nn.leaf(np.array([[1.0, 2.0], [0.5, -3.0], [1.5, 0.25]]))  # p @ w > 0

    def good(compute):
        tape = nn.Tape() if compute else None
        loss = nn.sum_all(tape, nn.relu(tape, nn.matmul(tape, p, w)))
        if compute:
            tape.backward(loss)
        return float(loss.value[0, 0])

    assert nn.gradient_check(good, [p]) < 1e-8

    def bad(compute):
        value = good(compute)
        if compute:
            p.grad *= 2.0  # corrupt the analytic gradient
        return value

    assert nn.gradient_check(bad, [p]) > 0.1

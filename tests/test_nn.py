"""Backbone forward/backward, the SGD step, and the tensor file format."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgc.gradcheck import backward, finite_diff_check
from fedgc.nn import (
    BackboneParams,
    SgdState,
    forward,
    init_backbone,
    read_tensors,
    sgd_update,
    write_tensors,
)


def test_init_backbone_shapes_and_scale():
    params = init_backbone([5, 7, 3], seed=0)
    assert [(w.shape, b.shape) for w, b in params.layers] == [((5, 7), (7,)), ((7, 3), (3,))]
    assert all(not b.any() for _, b in params.layers)
    # weights ~ N(0, 1/fan_in); check the std on a wide layer
    wide = init_backbone([400, 300], seed=1).layers[0][0]
    assert abs(wide.std() * np.sqrt(400) - 1.0) < 0.02


def test_init_backbone_seeding():
    a = init_backbone([4, 6, 2], seed=3)
    b = init_backbone([4, 6, 2], seed=3)
    c = init_backbone([4, 6, 2], seed=4)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
    assert (a.layers[0][0] != c.layers[0][0]).any()


def test_params_validation():
    with pytest.raises(ValueError):
        BackboneParams.from_list([np.zeros((3, 4)), np.zeros(5)])
    with pytest.raises(ValueError):  # second layer does not chain
        BackboneParams.from_list([np.zeros((3, 4)), np.zeros(4), np.zeros((5, 2)), np.zeros(2)])
    with pytest.raises(ValueError):  # dims (3, 4) take a row of 3 * 4 + 4
        BackboneParams(np.zeros(15), (3, 4))
    with pytest.raises(ValueError):
        BackboneParams(np.zeros(16, dtype=np.float32), (3, 4))


def test_to_list_from_list_roundtrip():
    params = init_backbone([3, 5, 2], seed=7)
    arrays = params.to_list()
    assert len(arrays) == 4 and params.dims == (3, 5, 2) and params.size == 32
    # the arrays are views into the one row, in [W1, b1, W2, b2] order
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), params.flat)
    assert all(np.shares_memory(a, params.flat) for a in arrays)
    again = BackboneParams.from_list(arrays)
    assert again.dims == params.dims and not np.shares_memory(again.flat, params.flat)
    np.testing.assert_array_equal(again.flat, params.flat)
    with pytest.raises(ValueError):
        BackboneParams.from_list(arrays[:3])


def test_forward_single_layer_is_affine():
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = np.array([0.5, -0.5])
    params = BackboneParams.from_list([w, b])
    x = np.array([[1.0, -1.0, 2.0]])
    np.testing.assert_allclose(forward(params, x), x @ w + b, rtol=0, atol=0)


def test_forward_relu_by_hand():
    # hidden pre-activation [-1, 2] -> relu [0, 2] -> output 0*1 + 2*(-1) + 1 = -1
    w1 = np.array([[1.0, 2.0]])
    b1 = np.array([-2.0, 0.0])
    w2 = np.array([[1.0], [-1.0]])
    b2 = np.array([1.0])
    params = BackboneParams.from_list([w1, b1, w2, b2])
    np.testing.assert_allclose(forward(params, np.array([[1.0]])), [[-1.0]])


def test_forward_single_matches_batch():
    params = init_backbone([6, 9, 4], seed=2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 6))
    batch = forward(params, x)
    assert batch.shape == (5, 4)
    for i in range(5):
        row = forward(params, x[i : i + 1])
        assert row.shape == (1, 4)
        # a 1-row product may take gemv and round differently in the last ulp
        np.testing.assert_allclose(row[0], batch[i], rtol=0, atol=1e-14)


def test_forward_rejects_wrong_input_dim():
    params = init_backbone([6, 4], seed=0)
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 5)))
    # a lone vector, even of the right width, is not a batch
    with pytest.raises(ValueError, match="batch"):
        forward(params, np.zeros(6))


@pytest.mark.parametrize("dims", [[4, 6, 3], [4, 6, 5, 3]])
def test_backward_matches_finite_differences(dims):
    params = init_backbone(dims, seed=5)
    rng = np.random.default_rng(11)
    # keep relu pre-activations away from the kink
    x = rng.normal(size=(7, 4)) + 0.1
    probe = rng.normal(size=(7, 3))
    grad, grad_x = backward(params, x, probe)
    assert grad.dims == params.dims

    def objective(row):
        return float((forward(BackboneParams(row, params.dims), x) * probe).sum())

    report = finite_diff_check(objective, params.flat, grad.flat)
    assert report.passed, f"coordinate {report.worst_index}: {report.max_rel_err}"

    report = finite_diff_check(
        lambda xf: float((forward(params, xf.reshape(x.shape)) * probe).sum()),
        x.ravel(),
        grad_x.ravel(),
    )
    assert report.passed


def test_backward_batch_sums_single_sample_contributions():
    params = init_backbone([3, 5, 2], seed=9)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    probe = rng.normal(size=(6, 2))
    batch, batch_x = backward(params, x, probe)
    acc = np.zeros(params.size)
    for i in range(6):
        single, single_x = backward(params, x[i : i + 1], probe[i : i + 1])
        np.testing.assert_allclose(single_x[0], batch_x[i], atol=1e-12)
        acc += single.flat
    np.testing.assert_allclose(acc, batch.flat, atol=1e-12)


def test_backward_rejects_mismatched_grad_out():
    params = init_backbone([3, 2], seed=0)
    with pytest.raises(ValueError):
        backward(params, np.zeros((4, 3)), np.zeros((4, 3)))


def stepped(state, param, grad):
    """sgd_update on copies of param and grad: the new parameter array."""
    out = param.copy()
    sgd_update(state, out, grad.copy())
    return out


def test_sgd_update_hand_unroll_plain():
    # lr 0.1, momentum 0.9, no decay, constant gradient 0.5 on p0 = 1:
    #   v1 = 0.5          p1 = 1 - 0.05  = 0.95
    #   v2 = 0.45 + 0.5   p2 = 0.95 - 0.095 = 0.855
    state = SgdState(0.1, momentum=0.9)
    p = np.array([1.0])
    g = np.array([0.5])
    p = stepped(state, p, g)
    np.testing.assert_allclose(p, [0.95])
    p = stepped(state, p, g)
    np.testing.assert_allclose(p, [0.855])


def test_sgd_update_hand_unroll_weight_decay():
    # lr 0.1, momentum 0.9, decay 0.1, gradient 0.5 on p0 = 1:
    #   v1 = 0.5 + 0.1*1.0    = 0.6     p1 = 1 - 0.06      = 0.94
    #   v2 = 0.54 + 0.5 + 0.094 = 1.134 p2 = 0.94 - 0.1134 = 0.8266
    state = SgdState(0.1, momentum=0.9, weight_decay=0.1)
    p = np.array([1.0])
    g = np.array([0.5])
    p = stepped(state, p, g)
    np.testing.assert_allclose(p, [0.94])
    p = stepped(state, p, g)
    np.testing.assert_allclose(p, [0.8266])


def test_sgd_update_moves_param_and_velocity_in_place():
    # lr 0.5, momentum 0.5, gradient 2 on p0 = 1:
    #   v1 = 2            p1 = 1 - 1   = 0
    #   v2 = 1 + 2 = 3    p2 = 0 - 1.5 = -1.5
    state = SgdState(0.5, momentum=0.5)
    assert state.velocity is None
    p = np.ones(3)
    sgd_update(state, p, np.full(3, 2.0))
    np.testing.assert_array_equal(p, np.zeros(3))
    v = state.velocity
    np.testing.assert_array_equal(v, np.full(3, 2.0))
    sgd_update(state, p, np.full(3, 2.0))
    assert state.velocity is v
    np.testing.assert_array_equal(v, np.full(3, 3.0))
    np.testing.assert_array_equal(p, np.full(3, -1.5))


def test_sgd_state_validation():
    with pytest.raises(ValueError):
        SgdState(-0.1)
    with pytest.raises(ValueError):
        SgdState(0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SgdState(0.1, weight_decay=-1e-9)
    # every shape is checked before anything moves
    state = SgdState(0.1)
    p = np.ones(2)
    with pytest.raises(ValueError):
        sgd_update(state, p, np.zeros(3))
    assert state.velocity is None
    state = SgdState(0.1, velocity=np.ones(3))
    with pytest.raises(ValueError):
        sgd_update(state, p, np.ones(2))
    np.testing.assert_array_equal(p, np.ones(2))
    np.testing.assert_array_equal(state.velocity, np.ones(3))


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=7), rng.normal(size=(2, 2, 2))]
    path = tmp_path / "params.fgc"
    write_tensors(path, arrays)
    back = read_tensors(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert b.dtype == np.float64
        np.testing.assert_array_equal(a, b)


def test_tensor_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.fgc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensors(path)


def test_tensor_file_rejects_truncation(tmp_path):
    path = tmp_path / "cut.fgc"
    write_tensors(path, [np.ones((4, 4))])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_tensors(path)


# +0, -0, +inf, -inf, a quiet NaN with a payload, a signaling NaN, the sign-flipped quiet NaN
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000C0FFEE, 0x7FF0000000000001, 0xFFF8000000000123,
]


@st.composite
def tensors(draw):
    """A float64 array of any bit patterns, with 0-d and empty shapes included."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    bits = draw(st.lists(
        st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1),
        min_size=math.prod(shape), max_size=math.prod(shape),
    ))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.lists(tensors(), max_size=4))
@example([np.array(-0.0), np.zeros((0, 3)), np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64)])
def test_tensor_file_roundtrips_bit_exactly_and_rejects_every_truncation(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.fgc")
        write_tensors(path, arrays)
        back = read_tensors(path)
        assert len(back) == len(arrays)
        assert all(same_bits(a, b) for a, b in zip(arrays, back))
        # a file cut short anywhere, header or payload, or with bytes after the last
        # tensor (they were read without complaint), is a ValueError naming the file
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        for cut in [size + 4, *range(size - 1, -1, -1)]:
            os.truncate(path, cut)
            with pytest.raises(ValueError, match="t.fgc"):
                read_tensors(path)

import math

import numpy as np
import pytest

from coex.autograd import (
    Rng,
    Tensor,
    add,
    backward,
    dropout,
    embedding_lookup,
    grad_check,
    layer_norm,
    matmul,
    mul,
    neg,
    relu,
    reshape,
    softmax,
    tensor,
    transpose,
    tsum,
    value,
    _sigmoid_exp,
)
from oracles import layer_norm_ref, sigmoid, sigmoid_where, softmax_ref, square


def test_matmul_known_product():
    a = tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = tensor([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    out = matmul(a, b)
    # hand product: [[7+18+33, 8+20+36], [28+45+66, 32+50+72]]
    np.testing.assert_allclose(out, [[58.0, 64.0], [139.0, 154.0]])


def test_matmul_shape_error_names_both_shapes():
    a = tensor(np.zeros((2, 3)))
    b = tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError) as err:
        matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_gradients_match_manual():
    rng = np.random.default_rng(7)
    a = tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    b = tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
    loss = tsum(matmul(a, b))
    loss.backward()
    g = np.ones((3, 2), dtype=np.float32)
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-6)
    np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-6)


def test_batched_matmul_matches_loop():
    rng = np.random.default_rng(3)
    a = tensor(rng.normal(size=(4, 5, 6)).astype(np.float32))
    b = tensor(rng.normal(size=(4, 6, 3)).astype(np.float32))
    out = matmul(a, b)
    for i in range(4):
        np.testing.assert_allclose(out[i], a.data[i] @ b.data[i], rtol=1e-5)


def test_add_vector_broadcast_grad_sums_over_rows():
    rng = np.random.default_rng(11)
    x = tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
    v = tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
    loss = tsum(square(x + v))
    loss.backward()
    manual_v = np.zeros(3, dtype=np.float32)
    for r in range(5):
        manual_v += 2.0 * (x.data[r] + v.data)
    np.testing.assert_allclose(v.grad, manual_v, rtol=1e-5)
    np.testing.assert_allclose(x.grad, 2.0 * (x.data + v.data), rtol=1e-5)


def test_add_incompatible_shapes_raise():
    with pytest.raises(ValueError):
        tensor(np.zeros((2, 3))) + tensor(np.zeros((2, 4)))


def test_softmax_rows_match_reference():
    x = tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    out = softmax(x, axis=-1)
    ref0 = [math.exp(i) for i in (1.0, 2.0, 3.0)]
    ref0 = [v / sum(ref0) for v in ref0]
    np.testing.assert_allclose(out[0], ref0, rtol=1e-6)
    np.testing.assert_allclose(out[1], [1 / 3] * 3, rtol=1e-6)
    np.testing.assert_allclose(out.sum(axis=-1), [1.0, 1.0], rtol=1e-6)


def test_softmax_shift_invariance_and_overflow_safety():
    x = np.array([[1000.0, 1001.0, 1002.0]], dtype=np.float32)
    out = softmax(tensor(x), axis=-1)
    ref = softmax(tensor(x - 1000.0), axis=-1)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, ref, rtol=1e-6)


def test_softmax_axis_out_of_range():
    with pytest.raises(ValueError):
        softmax(tensor(np.zeros((2, 3))), axis=2)


def test_sigmoid_reference_points():
    x = tensor([0.0, -100.0, 100.0])
    out = sigmoid(x)
    assert out.data[0] == pytest.approx(0.5)
    assert 0.0 < out.data[1] < 1e-6
    assert 1.0 - 1e-6 < out.data[2] <= 1.0
    assert np.all(np.isfinite(out.data))


def test_sigmoid_matches_tanh_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(scale=4.0, size=(8,)).astype(np.float32)
        s = sigmoid(tensor(x)).data
        ref = 0.5 * (1.0 + np.tanh(x.astype(np.float64) / 2.0))
        np.testing.assert_allclose(s, ref, atol=1e-6)


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_helper_equals_sign_selected_form_bit_for_bit(dtype, bits):
    tiny = np.finfo(dtype).tiny
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 50.0, -50.0, 89.0, -89.0,
               tiny / 4, -tiny / 4, tiny / 2**20, -tiny / 2**20, 800.0, -800.0]
    wide = np.random.default_rng(9).normal(scale=30.0, size=4000)
    z = np.concatenate([special, wide]).astype(dtype)
    s, e = _sigmoid_exp(z)
    assert s.dtype == e.dtype == dtype
    want = sigmoid_where(z)
    assert np.array_equal(s.view(bits), want.view(bits))
    assert np.array_equal(e.view(bits), np.exp(-np.abs(z)).view(bits))
    assert np.array_equal(sigmoid(Tensor(z)).data.view(bits), want.view(bits))


def test_layer_norm_reference_vector():
    x = tensor([[1.0, 2.0, 3.0]])
    gamma = tensor(np.ones(3, dtype=np.float32))
    beta = tensor(np.zeros(3, dtype=np.float32))
    out = layer_norm(x, gamma, beta, eps=1e-5)
    # population variance of [1,2,3] is 2/3; (x-2)/sqrt(2/3 + 1e-5)
    sigma = math.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out[0], [-1.0 / sigma, 0.0, 1.0 / sigma], rtol=1e-5)


def test_layer_norm_scale_shift():
    x = tensor([[2.0, 4.0, 6.0, 8.0]])
    gamma = tensor(np.full(4, 3.0, dtype=np.float32))
    beta = tensor(np.full(4, -1.0, dtype=np.float32))
    out = layer_norm(x, gamma, beta)
    base = layer_norm(x, tensor(np.ones(4, dtype=np.float32)), tensor(np.zeros(4, dtype=np.float32)))
    np.testing.assert_allclose(out, 3.0 * base - 1.0, rtol=1e-5)


def test_layer_norm_mismatched_gamma_raises():
    with pytest.raises(ValueError):
        layer_norm(tensor(np.zeros((2, 4))), tensor(np.ones(3)), tensor(np.zeros(3)))


def test_layer_norm_and_softmax_equal_mean_and_sum_oracles_bit_for_bit():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (3, 7), (20, 128), (2, 4, 9, 9), (5, 256)]
    for i in range(200):
        shape = shapes[i % len(shapes)]
        dtype = np.float64 if i % 10 == 0 else np.float32
        x = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        gamma = rng.normal(size=shape[-1]).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
        assert np.array_equal(out, layer_norm_ref(x, gamma, beta, 1e-5))
        for axis in range(-x.ndim, x.ndim):
            assert np.array_equal(softmax(Tensor(x), axis=axis), softmax_ref(x, axis))


def test_dropout_identity_cases():
    x = tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert dropout(x, 0.0, training=True, rng=Rng(0)) is x
    assert dropout(x, 0.5, training=False) is x


def test_dropout_invalid_p():
    x = tensor(np.zeros(3))
    with pytest.raises(ValueError):
        dropout(x, 1.0, training=True, rng=Rng(0))
    with pytest.raises(ValueError):
        dropout(x, -0.1, training=True, rng=Rng(0))


def test_dropout_scales_survivors_and_zeroes_the_rest():
    x = tensor(np.ones((40, 50), dtype=np.float32))
    out = dropout(x, 0.25, training=True, rng=Rng(123))
    vals = np.unique(out)
    np.testing.assert_allclose(sorted(vals), [0.0, 1.0 / 0.75], rtol=1e-6)
    # expectation preserved within a loose statistical band
    assert abs(out.mean() - 1.0) < 0.05


def test_dropout_gradient_uses_same_mask():
    x = tensor(np.ones((30, 30), dtype=np.float32), requires_grad=True)
    out = dropout(x, 0.5, training=True, rng=Rng(9))
    tsum(out).backward()
    np.testing.assert_allclose(x.grad, (out.data > 0) * 2.0, rtol=1e-6)


def test_dropout_bool_mask_matches_float_mask_bit_for_bit():
    data = Rng(3).uniform(-2.0, 2.0, (17, 9))
    x = tensor(data, requires_grad=True)
    out = dropout(x, 0.3, training=True, rng=Rng(9))
    g = Rng(4).uniform(-1.0, 1.0, (17, 9))
    tsum(out * tensor(g)).backward()
    keep = (Rng(9).random((17, 9), dtype=np.float32) >= 0.3).astype(np.float32)
    scale = 1.0 / (1.0 - 0.3)
    assert np.array_equal(out.data, data * keep * scale)
    assert np.array_equal(x.grad, g * keep * scale)


def test_embedding_lookup_gathers_and_scatters():
    table = tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    ids = np.array([1, 1, 3])
    out = embedding_lookup(table, ids)
    np.testing.assert_allclose(out.data, table.data[[1, 1, 3]])
    tsum(out).backward()
    expect = np.zeros((4, 3), dtype=np.float32)
    expect[1] = 2.0
    expect[3] = 1.0
    np.testing.assert_allclose(table.grad, expect)


def test_embedding_lookup_out_of_range_names_id():
    table = tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError) as err:
        embedding_lookup(table, np.array([0, 7]))
    assert "7" in str(err.value)


def test_backward_requires_scalar():
    x = tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(x)


def test_backward_on_constant_is_noop():
    c = tensor(3.0)
    backward(c)
    assert c.grad is None


def test_backward_keeps_grad_on_leaves_only_and_accumulates():
    x = tensor([2.0], requires_grad=True)
    y = square(x)
    loss = tsum(y)
    loss.backward()
    np.testing.assert_allclose(x.grad, [4.0])
    assert loss.grad is None and y.grad is None
    loss.backward()
    np.testing.assert_allclose(x.grad, [8.0])
    assert loss.grad is None and y.grad is None


def test_shared_subexpression_grads_add():
    x = tensor([3.0], requires_grad=True)
    y = square(x)
    loss = tsum(y + y)
    loss.backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_transpose_reshape_round_trip_gradient():
    x = tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4), requires_grad=True)
    y = transpose(x, (1, 0, 2))
    z = reshape(y, (6, 4))
    tsum(square(z)).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)


def test_ops_without_grad_return_plain_arrays():
    x = np.random.default_rng(13).normal(size=(2, 3)).astype(np.float32)
    ones, zeros = np.ones(3, dtype=np.float32), np.zeros(3, dtype=np.float32)
    for a in (x, Tensor(x)):
        assert value(a) is x
        outs = [
            add(a, ones), neg(a), mul(a, 2.0), matmul(a, x.T), tsum(a), relu(a), softmax(a),
            layer_norm(a, Tensor(ones), zeros), dropout(a, 0.5, training=True, rng=Rng(0)),
            embedding_lookup(a, np.array([1, 0])), reshape(a, (3, 2)), transpose(a, (1, 0)),
        ]
        assert all(type(out) is np.ndarray for out in outs)


@pytest.mark.parametrize(
    "op, const_shape, grad_shape",
    [
        (lambda c, w: add(c, w), (3, 4), (4,)),
        (lambda c, w: add(w, c), (4,), (3, 4)),
        (lambda c, w: mul(c, w), (3, 4), (3, 4)),
        (lambda c, w: matmul(c, w), (3, 4), (4, 2)),
        (lambda c, w: matmul(w, c), (4, 2), (3, 4)),
        (lambda c, w: layer_norm(w, c, c), (4,), (3, 4)),
        (lambda c, w: layer_norm(c, w, w), (3, 4), (4,)),
    ],
    ids=["add-first", "add-second", "mul", "matmul-first", "matmul-second", "ln-gamma-beta", "ln-x"],
)
def test_array_operand_joins_the_graph_as_a_constant(op, const_shape, grad_shape):
    # op(array, tensor) must give the gradient of op(Tensor(array), tensor)
    rng = np.random.default_rng(12)
    c = rng.normal(size=const_shape)
    w0 = rng.normal(size=grad_shape)
    outs, grads = [], []
    for const in (c, Tensor(c)):
        w = Tensor(w0.copy(), requires_grad=True)
        out = op(const, w)
        tsum(square(out)).backward()
        outs.append(out)
        grads.append(w.grad)
    constants = [p for p in outs[0]._parents if not p.requires_grad]
    assert outs[0].requires_grad and constants
    assert all(type(p) is Tensor and p.data is c for p in constants)
    assert np.array_equal(outs[0].data, outs[1].data)
    assert np.array_equal(grads[0], grads[1])


def test_grad_check_composite_float32():
    rng = Rng(42)
    w = Tensor(rng.uniform(-0.5, 0.5, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, (3,)), requires_grad=True)
    g = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    x = Tensor(rng.uniform(-1.0, 1.0, (5, 4)))

    def f(params):
        wp, bp, gp = params
        h = matmul(x, wp) + bp
        h = layer_norm(h, gp, Tensor(np.zeros(3, dtype=np.float32)))
        return tsum(square(sigmoid(h)))

    assert grad_check(f, [w, b, g], eps=1e-3) <= 1e-3


def test_grad_check_composite_float64():
    rng = Rng(43)
    w = Tensor(rng.uniform(-0.5, 0.5, (4, 4), dtype=np.float64), requires_grad=True)
    x = Tensor(rng.uniform(-1.0, 1.0, (6, 4), dtype=np.float64))

    def f(params):
        h = matmul(x, params[0])
        s = softmax(h, axis=-1)
        return tsum(square(s))

    assert grad_check(f, [w], eps=1e-6) <= 1e-6


def test_grad_check_relu_chain_float64():
    rng = Rng(44)
    w1 = Tensor(rng.uniform(-0.6, 0.6, (3, 5), dtype=np.float64), requires_grad=True)
    w2 = Tensor(rng.uniform(-0.6, 0.6, (5, 2), dtype=np.float64), requires_grad=True)
    x = Tensor(rng.uniform(0.1, 1.0, (4, 3), dtype=np.float64))

    def f(params):
        a, b = params
        return tsum(sigmoid(matmul(relu(matmul(x, a)), b)))

    assert grad_check(f, [w1, w2], eps=1e-6) <= 1e-6


def test_grad_check_dead_parameter_is_zero_on_both_sides():
    dead = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
    live = Tensor(np.full((2,), 0.3, dtype=np.float64), requires_grad=True)

    def f(params):
        return tsum(square(params[1]))

    assert grad_check(f, [dead, live], eps=1e-6) <= 1e-9


def test_rng_reproducibility():
    a = Rng(7).uniform(-1.0, 1.0, (4, 4))
    b = Rng(7).uniform(-1.0, 1.0, (4, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(8).uniform(-1.0, 1.0, (4, 4)))

import weakref
import zlib

import numpy as np
import pytest
from conftest import (
    conv2d_oracle,
    finite_difference_gradient,
    group_norm_oracle,
    matmul_oracle,
    max_relative_error,
)

from dpsgd import ops
from dpsgd.errors import ConfigurationError, ShapeError


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ops.matmul(np.eye(2), a), a)

    def test_row_times_column(self):
        out = ops.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(11.0)

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.max(np.abs(ops.matmul(a, b) - matmul_oracle(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ops.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestConv2d:
    def test_ones_times_scalar_kernel(self):
        x = np.ones((1, 3, 3))
        k = np.full((1, 1, 1, 1), 2.0)
        assert np.array_equal(ops.conv2d(x, k), np.full((1, 3, 3), 2.0))

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        assert np.allclose(ops.conv2d(x, k, stride=1, padding=1), x, atol=0)

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 8, 8))
        k = rng.standard_normal((4, 2, 3, 3))
        bias = rng.standard_normal(4)
        got = ops.conv2d(x, k, stride=1, padding=1, bias=bias)
        want = conv2d_oracle(x, k, stride=1, padding=1, bias=bias)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_strided_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 9, 9))
        k = rng.standard_normal((2, 3, 3, 3))
        got = ops.conv2d(x, k, stride=2, padding=0)
        want = conv2d_oracle(x, k, stride=2, padding=0)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_non_integer_output_extent_rejected(self):
        with pytest.raises(ConfigurationError, match="extent"):
            ops.conv2d(np.zeros((1, 5, 5)), np.zeros((1, 1, 2, 2)), stride=2)


def im2col_loop(x, kh, kw, stride, padding):
    """Reference unfold: one patch row per (channel, i, j), filled by loops."""
    c, h, w = x.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c * kh * kw, h_out * w_out), dtype=x.dtype)
    row = 0
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                cols[row] = x[ci, i : i + stride * h_out : stride, j : j + stride * w_out : stride].ravel()
                row += 1
    return cols


def fold_loop(d_cols, input_shape, kh, kw, stride, padding):
    """Reference fold of patch gradients back onto the input, one row at a time."""
    c, h, w = input_shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    d_xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=d_cols.dtype)
    row = 0
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                d_xp[ci, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                    d_cols[row].reshape(h_out, w_out)
                )
                row += 1
    return d_xp[:, padding : padding + h, padding : padding + w]


def valid_extents(kernel, stride, padding):
    """Two different input extents that give a whole number of conv outputs."""
    padded = [(n, n + 2 * padding - kernel) for n in range(3, 16)]
    valid = [n for n, span in padded if span >= 0 and span % stride == 0]
    return valid[1], valid[2]


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("channels", [1, 3, 32])
def test_unfold_and_fold_equal_loop_references(channels, kernel, stride, padding):
    # A batch of two: every example's rows must equal the one-example references.
    h, w = valid_extents(kernel, stride, padding)
    rng = np.random.default_rng([channels, kernel, stride, padding])
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, channels, h, w)).astype(dtype)
        k = rng.standard_normal((4, channels, kernel, kernel)).astype(dtype)
        cols, _, _ = ops._im2col(x, kernel, kernel, stride, padding)
        assert cols.dtype == dtype
        for i in range(2):
            assert np.array_equal(cols[i], im2col_loop(x[i], kernel, kernel, stride, padding))

        y, tape = ops.conv2d_forward(x, k, np.zeros(4, dtype=dtype), stride, padding)
        up = rng.standard_normal(y.shape).astype(dtype)
        d_x, _ = ops.backward_layer(tape, up)
        assert d_x.dtype == dtype
        for i in range(2):
            d_cols = np.matmul(k.reshape(4, -1).T, up[i].reshape(4, -1))
            want = fold_loop(d_cols, x[i].shape, kernel, kernel, stride, padding)
            assert np.array_equal(d_x[i], want)


def same_bits(a, b):
    """Equal shape, dtype and bit pattern: unlike array_equal, -0.0 differs from +0.0."""
    bits = f"u{a.itemsize}"
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(bits), b.view(bits))


def max_pool_argmax(x, size):
    """Reference pool: argmax picks each window's element, put_along_axis routes its gradient."""
    b, c, h, w = x.shape
    h2, w2 = h // size, w // size
    windows = x.reshape(b, c, h2, size, w2, size).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, size * size)
    argmax = windows.argmax(axis=4)
    y = np.take_along_axis(windows, argmax[..., None], axis=4)[..., 0]

    def backward(upstream):
        d_windows = np.zeros((b, c, h2, w2, size * size), dtype=upstream.dtype)
        np.put_along_axis(d_windows, argmax[..., None], upstream[..., None], axis=4)
        return d_windows.reshape(b, c, h2, w2, size, size).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)

    return y, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [2, 3])
def test_max_pool_breaks_ties_like_argmax(size, dtype):
    rng = np.random.default_rng([size, np.dtype(dtype).itemsize])
    shape = (3, 4, 3 * size, 4 * size)
    relu = np.maximum(rng.standard_normal(shape), 0)
    zero_windows = relu.copy()
    zero_windows.reshape(3, 4, 3, size, 4, size)[:, :, ::2, :, 1::2, :] = 0
    inputs = {
        "post-relu zeros": relu,
        "repeated values": rng.integers(-1, 2, shape).astype(float),
        "whole windows of zeros": zero_windows,
        "signed zeros": rng.choice([0.0, -0.0, -1.0], shape),
    }
    for name, x in inputs.items():
        x = x.astype(dtype)
        y, tape = ops.max_pool_forward(x, size)
        want_y, want_backward = max_pool_argmax(x, size)
        assert np.array_equal(y, want_y) and same_bits(y, want_y), name
        for upstream in (rng.standard_normal(y.shape), np.full(y.shape, -1.0), np.full(y.shape, -0.0)):
            upstream = upstream.astype(dtype)
            d_x, grads = ops.backward_layer(tape, upstream)
            want = want_backward(upstream)
            assert grads is None
            assert np.array_equal(d_x, want) and same_bits(d_x, want), name
        # A negative upstream reaches one element per window; all others are +0.0.
        d_x, _ = ops.backward_layer(tape, np.full(y.shape, -1.0, dtype=dtype))
        assert np.count_nonzero(d_x) == y.size, name
        assert not np.signbit(d_x[d_x == 0]).any(), name


def group_norm_mean_var(x, gamma, beta, groups, eps=1e-5):
    """Reference group norm written with mean and var; returns y and its backward."""
    b, c, h, w = x.shape
    grouped = x.reshape(b, groups, (c // groups) * h * w)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    x_hat = ((grouped - mean) * inv_std).reshape(b, c, h, w)
    y = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]

    def backward(upstream):
        d_gamma = (upstream * x_hat).sum(axis=(2, 3))
        d_beta = upstream.sum(axis=(2, 3))
        gy_gamma = (upstream * gamma[None, :, None, None]).reshape(b, groups, -1)
        x_hat_g = x_hat.reshape(b, groups, -1)
        mean_gy = gy_gamma.mean(axis=2, keepdims=True)
        mean_gy_xhat = (gy_gamma * x_hat_g).mean(axis=2, keepdims=True)
        d_x = (inv_std * (gy_gamma - mean_gy - x_hat_g * mean_gy_xhat)).reshape(b, c, h, w)
        return d_x, (d_gamma, d_beta)

    return y, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, groups", [
    ((3, 4, 5, 3), 4), ((3, 6, 5, 3), 2), ((3, 8, 4, 4), 1), ((2, 32, 16, 16), 32), ((2, 64, 8, 8), 32),
])
def test_group_norm_equals_mean_var_reference(shape, groups, dtype):
    rng = np.random.default_rng([shape[1], groups, np.dtype(dtype).itemsize])
    x = (rng.standard_normal(shape) * 3.0 + 2.0).astype(dtype)
    gamma = rng.standard_normal(shape[1]).astype(dtype)
    beta = rng.standard_normal(shape[1]).astype(dtype)
    y, tape = ops.group_norm_forward(x, gamma, beta, groups)
    want_y, want_backward = group_norm_mean_var(x, gamma, beta, groups)
    assert np.array_equal(y, want_y) and same_bits(y, want_y)
    upstream = rng.standard_normal(shape).astype(dtype)
    d_x, grads = ops.backward_layer(tape, upstream)
    want_x, want_grads = want_backward(upstream)
    assert np.array_equal(d_x, want_x) and same_bits(d_x, want_x)
    for got, want in zip(grads.grads, want_grads):
        assert np.array_equal(got, want) and same_bits(got, want)


class TestGroupNorm:
    def test_constant_input_gives_beta(self):
        x = np.full((1, 4, 2, 2), 3.7)
        gamma = np.ones(4)
        beta = np.array([0.5, -1.0, 2.0, 0.0])
        y, _ = ops.group_norm_forward(x, gamma, beta, groups=2)
        want = np.broadcast_to(beta[None, :, None, None], x.shape)
        assert np.allclose(y, want, atol=1e-6)

    def test_matches_direct_statistics_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 2, 2))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        y, _ = ops.group_norm_forward(x, gamma, beta, groups=2)
        assert np.max(np.abs(y - group_norm_oracle(x, gamma, beta, 2))) < 1e-10

    def test_per_sample_isolation_is_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3, 3))
        gamma, beta = np.ones(4), np.zeros(4)
        base, _ = ops.group_norm_forward(x, gamma, beta, groups=2)
        perturbed = x.copy()
        perturbed[1] += rng.standard_normal((4, 3, 3)) * 100
        after, _ = ops.group_norm_forward(perturbed, gamma, beta, groups=2)
        assert np.array_equal(base[0], after[0])

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            ops.group_norm_forward(np.zeros((1, 6, 2, 2)), np.ones(6), np.zeros(6), groups=4)


class TestBackwardLayer:
    def test_linear_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 5))
        w, b = rng.standard_normal((3, 5)), rng.standard_normal(3)
        _, tape = ops.linear_forward(x, w, b)
        d_x, grads = ops.backward_layer(tape, np.zeros((1, 3)))
        d_w, d_b = grads.weighted_sum(np.ones(1))
        assert not d_x.any() and not d_w.any() and not d_b.any()
        assert not grads.sq_norms().any()

    def test_scalar_relu_chain_matches_hand_derivative(self):
        # y = relu(w * x) with w = 2, x = 3: dy/dw = x, dy/dx = w
        w = np.array([[2.0]])
        x = np.array([[3.0]])
        h, lin_tape = ops.linear_forward(x, w, np.zeros(1))
        y, relu_tape = ops.relu_forward(h)
        up, _ = ops.backward_layer(relu_tape, np.ones((1, 1)))
        d_x, grads = ops.backward_layer(lin_tape, up)
        d_w, d_b = grads.weighted_sum(np.ones(1))
        assert d_w[0, 0] == pytest.approx(3.0)
        assert d_x[0, 0] == pytest.approx(2.0)
        assert d_b[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_ghost_norms_match_explicit_outer_products(self, dtype):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 7)).astype(dtype)
        w, b = rng.standard_normal((4, 7)).astype(dtype), rng.standard_normal(4).astype(dtype)
        _, tape = ops.linear_forward(x, w, b)
        up = rng.standard_normal((5, 4)).astype(dtype)
        _, grads = ops.backward_layer(tape, up)
        wide_x, wide_up = x.astype(np.float64), up.astype(np.float64)
        explicit = [np.concatenate([np.outer(u, xi).ravel(), u]) for u, xi in zip(wide_up, wide_x)]
        sq_norms = grads.sq_norms()
        assert sq_norms.dtype == np.float64
        np.testing.assert_allclose(sq_norms, [np.dot(g, g) for g in explicit], rtol=1e-13)

        factors = rng.uniform(0.0, 1.0, 5).astype(dtype)
        d_w, d_b = grads.weighted_sum(factors)
        want = sum(f * g for f, g in zip(factors.astype(np.float64), explicit))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(d_w.ravel(), want[:-4], rtol=tol)
        np.testing.assert_allclose(d_b, want[-4:], rtol=tol)

    def test_upstream_shape_mismatch_rejected(self):
        _, tape = ops.linear_forward(np.zeros((1, 4)), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ShapeError):
            ops.backward_layer(tape, np.zeros((1, 3)))

    # (forward of x (3, 2, 6, 6) f32, one example's tape and gradient bytes)
    TAPE_CASES = {
        # im2col columns (2*3*3 rows x 4*4 or 6*6 positions), kernels and bias
        "conv_pad0": (lambda x, p: ops.conv2d_forward(x, p[0], p[1], 1, 0), 1456),
        "conv_pad1": (lambda x, p: ops.conv2d_forward(x, p[0], p[1], 1, 1), 2896),
        # x_hat (72 values), one inv_std, gamma and beta
        "group_norm": (lambda x, p: ops.group_norm_forward(x, p[2], p[3], 1), 308),
        "relu": (lambda x, p: ops.relu_forward(x), 72),  # a bool mask
        "max_pool": (lambda x, p: ops.max_pool_forward(x, 2), 72),  # a bool first-max mask over x
        "flatten": (lambda x, p: ops.flatten_forward(x), 0),
    }

    @pytest.mark.parametrize("case", sorted(TAPE_CASES))
    def test_tape_holds_only_what_its_backward_needs(self, case):
        forward, example_nbytes = self.TAPE_CASES[case]
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        params = [rng.standard_normal(s).astype(np.float32) for s in ((4, 2, 3, 3), (4,), (2,), (2,))]
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        y, tape = forward(x, params)
        upstream = rng.standard_normal(y.shape).astype(np.float32)
        want_x, want_grads = ops.backward_layer(forward(x.copy(), params)[1], upstream)
        alive = weakref.ref(x)
        del x, y
        assert alive() is None, f"{case}: the tape keeps the layer input alive"
        d_x, grads = ops.backward_layer(tape, upstream)
        assert np.array_equal(d_x, want_x)
        if grads is not None:
            for got, want in zip(grads.weighted_sum(np.ones(3)), want_grads.weighted_sum(np.ones(3))):
                assert np.array_equal(got, want)
        assert tape.example_nbytes == example_nbytes

    @pytest.mark.parametrize("case", ["linear", "conv", "conv_stride2_pad0", "group_norm", "max_pool"])
    def test_layer_gradients_match_finite_differences(self, case):
        # A batch of one; crc32, unlike the salted str hash, is the same in every process.
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        if case == "linear":
            x = rng.standard_normal((1, 6))
            w = rng.standard_normal((4, 6))
            b = rng.standard_normal(4)
            params = [w, b]
            forward = lambda: ops.linear_forward(x, w, b)
        elif case.startswith("conv"):
            stride, padding = (2, 0) if case == "conv_stride2_pad0" else (1, 1)
            x = rng.standard_normal((1, 2, 5, 5))
            w = rng.standard_normal((3, 2, 3, 3)) * 0.5
            b = rng.standard_normal(3)
            params = [w, b]
            forward = lambda: ops.conv2d_forward(x, w, b, stride=stride, padding=padding)
        elif case == "group_norm":
            x = rng.standard_normal((1, 4, 3, 3))
            w = rng.standard_normal(4) + 1.5
            b = rng.standard_normal(4)
            params = [w, b]
            forward = lambda: ops.group_norm_forward(x, w, b, groups=2)
        else:
            x = rng.standard_normal((1, 2, 4, 4))
            params = []
            forward = lambda: ops.max_pool_forward(x, 2)

        # Scalar objective: weighted sum of outputs, so upstream = weights.
        out0, _ = forward()
        weights = rng.standard_normal(out0.shape)

        def objective():
            out, _ = forward()
            return float((out * weights).sum())

        _, tape = forward()
        grads = ops.backward_layer(tape, weights)[1]
        grads_analytic = grads.weighted_sum(np.ones(1)) if grads is not None else []
        d_x_analytic = ops.backward_layer(forward()[1], weights)[0]

        for analytic, array in zip(grads_analytic, params):
            flat = array.reshape(-1)
            fd = finite_difference_gradient(objective, flat)
            assert max_relative_error(analytic.reshape(-1), fd) < 1e-4

        flat_x = x.reshape(-1)
        fd_x = finite_difference_gradient(objective, flat_x)
        assert max_relative_error(d_x_analytic.reshape(-1), fd_x) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_classes(self):
        loss, grad = ops.softmax_cross_entropy(np.zeros((1, 10)), np.array([3]))
        assert loss[0] == pytest.approx(np.log(10))
        assert grad[0, 3] == pytest.approx(0.1 - 1.0)

    def test_finite_for_extreme_logits(self):
        for logits in (np.array([1e6, -1e6, 0.0]), np.array([-1e8, -1e8, -1e8])):
            loss, grad = ops.softmax_cross_entropy(logits[None], np.array([1]))
            assert np.isfinite(loss).all()
            assert np.isfinite(grad).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((1, 6))
        _, grad = ops.softmax_cross_entropy(logits, np.array([2]))

        def objective():
            return ops.softmax_cross_entropy(logits, np.array([2]))[0][0]

        fd = finite_difference_gradient(objective, logits.reshape(-1))
        assert max_relative_error(grad.reshape(-1), fd) < 1e-4


def test_forward_backward_deterministic():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 6, 6))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    up = rng.standard_normal((1, 3, 6, 6))
    y1, t1 = ops.conv2d_forward(x, k, b, 1, 1)
    y2, t2 = ops.conv2d_forward(x, k, b, 1, 1)
    assert np.array_equal(y1, y2)
    g1 = ops.backward_layer(t1, up)
    g2 = ops.backward_layer(t2, up)
    assert np.array_equal(g1[0], g2[0])
    assert all(np.array_equal(a, b) for a, b in zip(g1[1].grads, g2[1].grads))

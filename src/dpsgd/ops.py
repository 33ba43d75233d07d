"""Dense tensor ops and hand-written reverse-mode layers.

All functions are pure: they take numpy arrays, return new arrays, and are
safe to call concurrently. Layer forwards take a batch with a leading
axis and return a LayerTape holding the layer's backward, defined next to
its forward; backward_layer() runs it and returns each example's parameter
gradients, which never mix examples. Asked for no input gradient (a model's
first layer, whose input is the data), a backward builds none.
Arrays are row-major float32 or float64; the dtype of the input decides the
dtype of every intermediate.

The CNN layers work on strided views instead of copies. Max pooling takes
each window's first max in window order, the element argmax would pick.
Convolution unfolds its input (im2col) from a zeroed, padded buffer, and
folds patch gradients back onto one, kernel offsets in fixed (i, j) order,
so every sum is added in the same order as a per-channel loop would.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError


@dataclass
class LayerTape:
    """One layer's backward pass over the batch its forward ran.

    `backward(upstream, input_grad)` returns what backward_layer returns. It
    closes over only the arrays it reads, so the tape keeps no more of the
    forward's arrays alive. `example_nbytes` is what one example holds in
    those arrays and in its parameter gradients until the clip factors are
    known.
    Single-use: the backward belongs to the forward call that produced it.
    """

    kind: str
    output_shape: tuple
    backward: Callable
    example_nbytes: int = 0


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of a 2-d array, in float64."""
    wide = a.astype(np.float64)
    return np.einsum("ij,ij->i", wide, wide)


class StackedGrads:
    """Each example's parameter gradients: one array per parameter with a leading batch axis."""

    def __init__(self, *grads: np.ndarray):
        self.grads = grads

    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of each example's gradient, in float64."""
        return sum(_sq_norms(g.reshape(len(g), -1)) for g in self.grads)

    def weighted_sum(self, factors: np.ndarray) -> list:
        """sum_i factors[i] * (example i's gradient), one array per parameter."""
        return [(factors @ g.reshape(len(g), -1)).reshape(g.shape[1:]) for g in self.grads]


class LinearGrads:
    """A linear layer's per-example gradients, kept factored.

    Example i's weight gradient is the outer product delta_i x_i^T and its
    bias gradient is delta_i. The squared norm of both together is
    ||delta_i||^2 (||x_i||^2 + 1) (the "ghost" norm), so no per-example
    weight gradient is ever formed.
    """

    def __init__(self, delta: np.ndarray, x: np.ndarray):
        self.delta = delta
        self.x = x

    def sq_norms(self) -> np.ndarray:
        return _sq_norms(self.delta) * (_sq_norms(self.x) + 1.0)

    def weighted_sum(self, factors: np.ndarray) -> list:
        scaled = self.delta * factors[:, None]
        return [np.dot(scaled.T, self.x), scaled.sum(axis=0)]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a (m, k) and b (k, n)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    return np.matmul(a, b)


def _conv_out_extent(extent: int, kernel: int, stride: int, padding: int, axis: str) -> int:
    span = extent + 2 * padding - kernel
    if span < 0 or span % stride != 0:
        raise ConfigurationError(
            f"conv2d output {axis}-extent is not a positive integer: "
            f"(({extent} + 2*{padding} - {kernel}) / {stride}) + 1"
        )
    return span // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Unfold (b, c, h, w) into (b, c*kh*kw, h_out*w_out) patch matrices.

    Rows are ordered (c, i, j), like the kernels. x is copied once into a
    zeroed, padded buffer; each kernel offset (i, j), in that order, then
    fills its rows with one strided slice copy.
    """
    b, c, h, w = x.shape
    h_out = _conv_out_extent(h, kh, stride, padding, "h")
    w_out = _conv_out_extent(w, kw, stride, padding, "w")
    if padding:
        padded = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    cols = np.empty((b, c, kh, kw, h_out, w_out), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    return cols.reshape(b, c * kh * kw, h_out * w_out), h_out, w_out


def conv2d(
    x: np.ndarray,
    kernels: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation of one x (c_in, h, w) with kernels (c_out, c_in, kh, kw).

    Zero padding; no kernel flip (the deep-learning convention).
    """
    if bias is None:
        bias = np.zeros(kernels.shape[0], dtype=kernels.dtype)
    return conv2d_forward(x[None], kernels, bias, stride, padding)[0][0]


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """y = x W^T + b for a batch x of shape (b, in)."""
    if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise ShapeError(f"linear expects weight (out, in) against x (b, in): {weight.shape} vs {x.shape}")
    y = x @ weight.T + bias

    def backward(upstream, input_grad=True):
        return (upstream @ weight if input_grad else None), LinearGrads(upstream, x)

    # The bias gradient delta_i is all that is kept per example (ghost norms).
    return y, LayerTape("linear", y.shape, backward, x[:1].nbytes + bias.nbytes)


def conv2d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects (b,c,h,w) and (o,c,kh,kw), got {x.shape} and {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    cols, h_out, w_out = _im2col(x, kh, kw, stride, padding)
    y = np.matmul(kernels.reshape(c_out, -1), cols)
    y += bias[:, None]
    y = y.reshape(len(x), c_out, h_out, w_out)
    b, _, h, w = x.shape

    def backward(upstream, input_grad=True):
        up = upstream.reshape(b, c_out, h_out * w_out)
        d_k = np.matmul(up, cols.transpose(0, 2, 1)).reshape(b, *kernels.shape)
        d_b = up.sum(axis=2)
        if not input_grad:
            return None, StackedGrads(d_k, d_b)
        d_cols = np.matmul(kernels.reshape(c_out, -1).T, up)
        d_xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding), dtype=upstream.dtype)
        # Each input element receives its (i, j) terms in the same order as
        # a per-channel loop would add them, so the sums are bit-identical.
        d_cols = d_cols.reshape(b, c_in, kh, kw, h_out, w_out)
        for i in range(kh):
            for j in range(kw):
                d_xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += d_cols[:, :, i, j]
        d_x = d_xp[:, :, padding : padding + h, padding : padding + w] if padding else d_xp
        return d_x, StackedGrads(d_k, d_b)

    return y, LayerTape("conv2d", y.shape, backward, cols[:1].nbytes + kernels.nbytes + bias.nbytes)


def group_norm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    groups: int,
    eps: float = 1e-5,
):
    """Per-sample group normalization of x (b, c, h, w).

    Statistics are computed strictly within one sample and one channel
    group, so no information crosses the batch axis.
    """
    if x.ndim != 4:
        raise ShapeError(f"group_norm expects (b, c, h, w), got {x.shape}")
    b, c, h, w = x.shape
    if eps <= 0:
        raise ConfigurationError(f"group_norm eps must be positive, got {eps}")
    if c % groups != 0:
        raise ConfigurationError(f"group_norm channels {c} not divisible by groups {groups}")
    grouped = x.reshape(b, groups, -1)
    count = grouped.shape[2]
    # The operations of grouped.mean and grouped.var, with x centred once.
    mean = grouped.sum(axis=2, keepdims=True) / count
    x_hat = grouped - mean
    var = np.square(x_hat).sum(axis=2, keepdims=True) / count
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    x_hat *= inv_std
    x_hat = x_hat.reshape(b, c, h * w)
    y = x_hat * gamma[:, None]
    y += beta[:, None]

    def backward(upstream, input_grad=True):
        up = upstream.reshape(b, c, h * w)
        d_gamma = (up * x_hat).sum(axis=2)
        d_beta = up.sum(axis=2)
        if not input_grad:
            return None, StackedGrads(d_gamma, d_beta)
        gy_gamma = (up * gamma[:, None]).reshape(b, groups, -1)
        x_hat_g = x_hat.reshape(b, groups, -1)
        mean_gy = gy_gamma.sum(axis=2, keepdims=True) / count
        scaled = gy_gamma * x_hat_g
        mean_gy_xhat = scaled.sum(axis=2, keepdims=True) / count
        # inv_std * ((gy_gamma - mean_gy) - x_hat_g * mean_gy_xhat), centred once
        d_x = gy_gamma - mean_gy
        d_x -= np.multiply(x_hat_g, mean_gy_xhat, out=scaled)
        d_x *= inv_std
        return d_x.reshape(b, c, h, w), StackedGrads(d_gamma, d_beta)

    nbytes = x_hat[:1].nbytes + inv_std[:1].nbytes + gamma.nbytes + beta.nbytes
    return y.reshape(b, c, h, w), LayerTape("group_norm", (b, c, h, w), backward, nbytes)


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    mask = x > 0

    def backward(upstream, input_grad=True):
        return (upstream * mask if input_grad else None), None

    return y, LayerTape("relu", y.shape, backward, mask[:1].nbytes)


def max_pool_forward(x: np.ndarray, size: int = 2):
    """Non-overlapping max pooling over (b, c, h, w) with window size x size.

    Each output is its window's first max in window order (row by row), the
    element argmax would pick; the backward routes the upstream value to
    that element alone and gives every other element +0.0. A window holding
    NaN outputs NaN and routes no gradient (the loss is NaN by then).
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool expects (b, c, h, w), got {x.shape}")
    b, c, h, w = x.shape
    if h % size != 0 or w % size != 0:
        raise ConfigurationError(f"max_pool size {size} does not divide spatial extents {(h, w)}")
    h2, w2 = h // size, w // size
    # windows[:, :, r, i, s, j] is element (i, j) of window (r, s).
    windows = x.reshape(b, c, h2, size, w2, size)
    offsets = [(i, j) for i in range(size) for j in range(size)]
    y = windows[:, :, :, 0, :, 0].copy()
    for i, j in offsets[1:]:
        # On a tie np.maximum returns its second operand: the earlier element.
        np.maximum(windows[:, :, :, i, :, j], y, out=y)
    # first[:, k] marks the windows whose first max is element offsets[k].
    first = np.empty((b, len(offsets), c, h2, w2), dtype=bool)
    for k, (i, j) in enumerate(offsets):
        np.equal(windows[:, :, :, i, :, j], y, out=first[:, k])
    seen = first[:, 0].copy()
    for k in range(1, len(offsets)):
        np.greater(first[:, k], seen, out=first[:, k])  # a max with none before it
        seen |= first[:, k]

    def backward(upstream, input_grad=True):
        if not input_grad:
            return None, None
        # Multiplying the bits by the mask copies the upstream value exactly
        # (even -0.0) and leaves all-zero bits, +0.0, everywhere else.
        bits = f"u{upstream.itemsize}"
        d_x = np.empty((b, c, h2, size, w2, size), dtype=upstream.dtype)
        up_bits, d_bits = upstream.view(bits), d_x.view(bits)
        for k, (i, j) in enumerate(offsets):
            np.multiply(up_bits, first[:, k], out=d_bits[:, :, :, i, :, j])
        return d_x.reshape(b, c, h, w), None

    return y, LayerTape("max_pool", y.shape, backward, first[:1].nbytes)


def flatten_forward(x: np.ndarray):
    y = x.reshape(len(x), -1)
    # The backward reads only the shape, so the tape does not keep x alive.
    shape = x.shape

    def backward(upstream, input_grad=True):
        return (upstream.reshape(shape) if input_grad else None), None

    return y, LayerTape("flatten", y.shape, backward)


def backward_layer(tape: LayerTape, upstream: np.ndarray, input_grad: bool = True):
    """Reverse-mode gradients of one layer over a batch.

    Returns (d_x, grads). d_x is the gradient with respect to the layer's
    input, or None if input_grad is false (a model's first layer, whose
    input is the data). grads holds each example's parameter gradients,
    ordered like the layer's parameters (weights before biases, gamma before
    beta): LinearGrads for a linear layer, StackedGrads for the others, and
    None for a layer without parameters.
    """
    if tuple(upstream.shape) != tuple(tape.output_shape):
        raise ShapeError(
            f"backward_layer({tape.kind}): upstream shape {upstream.shape} "
            f"does not match forward output {tape.output_shape}"
        )
    return tape.backward(upstream, input_grad)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Per-example losses (float64) and d(loss)/d(logits) for a batch of
    logits (b, k) and labels (b,), log-sum-exp stabilized."""
    rows = np.arange(len(logits))
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    d_logits = exp / total
    d_logits[rows, labels] -= 1.0
    losses = (np.log(total[:, 0]) - shifted[rows, labels]).astype(np.float64)
    return losses, d_logits

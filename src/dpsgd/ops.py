"""Dense tensor ops and hand-written reverse-mode layers.

All functions are pure: they take numpy arrays, return new arrays, and are
safe to call concurrently. Layer forwards take a batch with a leading
axis and return a LayerTape; backward_layer() dispatches on the tape kind
and returns each example's parameter gradients, which never mix examples.
Arrays are row-major float32 or float64; the dtype of the input decides the
dtype of every intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ShapeError


@dataclass
class LayerTape:
    """Saved forward state for one layer's backward pass over a batch.

    `saved` holds per-example arrays, each with a leading batch axis;
    `shared` holds what every example shares (weights, stride, ...).
    `grad_nbytes` is what the backward keeps of one example's parameter
    gradients until the clip factors are known. Single-use: backward_layer
    must only run against the forward call that produced the tape.
    """

    kind: str
    input_shape: tuple
    output_shape: tuple
    saved: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)
    grad_nbytes: int = 0

    @property
    def example_nbytes(self) -> int:
        """Bytes one example holds in this tape and in its parameter gradients."""
        return sum(a.nbytes for a in self.saved.values()) // self.input_shape[0] + self.grad_nbytes


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
    """Unfold (b, c, h, w) into (b, c*kh*kw, h_out*w_out) patch matrices."""
    b, c, h, w = x.shape
    h_out = _conv_out_extent(h, kh, stride, padding, "h")
    w_out = _conv_out_extent(w, kw, stride, padding, "w")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (b, c, h_out, w_out, kh, kw) windows -> rows ordered (c, i, j), like the kernels.
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h_out * w_out)
    return cols, h_out, w_out


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
    # The bias gradient delta_i is all that is kept per example (ghost norms).
    tape = LayerTape("linear", x.shape, y.shape, {"x": x}, {"weight": weight}, bias.nbytes)
    return y, tape


def conv2d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects (b,c,h,w) and (o,c,kh,kw), got {x.shape} and {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    cols, h_out, w_out = _im2col(x, kh, kw, stride, padding)
    y = (np.matmul(kernels.reshape(c_out, -1), cols) + bias[:, None]).reshape(len(x), c_out, h_out, w_out)
    tape = LayerTape(
        "conv2d",
        x.shape,
        y.shape,
        {"cols": cols},
        {"kernels": kernels, "stride": stride, "padding": padding},
        kernels.nbytes + bias.nbytes,
    )
    return y, tape


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
    grouped = x.reshape(b, groups, (c // groups) * h * w)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    x_hat = ((grouped - mean) * inv_std).reshape(b, c, h, w)
    y = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    tape = LayerTape(
        "group_norm",
        x.shape,
        y.shape,
        {"x_hat": x_hat, "inv_std": inv_std},
        {"gamma": gamma, "groups": groups},
        gamma.nbytes + beta.nbytes,
    )
    return y, tape


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    return y, LayerTape("relu", x.shape, y.shape, {"mask": x > 0})


def max_pool_forward(x: np.ndarray, size: int = 2):
    """Non-overlapping max pooling over (b, c, h, w) with window size x size."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool expects (b, c, h, w), got {x.shape}")
    b, c, h, w = x.shape
    if h % size != 0 or w % size != 0:
        raise ConfigurationError(f"max_pool size {size} does not divide spatial extents {(h, w)}")
    h2, w2 = h // size, w // size
    windows = (
        x.reshape(b, c, h2, size, w2, size).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, size * size)
    )
    argmax = windows.argmax(axis=4)
    y = np.take_along_axis(windows, argmax[..., None], axis=4)[..., 0]
    tape = LayerTape("max_pool", x.shape, y.shape, {"argmax": argmax}, {"size": size})
    return y, tape


def flatten_forward(x: np.ndarray):
    y = x.reshape(len(x), -1)
    return y, LayerTape("flatten", x.shape, y.shape)


def backward_layer(tape: LayerTape, upstream: np.ndarray):
    """Reverse-mode gradients of one layer over a batch.

    Returns (input_grad, grads). grads holds each example's parameter
    gradients, ordered like the layer's parameters (weights before biases,
    gamma before beta): LinearGrads for a linear layer, StackedGrads for the
    others, and None for a layer without parameters.
    """
    if tuple(upstream.shape) != tuple(tape.output_shape):
        raise ShapeError(
            f"backward_layer({tape.kind}): upstream shape {upstream.shape} "
            f"does not match forward output {tape.output_shape}"
        )
    saved, shared = tape.saved, tape.shared
    if tape.kind == "linear":
        return upstream @ shared["weight"], LinearGrads(upstream, saved["x"])
    if tape.kind == "conv2d":
        cols = saved["cols"]
        kernels = shared["kernels"]
        stride, padding = shared["stride"], shared["padding"]
        c_out, c_in, kh, kw = kernels.shape
        b, _, h_out, w_out = tape.output_shape
        up = upstream.reshape(b, c_out, h_out * w_out)
        d_k = np.matmul(up, cols.transpose(0, 2, 1)).reshape(b, *kernels.shape)
        d_b = up.sum(axis=2)
        d_cols = np.matmul(kernels.reshape(c_out, -1).T, up)
        _, _, h, w = tape.input_shape
        d_xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding), dtype=upstream.dtype)
        # Each input element receives its (i, j) terms in the same order as
        # a per-channel loop would add them, so the sums are bit-identical.
        d_cols = d_cols.reshape(b, c_in, kh, kw, h_out, w_out)
        for i in range(kh):
            for j in range(kw):
                d_xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += d_cols[:, :, i, j]
        d_x = d_xp[:, :, padding : padding + h, padding : padding + w] if padding else d_xp
        return d_x, StackedGrads(d_k, d_b)
    if tape.kind == "group_norm":
        x_hat, inv_std = saved["x_hat"], saved["inv_std"]
        gamma, groups = shared["gamma"], shared["groups"]
        b, c, h, w = x_hat.shape
        d_gamma = (upstream * x_hat).sum(axis=(2, 3))
        d_beta = upstream.sum(axis=(2, 3))
        gy_gamma = (upstream * gamma[None, :, None, None]).reshape(b, groups, -1)
        x_hat_g = x_hat.reshape(b, groups, -1)
        mean_gy = gy_gamma.mean(axis=2, keepdims=True)
        mean_gy_xhat = (gy_gamma * x_hat_g).mean(axis=2, keepdims=True)
        d_x = (inv_std * (gy_gamma - mean_gy - x_hat_g * mean_gy_xhat)).reshape(b, c, h, w)
        return d_x, StackedGrads(d_gamma, d_beta)
    if tape.kind == "relu":
        return upstream * saved["mask"], None
    if tape.kind == "max_pool":
        argmax, size = saved["argmax"], shared["size"]
        b, c, h2, w2 = tape.output_shape
        windows = np.zeros((b, c, h2, w2, size * size), dtype=upstream.dtype)
        np.put_along_axis(windows, argmax[..., None], upstream[..., None], axis=4)
        d_x = windows.reshape(b, c, h2, w2, size, size).transpose(0, 1, 2, 4, 3, 5).reshape(tape.input_shape)
        return d_x, None
    if tape.kind == "flatten":
        return upstream.reshape(tape.input_shape), None
    raise ShapeError(f"unknown layer kind in tape: {tape.kind!r}")


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

"""Dense tensor ops and hand-written reverse-mode layers.

All functions are pure: they take numpy arrays, return new arrays, and are
safe to call concurrently. Forward passes that need a backward return a
LayerTape; backward_layer() dispatches on the tape kind. Arrays are
row-major float32 or float64; the dtype of the input decides the dtype of
every intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ShapeError


@dataclass
class LayerTape:
    """Saved forward state for one layer's backward pass.

    Single-use: backward_layer must only run against the forward call that
    produced the tape.
    """

    kind: str
    input_shape: tuple
    output_shape: tuple
    saved: dict = field(default_factory=dict)


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
    """Unfold (c, h, w) into a (c*kh*kw, h_out*w_out) patch matrix."""
    c, h, w = x.shape
    h_out = _conv_out_extent(h, kh, stride, padding, "h")
    w_out = _conv_out_extent(w, kw, stride, padding, "w")
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    # (c, h_out, w_out, kh, kw) windows -> rows ordered (c, i, j), like the kernels.
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h_out * w_out)
    return cols, h_out, w_out


def conv2d(
    x: np.ndarray,
    kernels: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation of x (c_in, h, w) with kernels (c_out, c_in, kh, kw).

    Zero padding; no kernel flip (the deep-learning convention).
    """
    if bias is None:
        bias = np.zeros(kernels.shape[0], dtype=kernels.dtype)
    return conv2d_forward(x, kernels, bias, stride, padding)[0]


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """y = W x + b for a single example vector x of shape (in,)."""
    if x.ndim != 1 or weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ShapeError(f"linear expects weight (out, in) against x (in,): {weight.shape} vs {x.shape}")
    y = weight @ x + bias
    tape = LayerTape("linear", x.shape, y.shape, {"x": x, "weight": weight})
    return y, tape


def conv2d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    if x.ndim != 3 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects (c,h,w) and (o,c,kh,kw), got {x.shape} and {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if x.shape[0] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    cols, h_out, w_out = _im2col(x, kh, kw, stride, padding)
    y = (np.matmul(kernels.reshape(c_out, -1), cols) + bias[:, None]).reshape(c_out, h_out, w_out)
    tape = LayerTape(
        "conv2d",
        x.shape,
        y.shape,
        {"cols": cols, "kernels": kernels, "stride": stride, "padding": padding},
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
        {"x_hat": x_hat, "inv_std": inv_std, "gamma": gamma, "groups": groups},
    )
    return y, tape


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    return y, LayerTape("relu", x.shape, y.shape, {"mask": x > 0})


def max_pool_forward(x: np.ndarray, size: int = 2):
    """Non-overlapping max pooling over (c, h, w) with window size x size."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool expects (c, h, w), got {x.shape}")
    c, h, w = x.shape
    if h % size != 0 or w % size != 0:
        raise ConfigurationError(f"max_pool size {size} does not divide spatial extents {(h, w)}")
    h2, w2 = h // size, w // size
    windows = x.reshape(c, h2, size, w2, size).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, size * size)
    argmax = windows.argmax(axis=3)
    y = np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]
    tape = LayerTape("max_pool", x.shape, y.shape, {"argmax": argmax, "size": size})
    return y, tape


def flatten_forward(x: np.ndarray):
    y = x.reshape(-1)
    return y, LayerTape("flatten", x.shape, y.shape)


def backward_layer(tape: LayerTape, upstream: np.ndarray):
    """Reverse-mode gradients of one layer.

    Returns (input_grad, param_grads) where param_grads is ordered exactly
    like the layer's parameters (weights before biases, gamma before beta).
    """
    if tuple(upstream.shape) != tuple(tape.output_shape):
        raise ShapeError(
            f"backward_layer({tape.kind}): upstream shape {upstream.shape} "
            f"does not match forward output {tape.output_shape}"
        )
    if tape.kind == "linear":
        x, weight = tape.saved["x"], tape.saved["weight"]
        d_x = weight.T @ upstream
        d_w = np.outer(upstream, x)
        return d_x, [d_w, upstream.copy()]
    if tape.kind == "conv2d":
        cols = tape.saved["cols"]
        kernels = tape.saved["kernels"]
        stride, padding = tape.saved["stride"], tape.saved["padding"]
        c_out, c_in, kh, kw = kernels.shape
        h_out, w_out = tape.output_shape[1], tape.output_shape[2]
        up = upstream.reshape(c_out, h_out * w_out)
        d_k = np.matmul(up, cols.T).reshape(kernels.shape)
        d_b = up.sum(axis=1)
        d_cols = np.matmul(kernels.reshape(c_out, -1).T, up)
        _, h, w = tape.input_shape
        d_xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding), dtype=upstream.dtype)
        # Each input element receives its (i, j) terms in the same order as
        # a per-channel loop would add them, so the sums are bit-identical.
        d_cols = d_cols.reshape(c_in, kh, kw, h_out, w_out)
        for i in range(kh):
            for j in range(kw):
                d_xp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += d_cols[:, i, j]
        d_x = d_xp[:, padding : padding + h, padding : padding + w] if padding else d_xp
        return d_x, [d_k, d_b]
    if tape.kind == "group_norm":
        x_hat = tape.saved["x_hat"]
        inv_std = tape.saved["inv_std"]
        gamma = tape.saved["gamma"]
        groups = tape.saved["groups"]
        b, c, h, w = x_hat.shape
        d_gamma = (upstream * x_hat).sum(axis=(0, 2, 3))
        d_beta = upstream.sum(axis=(0, 2, 3))
        gy_gamma = (upstream * gamma[None, :, None, None]).reshape(b, groups, -1)
        x_hat_g = x_hat.reshape(b, groups, -1)
        mean_gy = gy_gamma.mean(axis=2, keepdims=True)
        mean_gy_xhat = (gy_gamma * x_hat_g).mean(axis=2, keepdims=True)
        d_x = (inv_std * (gy_gamma - mean_gy - x_hat_g * mean_gy_xhat)).reshape(b, c, h, w)
        return d_x, [d_gamma, d_beta]
    if tape.kind == "relu":
        return upstream * tape.saved["mask"], []
    if tape.kind == "max_pool":
        argmax, size = tape.saved["argmax"], tape.saved["size"]
        c, h2, w2 = tape.output_shape
        windows = np.zeros((c, h2, w2, size * size), dtype=upstream.dtype)
        np.put_along_axis(windows, argmax[..., None], upstream[..., None], axis=3)
        d_x = windows.reshape(c, h2, w2, size, size).transpose(0, 1, 3, 2, 4).reshape(tape.input_shape)
        return d_x, []
    if tape.kind == "flatten":
        return upstream.reshape(tape.input_shape), []
    raise ShapeError(f"unknown layer kind in tape: {tape.kind!r}")


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """Loss and d(loss)/d(logits) for one example, log-sum-exp stabilized."""
    shift = logits.max()
    exp = np.exp(logits - shift)
    total = exp.sum()
    loss = float(np.log(total) + shift - logits[label])
    d_logits = exp / total
    d_logits[label] -= 1.0
    return loss, d_logits.astype(logits.dtype)

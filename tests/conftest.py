"""Shared independent oracles and small model specs for the test suite.

The oracles stay deliberately naive (loops, direct statistics, central
differences) so they cannot share a bug with the implementation paths
they check.
"""

import numpy as np

from dpsgd import models


def tiny_cnn_spec():
    """Small enough for finite differences, still conv + group_norm + pool."""
    layers = (
        models.LayerSpec("conv2d", out_channels=4, kernel=3, stride=1, padding=1),
        models.LayerSpec("group_norm", groups=2),
        models.LayerSpec("relu"),
        models.LayerSpec("max_pool", size=2),
        models.LayerSpec("flatten"),
        models.LayerSpec("linear", out_features=3),
    )
    return models.ModelSpec(layers, (2, 4, 4), 3)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def conv2d_oracle(x, kernels, stride=1, padding=0, bias=None):
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, padding : padding + h, padding : padding + w] = x
    out = np.zeros((c_out, h_out, w_out), dtype=np.float64)
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += float(xp[c, i * stride + di, j * stride + dj]) * float(
                                kernels[o, c, di, dj]
                            )
                out[o, i, j] = acc + (float(bias[o]) if bias is not None else 0.0)
    return out


def group_norm_oracle(x, gamma, beta, groups, eps=1e-5):
    b, c, h, w = x.shape
    per = c // groups
    out = np.zeros_like(x, dtype=np.float64)
    for bi in range(b):
        for g in range(groups):
            block = x[bi, g * per : (g + 1) * per].astype(np.float64)
            mean = block.mean()
            var = block.var()
            norm = (block - mean) / np.sqrt(var + eps)
            for ci in range(per):
                channel = g * per + ci
                out[bi, channel] = gamma[channel] * norm[ci] + beta[channel]
    return out


def finite_difference_gradient(loss_of_flat, flat, step=1e-5):
    """Central differences of a scalar function of the flat parameter vector."""
    grad = np.zeros_like(flat, dtype=np.float64)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        up = loss_of_flat()
        flat[i] = saved - step
        down = loss_of_flat()
        flat[i] = saved
        grad[i] = (up - down) / (2 * step)
    return grad


def max_relative_error(analytic, reference, floor=1e-8):
    denom = np.maximum(np.abs(reference), floor)
    return float(np.max(np.abs(analytic - reference) / denom))

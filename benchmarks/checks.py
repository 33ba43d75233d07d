"""Correctness checks on what the program wrote, computed apart from it.

Nothing here imports dpsgd. Each check returns a list of failure messages
(empty when it passes), so a caller can charge each failure to the
operation that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import mpmath
import numpy as np

from workloads import CLASSES, CNN_CHANNELS, CNN_GROUPS, MLP_HIDDEN, MLP_INPUT, param_count

ORDERS = tuple(range(2, 65)) + (128, 256, 512)
# The clip decision tolerates 32 ulp of f32; the CSV prints nine digits.
CLIP_SLACK = 32 * float(np.finfo(np.float32).eps) + 1e-8
# Noise ratio may sit this many chi-square standard errors away from 1.
NOISE_SIGMAS = 5.0
EPSILON_RTOL = 1e-6
GRADIENT_RTOL = 1e-5
GRADIENT_STEPS = (1e-5, 1e-6, 1e-7, 1e-8)


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_clip(rows, batch: int, clip: float) -> list[str]:
    """Every step's summed clipped gradient has norm at most B * C."""
    bound = batch * clip * (1.0 + CLIP_SLACK)
    return [
        f"step {row['step']}: grad_norm {row['grad_norm']} exceeds B*C = {batch * clip:g}"
        for row in rows
        if not float(row["grad_norm"]) <= bound
    ]


def check_noise(noise_norms, sigma: float, clip: float, dim: int) -> list[str]:
    """sum ||noise||^2 / (steps sigma^2 C^2 d) lies within a few chi-square standard errors of 1."""
    norms = np.asarray(noise_norms, dtype=np.float64)
    ratio = float(np.sum(norms**2) / (norms.size * sigma**2 * clip**2 * dim))
    stderr = math.sqrt(2.0 / (dim * norms.size))
    if abs(ratio - 1.0) <= NOISE_SIGMAS * stderr:
        return []
    return [f"noise variance ratio {ratio:.6f} is more than {NOISE_SIGMAS:g} x {stderr:.2e} from 1"]


def mp_epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """Subsampled-Gaussian RDP summed in mpmath, composed and converted like the README says."""
    if steps == 0:
        return 0.0
    with mpmath.workdps(40):
        q_mp, pair = mpmath.mpf(q), 1 / (2 * mpmath.mpf(sigma) ** 2)
        log_inv_delta = mpmath.log(1 / mpmath.mpf(delta))
        best = None
        for alpha in ORDERS:
            if q == 1.0:
                rdp = alpha * pair
            else:
                total = mpmath.fsum(
                    math.comb(alpha, k) * (1 - q_mp) ** (alpha - k) * q_mp**k * mpmath.exp(k * (k - 1) * pair)
                    for k in range(alpha + 1)
                )
                rdp = mpmath.log(total) / (alpha - 1)
            candidate = steps * rdp + log_inv_delta / (alpha - 1)
            best = candidate if best is None else min(best, candidate)
        return max(float(best), 0.0)


def check_epsilon(reported: float, expected: float, what: str) -> list[str]:
    if abs(reported - expected) <= EPSILON_RTOL * max(abs(expected), 1e-3):
        return []
    return [f"{what}: epsilon {reported!r} differs from the mpmath value {expected!r}"]


def check_account_row(row: str, n: int, batch: int, epochs: int) -> list[str]:
    """q = B/N and T = epochs * floor(N/B) on the printed `q,T,epsilon,best_order` row."""
    fields = row.strip().split(",")
    if len(fields) != 4:
        return [f"account row {row.strip()!r} does not have four fields"]
    failures = []
    if abs(float(fields[0]) - batch / n) > 1e-8 * batch / n:
        failures.append(f"q {fields[0]} is not {batch}/{n}")
    if int(fields[1]) != epochs * (n // batch):
        failures.append(f"T {fields[1]} is not {epochs}*floor({n}/{batch})")
    return failures


# ---- gradient: a forward pass written here, differentiated numerically ----


def _take(flat, cursor, shape):
    size = int(np.prod(shape))
    return flat[cursor : cursor + size].reshape(shape), cursor + size


def _group_norm(x, gamma, beta, groups, eps=1e-5):
    grouped = x.reshape(groups, -1)
    normed = (grouped - grouped.mean(axis=1, keepdims=True)) / np.sqrt(grouped.var(axis=1, keepdims=True) + eps)
    return gamma[:, None, None] * normed.reshape(x.shape) + beta[:, None, None]


def _conv3x3(x, weight, bias):
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    return np.einsum("chwij,ocij->ohw", windows, weight) + bias[:, None, None]


def model_loss(kind: str, flat: np.ndarray, example: np.ndarray, label: int) -> float:
    """Cross-entropy of one example, with parameters laid out as the README's flat vector."""
    cursor = 0
    x = np.asarray(example, dtype=np.float64)
    if kind == "mlp":
        widths = MLP_HIDDEN + (CLASSES,)
        for i, out in enumerate(widths):
            w, cursor = _take(flat, cursor, (out, x.size))
            b, cursor = _take(flat, cursor, (out,))
            x = w @ x + b
            if i < len(widths) - 1:
                x = np.maximum(x, 0.0)
    else:
        for i, ch in enumerate(CNN_CHANNELS):
            w, cursor = _take(flat, cursor, (ch, x.shape[0], 3, 3))
            b, cursor = _take(flat, cursor, (ch,))
            gamma, cursor = _take(flat, cursor, (ch,))
            beta, cursor = _take(flat, cursor, (ch,))
            x = np.maximum(_group_norm(_conv3x3(x, w, b), gamma, beta, min(CNN_GROUPS, ch)), 0.0)
            if i in (1, len(CNN_CHANNELS) - 1):
                c, h, wd = x.shape
                x = x.reshape(c, h // 2, 2, wd // 2, 2).max(axis=(2, 4))
        x = x.reshape(-1)
        w, cursor = _take(flat, cursor, (CLASSES, x.size))
        b, cursor = _take(flat, cursor, (CLASSES,))
        x = w @ x + b
    if cursor != flat.size:
        raise ValueError(f"layout uses {cursor} of {flat.size} parameters")
    shift = x.max()
    return float(np.log(np.exp(x - shift).sum()) + shift - x[label])


def check_gradient(kind: str, params, example, label: int, loss: float, grad, seed: int) -> list[str]:
    """Central-difference directional derivative against the program's gradient.

    The direction mixes the program's own gradient with a random unit
    vector, so a wrong scale, sign or direction all show. ReLU and max-pool
    kinks make a difference quotient wrong when a step crosses one, so the
    check passes if any of several step sizes agrees; a wrong gradient
    disagrees at every step size.
    """
    failures = []
    own_loss = model_loss(kind, params, example, label)
    if abs(own_loss - loss) > 1e-9 * max(1.0, abs(own_loss)):
        failures.append(f"loss {loss!r} differs from the independent forward pass {own_loss!r}")
    rng = np.random.default_rng([seed, 77])
    noise = rng.standard_normal(params.size)
    direction = grad / max(np.linalg.norm(grad), 1e-300) + noise / np.linalg.norm(noise)
    direction /= np.linalg.norm(direction)
    analytic = float(grad @ direction)
    numeric = []
    for h in GRADIENT_STEPS:
        numeric.append((model_loss(kind, params + h * direction, example, label)
                        - model_loss(kind, params - h * direction, example, label)) / (2 * h))
        if abs(numeric[-1] - analytic) <= GRADIENT_RTOL * max(abs(numeric[-1]), 1e-6):
            return failures
    failures.append(f"directional derivative {analytic!r} vs central differences {numeric!r}")
    return failures


# ---- self-test: each check must reject an input made wrong on purpose ----


def _f64_epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """The same RDP sum in float64 log space, as a cross-check of mp_epsilon."""
    best = math.inf
    for a in ORDERS:
        logs = [math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1) + (a - k) * math.log1p(-q)
                + k * math.log(q) + k * (k - 1) / (2 * sigma**2) for k in range(a + 1)]
        peak = max(logs)
        rdp = (peak + math.log(sum(math.exp(x - peak) for x in logs))) / (a - 1)
        best = min(best, steps * rdp + math.log(1 / delta) / (a - 1))
    return max(best, 0.0)


def self_test() -> int:
    rng = np.random.default_rng(2024)
    outcomes = []

    def expect(label, failures, should_fail):
        ok = bool(failures) == should_fail
        outcomes.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if failures else 'accepted'}")

    dim = param_count("mlp")
    norms = np.sqrt(rng.chisquare(dim, size=300))
    expect("noise at scale 1 over 300 steps", check_noise(norms, 1.0, 1.0, dim), False)
    expect("noise scaled by 1.05 over 300 steps", check_noise(1.05 * norms, 1.0, 1.0, dim), True)

    rows = [{"step": str(i), "grad_norm": repr(float(x))} for i, x in enumerate(rng.uniform(0, 32.0, size=50))]
    expect("grad norms within B*C", check_clip(rows, 32, 1.0), False)
    expect("grad norm above B*C", check_clip(rows + [{"step": "50", "grad_norm": "32.05"}], 32, 1.0), True)

    sigma, delta = 1.3, 1e-5
    closed = min(40 * a / (2 * sigma**2) + math.log(1 / delta) / (a - 1) for a in ORDERS)
    expect("epsilon at q = 1 against the closed form", check_epsilon(closed, mp_epsilon(1.0, sigma, 40, delta), "q=1"), False)
    exact = mp_epsilon(512 / 50000, sigma, 300, delta)
    expect("epsilon at q < 1 against a float64 sum", check_epsilon(_f64_epsilon(512 / 50000, sigma, 300, delta), exact, "q<1"), False)
    expect("epsilon off by 1e-3", check_epsilon(exact + 1e-3, exact, "q<1"), True)

    params = rng.standard_normal(dim) * 0.2
    example, label, h = rng.standard_normal(MLP_INPUT), 3, 1e-6
    grad = np.array([(model_loss("mlp", params + h * e, example, label) - model_loss("mlp", params - h * e, example, label)) / (2 * h)
                     for e in np.eye(dim)])
    loss = model_loss("mlp", params, example, label)
    expect("central-difference gradient", check_gradient("mlp", params, example, label, loss, grad, 1), False)
    expect("gradient with its sign flipped", check_gradient("mlp", params, example, label, loss, -grad, 1), True)
    print(f"self-test: {sum(outcomes)}/{len(outcomes)} as expected")
    return 0 if all(outcomes) else 1

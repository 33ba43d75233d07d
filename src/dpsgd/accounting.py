"""Renyi-DP accounting for the subsampled Gaussian mechanism.

Per-step Renyi divergences at a grid of integer orders are composed
linearly over steps and converted to an (epsilon, delta) guarantee. The
sampling ratio q = |B| / N treats the shuffled fixed-size batches of the
training loop as if they were independent subsamples; that approximation
is standard for this style of accountant and is documented in the README
rather than corrected here.

sigma is the noise multiplier relative to the clipping norm: the noise
standard deviation on the batch-summed gradient is sigma * C.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccountingError, ConfigurationError

# Integer orders 2..64 plus a sparse tail; covers the regimes where the
# conversion minimum lands for desk-scale runs.
DEFAULT_ORDERS = tuple(range(2, 65)) + (128, 256, 512)


@dataclass
class RdpCurve:
    """Accumulated Renyi divergence per order; grows only by composition."""

    orders: tuple
    values: np.ndarray

    @classmethod
    def zeros(cls, orders=DEFAULT_ORDERS) -> "RdpCurve":
        return cls(tuple(orders), np.zeros(len(orders)))


def _order(alpha) -> int:
    """alpha as an int; an order must be an integer >= 2 (numpy integers included)."""
    try:
        order = operator.index(alpha)
    except TypeError:
        order = 0
    if order < 2:
        raise ConfigurationError(f"order must be an integer >= 2, got {alpha}")
    return order


class _Expansion(NamedTuple):
    """Every order's terms k = 0..alpha, concatenated in order."""

    k: np.ndarray
    alpha_minus_k: np.ndarray
    k_pairs: np.ndarray  # k (k - 1)
    log_binomial: np.ndarray  # lgamma(alpha + 1) - lgamma(k + 1) - lgamma(alpha - k + 1)
    starts: np.ndarray  # offset of each order's first term
    lengths: np.ndarray  # alpha + 1 terms per order
    bounds: tuple  # (start, stop) of each order's terms


@functools.lru_cache(maxsize=32)
def _expansion(orders: tuple) -> _Expansion:
    """Index arrays for an order tuple, built once and shared read-only between calls."""
    lengths = np.array(orders, dtype=np.intp) + 1
    starts = np.cumsum(lengths) - lengths
    alpha = np.repeat(lengths - 1, lengths)
    k = np.arange(lengths.sum()) - np.repeat(starts, lengths)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(max(orders, default=0) + 1)])
    expansion = _Expansion(
        k.astype(float),
        (alpha - k).astype(float),
        (k * (k - 1)).astype(float),
        log_factorial[alpha] - log_factorial[k] - log_factorial[alpha - k],
        starts,
        lengths,
        tuple(zip(starts.tolist(), (starts + lengths).tolist())),
    )
    for array in expansion[:-1]:
        array.setflags(write=False)
    return expansion


def _overflow(q, sigma, alpha) -> AccountingError:
    return AccountingError(
        f"subsampled Gaussian divergence overflowed at q={q}, sigma={sigma}, alpha={alpha}"
    )


def per_step_curve(q: float, sigma: float, orders=DEFAULT_ORDERS) -> RdpCurve:
    """Renyi divergence of one subsampled Gaussian step at every order.

    For q < 1 each order alpha evaluates, in log space,

        (1 / (alpha - 1)) * log( sum_{k=0..alpha} binom(alpha, k)
            * (1 - q)^(alpha - k) * q^k * exp(k (k - 1) / (2 sigma^2)) )

    and for q = 1 it is the plain Gaussian value alpha / (2 sigma^2).
    The terms of all orders are computed in one float64 array pass, with the
    same operands in the same order as a per-term scalar loop, so the values
    are bitwise those of that loop (kept in the tests as the reference).
    """
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"sampling ratio must satisfy 0 < q <= 1, got {q}")
    if not sigma > 0.0:
        raise ConfigurationError(f"noise multiplier must be positive for accounting, got {sigma}")
    orders = tuple(map(_order, orders))
    terms = _expansion(orders)
    pair_exponent = 1.0 / (2.0 * sigma * sigma) if sigma * sigma > 0.0 else math.inf
    overflowed = [alpha for alpha in orders if not math.isfinite(pair_exponent * alpha * alpha)]
    if overflowed:
        raise _overflow(q, sigma, overflowed[0])
    if q == 1.0:
        values = np.array(orders, dtype=float) * pair_exponent
    else:
        log_terms = (
            terms.log_binomial
            + terms.alpha_minus_k * math.log1p(-q)
            + terms.k * math.log(q)
            + terms.k_pairs * pair_exponent
        )
        # Per-order peaks and one exp; each order then sums its own slice, so
        # the pairwise blocking of .sum() matches a standalone per-order array.
        peaks = np.maximum.reduceat(log_terms, terms.starts)
        scaled = np.exp(log_terms - np.repeat(peaks, terms.lengths))
        values = np.array([
            (peak + math.log(scaled[start:stop].sum())) / (alpha - 1)
            for peak, (start, stop), alpha in zip(peaks.tolist(), terms.bounds, orders)
        ])
    finite = np.isfinite(values)
    if not finite.all():
        raise _overflow(q, sigma, orders[int(np.argmin(finite))])
    return RdpCurve(orders, values)


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: int) -> float:
    """Renyi divergence of order alpha for one subsampled Gaussian step.

    The one-order case of per_step_curve, which gives the formula.
    """
    return float(per_step_curve(q, sigma, (alpha,)).values[0])


def compose(curve: RdpCurve, per_step: RdpCurve, steps: int) -> RdpCurve:
    """Linear composition: steps repetitions of per_step added onto curve."""
    if curve.orders != per_step.orders:
        raise ConfigurationError(
            f"order grids differ: {curve.orders[:3]}... vs {per_step.orders[:3]}..."
        )
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    return RdpCurve(curve.orders, curve.values + steps * per_step.values)


@functools.lru_cache(maxsize=32)
def _conversion_penalties(orders: tuple, delta: float) -> np.ndarray:
    """log(1 / delta) / (order - 1) per order, built once and shared read-only."""
    penalties = math.log(1.0 / delta) / (np.asarray(orders, dtype=float) - 1.0)
    penalties.setflags(write=False)
    return penalties


def to_epsilon(curve: RdpCurve, delta: float):
    """Best (epsilon, order) over the grid for the given delta.

    epsilon = min over orders of rdp(order) + log(1 / delta) / (order - 1),
    clamped at zero.
    """
    if not curve.orders:
        raise ConfigurationError("order grid is empty")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    candidates = curve.values + _conversion_penalties(tuple(curve.orders), delta)
    best = int(np.argmin(candidates))
    return max(float(candidates[best]), 0.0), curve.orders[best]


def epsilon_after(step_curve: RdpCurve, steps: int, delta: float):
    """(epsilon, order) after steps compositions of step_curve. Training and the
    account query both price a step count here, so epsilon depends on the count alone."""
    return to_epsilon(compose(RdpCurve.zeros(step_curve.orders), step_curve, steps), delta)


@dataclass(frozen=True)
class EpsilonReport:
    epsilon: float
    best_order: int | None
    sampling_ratio: float
    steps: int


def epsilon_for_training(
    dataset_size: int,
    effective_batch: int,
    sigma: float,
    epochs: int,
    delta: float,
    orders=DEFAULT_ORDERS,
) -> EpsilonReport:
    """Epsilon after a fixed-epoch run with shuffled fixed-size batches.

    Zero steps cost nothing; sigma = 0 provides no guarantee at all and
    reports epsilon = inf.
    """
    if not 1 <= effective_batch <= dataset_size:
        raise ConfigurationError(f"effective batch {effective_batch} must lie in [1, {dataset_size}]")
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    steps = epochs * (dataset_size // effective_batch)
    ratio = effective_batch / dataset_size
    if steps == 0:
        return EpsilonReport(0.0, None, ratio, 0)
    if sigma == 0.0:
        return EpsilonReport(float("inf"), None, ratio, steps)
    epsilon, best_order = epsilon_after(per_step_curve(ratio, sigma, orders), steps, delta)
    return EpsilonReport(epsilon, best_order, ratio, steps)

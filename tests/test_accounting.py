import importlib.util
import itertools
import math
import re
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from dpsgd import accounting
from dpsgd.accounting import RdpCurve
from dpsgd.errors import AccountingError, ConfigurationError


def _benchmark_workloads():
    """The benchmark's workload module, for its account_grid query generator."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


def rdp_binomial_oracle(q, sigma, alpha, dps=60):
    """Direct arbitrary-precision evaluation of the order-alpha divergence."""
    with mp.workdps(dps):
        q_, s_ = mp.mpf(q), mp.mpf(sigma)
        total = mp.mpf(0)
        for k in range(alpha + 1):
            total += (
                mp.binomial(alpha, k)
                * (1 - q_) ** (alpha - k)
                * q_**k
                * mp.e ** (mp.mpf(k * (k - 1)) / (2 * s_**2))
            )
        return float(mp.log(total) / (alpha - 1))


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def rdp_loop_reference(q, sigma, alpha):
    """The scalar per-term loop that per_step_curve's array pass must equal bitwise."""
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"sampling ratio must satisfy 0 < q <= 1, got {q}")
    if not sigma > 0.0:
        raise ConfigurationError(f"noise multiplier must be positive for accounting, got {sigma}")
    alpha = int(alpha)
    if alpha < 2:
        raise ConfigurationError(f"order must be an integer >= 2, got {alpha}")
    pair_exponent = 1.0 / (2.0 * sigma * sigma) if sigma * sigma > 0.0 else math.inf
    if not math.isfinite(pair_exponent) or not math.isfinite(pair_exponent * alpha * alpha):
        raise AccountingError(
            f"subsampled Gaussian divergence overflowed at q={q}, sigma={sigma}, alpha={alpha}"
        )
    if q == 1.0:
        return alpha * pair_exponent
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    log_terms = np.array([
        _log_binomial(alpha, k)
        + (alpha - k) * log_1mq
        + k * log_q
        + k * (k - 1) * pair_exponent
        for k in range(alpha + 1)
    ])
    peak = log_terms.max()
    log_sum = peak + math.log(np.exp(log_terms - peak).sum())
    value = log_sum / (alpha - 1)
    if not math.isfinite(value):
        raise AccountingError(
            f"subsampled Gaussian divergence overflowed at q={q}, sigma={sigma}, alpha={alpha}"
        )
    return value


def loop_curve(q, sigma, orders):
    return np.array([rdp_loop_reference(q, sigma, a) for a in orders])


class TestArrayPassMatchesLoop:
    ORDER_SETS = [accounting.DEFAULT_ORDERS, (17,), (2, 3, 10, 64, 200)]

    def test_account_grid_queries_bitwise(self):
        queries = _benchmark_workloads().account_queries
        pairs = {
            (batch / n, float(f"{sigma:.3f}"))
            for seed in (1, 2)
            for n, batch, sigma, _ in queries(seed, 600)
        }
        assert len(pairs) > 1000
        for q, sigma in sorted(pairs):
            got = accounting.per_step_curve(q, sigma).values
            assert np.array_equal(got, loop_curve(q, sigma, accounting.DEFAULT_ORDERS)), (q, sigma)

    @pytest.mark.parametrize("orders", ORDER_SETS, ids=["default", "single", "custom"])
    def test_q_sigma_grid_bitwise(self, orders):
        for q, sigma in itertools.product((1e-6, 1e-3, 0.5, 0.999, 1.0), (0.3, 0.6, 3.0, 10.0)):
            curve = accounting.per_step_curve(q, sigma, orders)
            assert curve.orders == tuple(orders)
            assert np.array_equal(curve.values, loop_curve(q, sigma, orders)), (q, sigma)
            for alpha, value in zip(orders, curve.values):
                assert accounting.rdp_subsampled_gaussian(q, sigma, alpha) == value

    @pytest.mark.parametrize(
        "q, sigma, orders",
        [
            (0.0, 1.0, (2, 3)),
            (1.1, 1.0, (2, 3)),
            (-0.5, 1.0, (2,)),
            (0.5, 0.0, (2, 3)),
            (0.5, -1.0, (2,)),
            (0.5, 1.0, (1,)),
            (0.5, 1.0, (4, 0)),
            (0.5, 1e-300, accounting.DEFAULT_ORDERS),
            (1.0, 1e-300, (64,)),
            (0.5, 1e-154, (2, 512)),
        ],
    )
    def test_errors_match_the_loop(self, q, sigma, orders):
        with pytest.raises((ConfigurationError, AccountingError)) as want:
            loop_curve(q, sigma, orders)
        with pytest.raises(want.type, match="^" + re.escape(str(want.value)) + "$"):
            accounting.per_step_curve(q, sigma, orders)
        with pytest.raises(want.type):
            accounting.rdp_subsampled_gaussian(q, sigma, orders[-1])


class TestOrders:
    @pytest.mark.parametrize("bad", [2.5, 2.9, 3.0, "4", None])
    def test_non_integer_order_rejected(self, bad):
        with pytest.raises(ConfigurationError, match=f"got {bad}"):
            accounting.per_step_curve(0.01, 1.0, orders=(2, bad))
        with pytest.raises(ConfigurationError, match=f"got {bad}"):
            accounting.rdp_subsampled_gaussian(0.01, 1.0, bad)

    def test_numpy_integers_accepted(self):
        ints = accounting.per_step_curve(0.01, 1.0, orders=(2, 5, 64))
        numpy_ints = accounting.per_step_curve(0.01, 1.0, orders=np.array([2, 5, 64]))
        assert numpy_ints.orders == ints.orders
        assert np.array_equal(numpy_ints.values, ints.values)
        assert accounting.rdp_subsampled_gaussian(0.01, 1.0, np.int32(5)) == ints.values[1]


class TestRdpSubsampledGaussian:
    def test_full_sampling_is_gaussian_closed_form(self):
        assert accounting.rdp_subsampled_gaussian(1.0, 1.0, 2) == pytest.approx(1.0, abs=1e-12)
        for sigma in (0.5, 1.0, 2.0):
            for alpha in (2, 3, 8, 64):
                want = alpha / (2 * sigma * sigma)
                got = accounting.rdp_subsampled_gaussian(1.0, sigma, alpha)
                assert got == pytest.approx(want, abs=1e-12 * max(want, 1.0))

    def test_vanishing_sampling_ratio_vanishes(self):
        values = [accounting.rdp_subsampled_gaussian(q, 1.0, 8) for q in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-9

    def test_matches_high_precision_oracle(self):
        got = accounting.rdp_subsampled_gaussian(0.01, 1.0, 16)
        want = rdp_binomial_oracle(0.01, 1.0, 16)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("q", [0.001, 0.01, 0.1])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_oracle_grid(self, q, sigma):
        for alpha in (2, 3, 5, 16, 33, 64):
            got = accounting.rdp_subsampled_gaussian(q, sigma, alpha)
            want = rdp_binomial_oracle(q, sigma, alpha)
            assert got == pytest.approx(want, rel=1e-9), (q, sigma, alpha)

    def test_subsampling_never_exceeds_full_gaussian(self):
        for q in (0.001, 0.1, 0.9):
            for sigma in (0.5, 1.0, 2.0):
                for alpha in (2, 8, 32):
                    assert accounting.rdp_subsampled_gaussian(q, sigma, alpha) <= alpha / (
                        2 * sigma * sigma
                    ) * (1 + 1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            accounting.rdp_subsampled_gaussian(0.0, 1.0, 2)
        with pytest.raises(ConfigurationError):
            accounting.rdp_subsampled_gaussian(1.1, 1.0, 2)
        with pytest.raises(ConfigurationError):
            accounting.rdp_subsampled_gaussian(0.5, 0.0, 2)
        with pytest.raises(ConfigurationError):
            accounting.rdp_subsampled_gaussian(0.5, 1.0, 1)

    def test_overflow_is_an_error_not_silent_infinity(self):
        from dpsgd.errors import AccountingError

        with pytest.raises(AccountingError, match="overflow"):
            accounting.rdp_subsampled_gaussian(0.5, 1e-300, 64)


class TestCompose:
    def test_zero_steps_leaves_curve_unchanged(self):
        curve = RdpCurve((2, 3), np.array([0.5, 0.7]))
        step = RdpCurve((2, 3), np.array([0.1, 0.2]))
        out = accounting.compose(curve, step, 0)
        assert np.array_equal(out.values, curve.values)

    def test_two_steps_equals_one_twice(self):
        curve = RdpCurve.zeros((2, 3, 4))
        step = RdpCurve((2, 3, 4), np.array([0.1, 0.2, 0.3]))
        once_twice = accounting.compose(accounting.compose(curve, step, 1), step, 1)
        at_once = accounting.compose(curve, step, 2)
        assert np.allclose(once_twice.values, at_once.values, rtol=1e-15)

    def test_thousand_steps_scales_linearly(self):
        step = RdpCurve((2,), np.array([0.003]))
        out = accounting.compose(RdpCurve.zeros((2,)), step, 1000)
        assert out.values[0] == pytest.approx(3.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="grids"):
            accounting.compose(RdpCurve.zeros((2, 3)), RdpCurve.zeros((2, 4)), 1)


class TestToEpsilon:
    def test_single_order_closed_form(self):
        curve = RdpCurve((2,), np.array([1.0]))
        epsilon, order = accounting.to_epsilon(curve, 1e-5)
        assert order == 2
        assert epsilon == pytest.approx(1.0 + math.log(1e5), rel=1e-12)

    def test_delta_near_one_recovers_min_curve_value(self):
        curve = RdpCurve((2, 4, 8), np.array([3.0, 0.5, 2.0]))
        epsilon, order = accounting.to_epsilon(curve, 1 - 1e-12)
        assert order == 4
        assert epsilon == pytest.approx(0.5, rel=1e-6)

    def test_minimality_over_dense_grid(self):
        orders = tuple(range(2, 257))
        values = np.array([accounting.rdp_subsampled_gaussian(0.02, 1.0, a) * 500 for a in orders])
        curve = RdpCurve(orders, values)
        epsilon, _ = accounting.to_epsilon(curve, 1e-5)
        for a, v in zip(orders, values):
            assert epsilon <= v + math.log(1e5) / (a - 1) + 1e-12

    def test_extra_dominated_orders_only_help(self):
        small = tuple(range(2, 33))
        big = tuple(range(2, 65)) + (128,)
        make = lambda orders: RdpCurve(
            orders, np.array([accounting.rdp_subsampled_gaussian(0.01, 1.0, a) * 1000 for a in orders])
        )
        eps_small, _ = accounting.to_epsilon(make(small), 1e-5)
        eps_big, _ = accounting.to_epsilon(make(big), 1e-5)
        assert eps_big <= eps_small + 1e-12

    def test_clamped_at_zero(self):
        # Forced-negative curve value: the conversion must clamp, not go negative.
        curve = RdpCurve((2,), np.array([-5.0]))
        epsilon, _ = accounting.to_epsilon(curve, 1e-2)
        assert epsilon == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            accounting.to_epsilon(RdpCurve((), np.zeros(0)), 1e-5)

    def test_repeated_calls_match_the_direct_formula(self):
        orders = accounting.DEFAULT_ORDERS
        step = accounting.per_step_curve(0.02, 1.0)
        for delta, steps in itertools.product((1e-5, 1e-3, 0.5), (1, 500, 1)):
            curve = accounting.compose(RdpCurve.zeros(), step, steps)
            candidates = curve.values + math.log(1.0 / delta) / (np.asarray(orders, dtype=float) - 1.0)
            best = int(np.argmin(candidates))
            want = (max(float(candidates[best]), 0.0), orders[best])
            assert accounting.to_epsilon(curve, delta) == want, (delta, steps)

    def test_bad_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            accounting.to_epsilon(RdpCurve.zeros(), 0.0)


class TestEpsilonForTraining:
    def test_zero_epochs_costs_nothing(self):
        report = accounting.epsilon_for_training(1000, 10, 1.0, 0, 1e-5)
        assert report.epsilon == 0.0
        assert report.steps == 0

    def test_steps_and_ratio_arithmetic(self):
        report = accounting.epsilon_for_training(50_000, 512, 1.0, 3, 1e-5)
        assert report.sampling_ratio == pytest.approx(512 / 50_000)
        assert report.steps == 3 * (50_000 // 512)

    def test_sigma_zero_reports_infinite_loss(self):
        report = accounting.epsilon_for_training(1000, 10, 0.0, 2, 1e-5)
        assert math.isinf(report.epsilon)

    def test_batch_growth_increases_epsilon(self):
        # Fixed epochs: larger batches raise q faster than they cut steps.
        batches = [32, 128, 512, 2048, 4096]
        values = [
            accounting.epsilon_for_training(50_000, b, 1.0, 5, 1e-5).epsilon for b in batches
        ]
        assert all(a < b for a, b in zip(values, values[1:])), values

    def test_sigma_growth_strictly_decreases_epsilon(self):
        values = [
            accounting.epsilon_for_training(50_000, 256, s, 5, 1e-5).epsilon
            for s in (0.5, 1.0, 2.0)
        ]
        assert values[0] > values[1] > values[2]

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            accounting.epsilon_for_training(100, 200, 1.0, 1, 1e-5)

    @pytest.mark.parametrize("args, message", [
        ((100, 0, 1.0, 1, 1e-5), "effective batch 0 must lie in [1, 100]"),
        ((0, 1, 1.0, 1, 1e-5), "effective batch 1 must lie in [1, 0]"),
        ((100, 10, 1.0, -1, 1e-5), "epochs must be >= 0, got -1"),
        ((100, 10, 1.0, 0, 0.0), "delta must lie in (0, 1), got 0.0"),
    ])
    def test_out_of_range_arguments_named(self, args, message):
        with pytest.raises(ConfigurationError) as raised:
            accounting.epsilon_for_training(*args)
        assert str(raised.value) == message


class TestEpsilonAfter:
    """Training's accountant hook and the account query price a step count
    with accounting.epsilon_after; the hook keeps no running state."""

    @staticmethod
    def hook(sigma=1.1):
        from dpsgd import experiment
        from dpsgd.engine import DpConfig

        dp_cfg = DpConfig(clip_norm=1.0, noise_multiplier=sigma, grad_acc_count=32)
        return experiment._make_accountant_hook(1000, dp_cfg, 1e-5)

    def test_hook_prices_the_step_count_alone(self):
        hook = self.hook()
        steps = (1, 2, 3, 31, 62)
        in_order = dict(zip(steps, map(hook, steps)))
        assert list(in_order.values()) == sorted(set(in_order.values()))
        for step in (62, 31, 3, 3, 2, 1, 62):
            assert hook(step) == in_order[step]
        fresh = self.hook()
        assert fresh(62) == in_order[62] and fresh(3) == in_order[3]

    def test_hook_and_account_query_agree(self):
        # 1000 // 32 = 31 steps per epoch.
        assert self.hook()(62) == accounting.epsilon_for_training(1000, 32, 1.1, 2, 1e-5).epsilon
        step_curve = accounting.per_step_curve(32 / 1000, 1.1)
        assert accounting.epsilon_after(step_curve, 62, 1e-5) == accounting.to_epsilon(
            accounting.compose(RdpCurve.zeros(), step_curve, 62), 1e-5
        )

    def test_no_noise_has_no_guarantee(self):
        hook = self.hook(sigma=0.0)
        assert math.isinf(hook(1)) and math.isinf(hook(62))


class TestMonotonicity:
    def test_epsilon_monotone_in_steps_q_sigma_delta(self):
        sigma0, q0, delta0, steps0 = 1.0, 0.01, 1e-5, 500

        def eps(q=q0, sigma=sigma0, steps=steps0, delta=delta0):
            curve = accounting.compose(
                RdpCurve.zeros(), accounting.per_step_curve(q, sigma), steps
            )
            return accounting.to_epsilon(curve, delta)[0]

        steps_grid = [10, 100, 500, 2000, 10_000]
        values = [eps(steps=t) for t in steps_grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

        q_grid = [0.001, 0.005, 0.01, 0.05, 0.1]
        values = [eps(q=q) for q in q_grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

        sigma_grid = [0.5, 0.75, 1.0, 1.5, 2.0]
        values = [eps(sigma=s) for s in sigma_grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

        delta_grid = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
        values = [eps(delta=d) for d in delta_grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_curve_values_nonnegative(self):
        curve = accounting.per_step_curve(0.02, 1.0)
        assert (curve.values >= 0).all()

import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import tiny_cnn_spec

from dpsgd import data, engine, metrics, models
from dpsgd.engine import DpConfig, FlatGradient, OptimizerState
from dpsgd.errors import ConfigurationError, NonFiniteGradientError, ProtocolError


def flat(values, layers=None, stages=None):
    values = np.asarray(values, dtype=np.float64)
    if layers is None:
        layers = ((0, values.size),)
    return FlatGradient(values=values, layer_extents=tuple(layers), stage_partition=stages)


def split_extents(dim, parts):
    base, extra = divmod(dim, parts)
    extents = []
    offset = 0
    for i in range(parts):
        length = base + (1 if i < extra else 0)
        extents.append((offset, length))
        offset += length
    return tuple(extents)


class TestClipGlobal:
    def test_three_four_scales_to_unit(self):
        out = engine.clip_global(flat([3.0, 4.0]), 1.0)
        assert np.allclose(out.values, [0.6, 0.8], rtol=1e-12)

    def test_under_bound_returned_unchanged_bitwise(self):
        g = flat([0.1, 0.1])
        out = engine.clip_global(g, 1.0)
        assert out.values is g.values

    def test_zero_vector_passes_through(self):
        g = flat([0.0, 0.0, 0.0])
        out = engine.clip_global(g, 2.5)
        assert np.array_equal(out.values, g.values)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = flat(rng.standard_normal(rng.integers(1, 50)) * 10 ** rng.uniform(-3, 3))
            once = engine.clip_global(g, 1.0)
            twice = engine.clip_global(once, 1.0)
            assert np.array_equal(once.values, twice.values)

    def test_saturated_direction_invariance(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(20)
        g = g / np.linalg.norm(g) * 5.0  # norm 5 >= C
        a = engine.clip_global(flat(g), 1.0).values
        b = engine.clip_global(flat(g * 7.0), 1.0).values
        assert np.allclose(a, b, rtol=1e-12)

    def test_nonpositive_clip_norm_rejected(self):
        g = flat([3.0, 4.0], layers=((0, 1), (1, 1)), stages=((0, 1), (1, 1)))
        clips = (
            lambda c: engine.clip_global(g, c),
            lambda c: engine.clip_per_layer(g, c),
            lambda c: engine.clip_per_stage(g, c, 2),
        )
        for clip in clips:
            for clip_norm in (0.0, -1.0, float("nan")):
                with pytest.raises(ConfigurationError, match="^clip_norm must be positive"):
                    clip(clip_norm)


class TestClipPerLayer:
    def test_single_layer_equals_global(self):
        rng = np.random.default_rng(2)
        g = flat(rng.standard_normal(10) * 10)
        assert np.array_equal(
            engine.clip_per_layer(g, 1.0).values, engine.clip_global(g, 1.0).values
        )

    def test_four_layers_slice_budget(self):
        rng = np.random.default_rng(3)
        extents = split_extents(20, 4)
        g = flat(rng.standard_normal(20) * 10, layers=extents)
        out = engine.clip_per_layer(g, 2.0)
        for offset, length in extents:
            assert np.linalg.norm(out.values[offset : offset + length]) <= 1.0 * (1 + 1e-9)

    def test_total_norm_against_slicewise_oracle(self):
        # Empty layers at the start, in the middle and at the end are no-ops
        # that still count towards L.
        for extents in (
            split_extents(15, 3),
            ((0, 0), (0, 5), (5, 5), (10, 5)),
            ((0, 5), (5, 0), (5, 10)),
            ((0, 5), (5, 10), (15, 0)),
            ((0, 0), (0, 7), (7, 0), (7, 8), (15, 0)),
        ):
            rng = np.random.default_rng(4)
            g = flat(rng.standard_normal(15) * 100, layers=extents)
            out = engine.clip_per_layer(g, 1.5)
            bound = 1.5 / np.sqrt(len(extents))
            oracle_sq = sum(min(np.linalg.norm(g.values[o : o + n]), bound) ** 2 for o, n in extents)
            assert np.linalg.norm(out.values) == pytest.approx(np.sqrt(oracle_sq), rel=1e-9), extents
            assert np.linalg.norm(out.values) <= 1.5 * (1 + 1e-6), extents

    def test_never_increases_slice_norms(self):
        rng = np.random.default_rng(5)
        extents = split_extents(12, 3)
        g = flat(rng.standard_normal(12), layers=extents)
        out = engine.clip_per_layer(g, 0.3)
        for offset, length in extents:
            assert np.linalg.norm(out.values[offset : offset + length]) <= np.linalg.norm(
                g.values[offset : offset + length]
            ) * (1 + 1e-12)

    def test_missing_extents_rejected(self):
        g = FlatGradient(values=np.ones(4), layer_extents=())
        with pytest.raises(ConfigurationError, match="extents"):
            engine.clip_per_layer(g, 1.0)


class TestClipPerStage:
    def test_stage_bound_is_clip_over_sqrt_stages(self):
        # M = 4, C = 2: every stage slice ends up with norm at most 1.
        rng = np.random.default_rng(6)
        stages = split_extents(16, 4)
        g = flat(rng.standard_normal(16) * 10, stages=stages)
        out = engine.clip_per_stage(g, 2.0, 4)
        for offset, length in stages:
            assert np.linalg.norm(out.values[offset : offset + length]) <= 1.0 * (1 + 1e-9)

    def test_single_stage_equals_global(self):
        rng = np.random.default_rng(7)
        g = flat(rng.standard_normal(9) * 10, stages=((0, 9),))
        assert np.array_equal(
            engine.clip_per_stage(g, 1.0, 1).values, engine.clip_global(g, 1.0).values
        )

    def test_saturated_stages_reach_total_budget(self):
        # Every slice above C/sqrt(M) before clipping: total comes out at C.
        rng = np.random.default_rng(8)
        stages = split_extents(24, 4)
        values = np.zeros(24)
        for offset, length in stages:
            piece = rng.standard_normal(length)
            values[offset : offset + length] = piece / np.linalg.norm(piece) * 10.0
        out = engine.clip_per_stage(flat(values, stages=stages), 2.0, 4)
        assert np.linalg.norm(out.values) == pytest.approx(2.0, abs=1e-6)

    def test_partition_count_mismatch_rejected(self):
        g = flat(np.ones(8), stages=split_extents(8, 2))
        with pytest.raises(ConfigurationError, match="parts"):
            engine.clip_per_stage(g, 1.0, 4)

    def test_missing_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="partition"):
            engine.clip_per_stage(flat(np.ones(8)), 1.0, 2)


class TestBuildStagePartition:
    def test_even_split_tiles_dim(self):
        extents = split_extents(100, 9)
        partition = engine.build_stage_partition(extents, 3)
        assert len(partition) == 3
        assert sum(n for _, n in partition) == 100
        assert partition[0][0] == 0

    def test_explicit_layer_counts(self):
        extents = ((0, 10), (10, 20), (30, 5))
        partition = engine.build_stage_partition(extents, 2, stage_layers=[1, 2])
        assert partition == ((0, 10), (10, 25))

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            engine.build_stage_partition(((0, 4), (4, 4)), 2, stage_layers=[2, 0])


class TestNoise:
    def cfg(self, sigma=1.0, clip=1.0, batch=4, placement="per_example"):
        return DpConfig(
            clip_norm=clip, noise_multiplier=sigma, grad_acc_count=batch,
            noise_placement=placement, seed=99,
        )

    def test_sigma_zero_returns_input_unchanged(self):
        g = flat([1.0, 2.0])
        out = engine.noise_per_example(g, self.cfg(sigma=0.0), engine.noise_stream(0, 0, 0))
        assert out.values is g.values

    def test_deterministic_given_stream_key(self):
        g = flat(np.zeros(16))
        a = engine.noise_per_example(g, self.cfg(), engine.noise_stream(99, 5, 2))
        b = engine.noise_per_example(g, self.cfg(), engine.noise_stream(99, 5, 2))
        c = engine.noise_per_example(g, self.cfg(), engine.noise_stream(99, 5, 3))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_reused_stream_draws_like_fresh_stream(self):
        # f32 draws consume 32-bit halves and can leave one buffered, and every
        # draw moves the counter and the output buffer, so each reuse must reset
        # the cached generator fully. The dtype order flips from key to key, so
        # that f32 and f64 draws each follow both f32 and f64 draws.
        keys = [(0, 0, 0), (99, 5, 2), (2**64 - 1, 12, 3), (7, 2**31, 0xFFFFFFFF), (99, 5, 2)]
        for length in (1, 33, 4810):
            for i, key in enumerate(keys):
                for dtype in (np.float32, np.float64)[:: 1 if i % 2 == 0 else -1]:
                    fresh = engine.noise_stream(*key).standard_normal(length, dtype=dtype)
                    reused = engine._reused_noise_stream(*key).standard_normal(length, dtype=dtype)
                    assert np.array_equal(fresh, reused), (length, key, dtype)
        # A generator from noise_stream is its own: reusing streams meanwhile
        # does not move it.
        held = engine.noise_stream(3, 1, 4)
        first = held.standard_normal(5, dtype=np.float32)
        engine._reused_noise_stream(3, 1, 4).standard_normal(7, dtype=np.float32)
        engine._reused_noise_stream(8, 2, 0).standard_normal(3)
        rest = held.standard_normal(6, dtype=np.float32)
        want = engine.noise_stream(3, 1, 4).standard_normal(11, dtype=np.float32)
        assert np.array_equal(np.concatenate([first, rest]), want)

    def test_per_coordinate_variance_parameter(self):
        # sigma=1, C=1, |B|=4: each draw has per-coordinate variance 0.25.
        cfg = self.cfg(sigma=1.0, clip=1.0, batch=4)
        samples = np.concatenate([
            engine.noise_per_example(flat(np.zeros(64)), cfg, engine.noise_stream(99, t, 0)).values
            for t in range(600)
        ])
        assert samples.var() == pytest.approx(0.25, rel=0.05)

    def test_summed_noise_variance_is_sigma_sq_c_sq(self):
        # |B| noisings of zero gradients summed: per-coordinate variance
        # sigma^2 C^2 regardless of |B|.
        sigma, clip, batch = 1.5, 2.0, 16
        cfg = self.cfg(sigma=sigma, clip=clip, batch=batch)
        dim, trials = 8, 2000
        sums = np.empty((trials, dim))
        for t in range(trials):
            total = np.zeros(dim)
            for j in range(batch):
                total += engine.noise_per_example(
                    flat(np.zeros(dim)), cfg, engine.noise_stream(99, t, j)
                ).values
            sums[t] = total
        want = sigma * sigma * clip * clip
        assert sums.var() == pytest.approx(want, rel=0.05)
        assert abs(sums.mean()) < 3 * sigma * clip / np.sqrt(sums.size)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("placement", ["per_example", "batch"])
    def test_step_noise_is_the_in_order_sum_of_its_streams(self, placement, dtype):
        # k streams of std sigma C / sqrt(k), summed from zeros in stream order:
        # one per batch position, or the one reserved whole-batch stream.
        sigma, clip, batch, step, dim = 1.3, 0.7, 5, 6, 33
        streams = range(batch) if placement == "per_example" else [0xFFFFFFFF]
        want = np.zeros(dim, dtype=dtype)
        for index in streams:
            want += engine.sample_noise(
                engine.noise_stream(99, step, index), dim, np.dtype(dtype), sigma * clip / math.sqrt(len(streams))
            )
        got = engine.step_noise(self.cfg(sigma=sigma, clip=clip, batch=batch, placement=placement), step, dim, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("placement", ["per_example", "batch"])
    def test_step_noise_at_sigma_zero_is_zeros_without_draws(self, placement, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn at sigma = 0")

        monkeypatch.setattr(engine, "sample_noise", no_draws)
        monkeypatch.setattr(engine, "_reused_noise_stream", no_draws)
        got = engine.step_noise(self.cfg(sigma=0.0, placement=placement), 3, 10, np.float32)
        assert got.dtype == np.float32 and got.shape == (10,) and not got.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_noise_bytes_do_not_depend_on_drawing_threads(self, dtype, monkeypatch):
        # 1, 2 and 3 threads, in one block or in blocks of two rows, give the
        # bytes of the one-thread, one-block draw. A short switch interval
        # makes threads interleave often, so a position drawn twice or
        # skipped would show.
        cfg = self.cfg(sigma=1.3, clip=0.7, batch=7)
        dim = 4810
        totals = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3):
                monkeypatch.setattr(engine, "drawing_threads", lambda streams, n=threads: min(n, streams))
                for block_rows in (7, 2):
                    monkeypatch.setattr(engine, "DRAW_BLOCK_BYTES", block_rows * dim * np.dtype(dtype).itemsize)
                    for step in range(20):
                        totals[threads, block_rows, step] = engine.step_noise(cfg, step, dim, dtype).tobytes()
        finally:
            sys.setswitchinterval(interval)
        for (threads, block_rows, step), total in totals.items():
            assert total == totals[1, 7, step], (threads, block_rows, step)

    def test_a_failing_helper_raises_in_the_caller_naming_the_step(self, monkeypatch):
        def broken(draws, job):
            raise ValueError("helper broke")

        monkeypatch.setattr(engine, "drawing_threads", lambda streams: min(2, streams))
        monkeypatch.setattr(engine, "_helper_rows", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="noise draw failed at step 6: ValueError.*helper broke"):
            engine.step_noise(self.cfg(batch=4), 6, 10, np.float32)
        assert threading.active_count() == before


class TestAccumulate:
    def test_single_contribution_is_identity(self):
        g = flat([1.0, -2.0])
        out = engine.accumulate(iter([g]), 1)
        assert np.array_equal(out.values, g.values)

    def test_mean_of_identical_vectors(self):
        g = flat([2.0, 4.0])
        out = engine.accumulate((flat([2.0, 4.0]) for _ in range(4)), 4)
        assert np.allclose(out.values, g.values, rtol=0)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(9)
        vectors = [rng.standard_normal(12) for _ in range(8)]
        out = engine.accumulate((flat(v) for v in vectors), 8)
        want = np.sum(vectors, axis=0) / 8
        assert np.max(np.abs(out.values - want)) < 1e-12

    def test_wrong_count_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="contributions"):
            engine.accumulate((flat([1.0]) for _ in range(3)), 4)
        with pytest.raises(ProtocolError, match="contributions"):
            engine.accumulate((flat([1.0]) for _ in range(5)), 4)


class TestSgdStep:
    def make_params(self, values):
        spec = models.mlp_spec(1, [], 2)
        params = models.build_model(spec, seed=0, dtype=np.float64)
        params.flat[:] = 0.0
        params.flat[: len(values)] = values
        return params

    def test_plain_sgd_update(self):
        params = self.make_params([0.0, 0.0])
        state = OptimizerState(velocity=np.zeros(params.dim), momentum=0.0)
        g = np.zeros(params.dim)
        g[:2] = [1.0, 2.0]
        params, state = engine.sgd_step(params, flat(g), 1.0, state)
        assert np.allclose(params.flat[:2], [-1.0, -2.0])
        assert state.step == 1

    def test_zero_gradient_zero_velocity_is_noop(self):
        params = self.make_params([0.5, -0.5])
        before = params.flat.copy()
        state = OptimizerState(velocity=np.zeros(params.dim), momentum=0.9)
        params, _ = engine.sgd_step(params, flat(np.zeros(params.dim)), 0.1, state)
        assert np.array_equal(params.flat, before)

    def test_two_momentum_steps_match_hand_unroll(self):
        # v1 = g1, theta1 = -lr g1; v2 = mu g1 + g2, theta2 = theta1 - lr v2.
        mu, lr = 0.9, 0.5
        params = self.make_params([0.0, 0.0])
        d = params.dim
        g1 = np.zeros(d); g1[:2] = [1.0, -1.0]
        g2 = np.zeros(d); g2[:2] = [0.5, 2.0]
        state = OptimizerState(velocity=np.zeros(d), momentum=mu)
        params, state = engine.sgd_step(params, flat(g1), lr, state)
        params, state = engine.sgd_step(params, flat(g2), lr, state)
        want = -lr * g1[:2] - lr * (mu * g1[:2] + g2[:2])
        assert np.allclose(params.flat[:2], want, rtol=1e-12)

    def test_non_finite_gradient_aborts_with_layer(self):
        params = self.make_params([0.0, 0.0])
        state = OptimizerState(velocity=np.zeros(params.dim), momentum=0.0)
        g = np.zeros(params.dim)
        g[1] = np.nan
        with pytest.raises(NonFiniteGradientError, match="layer 0"):
            engine.sgd_step(params, FlatGradient(g, params.layer_extents), 0.1, state)
        assert np.array_equal(params.flat[:2], [0.0, 0.0])


class TestLrSchedule:
    def test_scaling_multiplies_by_accumulation_count(self):
        assert engine.lr_schedule(0, 0.01, 32, scaling=True) == pytest.approx(0.32)

    def test_scaling_off_keeps_base(self):
        assert engine.lr_schedule(0, 0.01, 32, scaling=False) == pytest.approx(0.01)

    def test_stepped_decay_boundary(self):
        kwargs = dict(base_lr=0.1, grad_acc_count=1, decay_epochs=[10], decay_factor=0.1, scaling=False)
        before = engine.lr_schedule(9, **kwargs)
        at = engine.lr_schedule(10, **kwargs)
        assert at == pytest.approx(0.1 * before)

    def test_multiple_boundaries_compound(self):
        lr = engine.lr_schedule(25, 1.0, 1, decay_epochs=[10, 20], decay_factor=0.5, scaling=False)
        assert lr == pytest.approx(0.25)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ConfigurationError):
            engine.lr_schedule(0, 0.0, 1)


class TestTrainEpoch:
    def setup_problem(self, n=12, dim=6, classes=3, seed=11, dtype=np.float32):
        spec = models.mlp_spec(dim, [5], classes)
        params = models.build_model(spec, seed=seed, dtype=dtype)
        ds = data.synth_blobs(classes, n // classes, dim, 0.4, seed=seed)
        return spec, params, ds

    def run_once(self, cfg, epochs=1, seed=11, lr=0.1, dtype=np.float32, momentum=0.9):
        spec, params, ds = self.setup_problem(seed=seed, dtype=dtype)
        state = OptimizerState(np.zeros(params.dim, dtype=dtype), momentum)
        all_records = []
        for epoch in range(epochs):
            batches = data.sample_batches(ds, cfg.effective_batch, seed, epoch)
            params, state, records = engine.train_epoch(
                spec, params, ds.examples, ds.labels, batches, cfg, lr, state, epoch=epoch,
            )
            all_records.extend(records)
        return params, all_records

    def test_one_step_per_epoch_when_batch_is_dataset(self):
        cfg = DpConfig(clip_norm=10.0, noise_multiplier=0.5, grad_acc_count=12, seed=1)
        _, records = self.run_once(cfg)
        assert len(records) == 1

    def test_sigma_zero_nonbinding_clip_matches_plain_sgd_oracle(self):
        # Full-batch private step with the mechanism disabled equals a
        # hand-rolled full-batch SGD step.
        spec, params, ds = self.setup_problem(dtype=np.float64)
        reference = params.flat.copy()
        cfg = DpConfig(clip_norm=1e9, noise_multiplier=0.0, grad_acc_count=12, seed=1)
        state = OptimizerState(np.zeros(params.dim), momentum=0.0)
        batches = data.sample_batches(ds, 12, 11, 0)
        lr = 0.25
        params, _, _ = engine.train_epoch(
            spec, params, ds.examples, ds.labels, batches, cfg, lr, state, epoch=0,
        )
        grads = [
            models.per_example_gradient(spec, models.ParamSet(reference.copy(), params.layouts, spec), ds.examples[i], ds.labels[i])[1].values
            for i in batches[0]
        ]
        want = reference - lr * np.mean(grads, axis=0)
        assert np.max(np.abs(params.flat - want)) < 1e-10

    def test_fixed_seed_reproduces_records(self):
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5)
        _, a = self.run_once(cfg, epochs=2)
        _, b = self.run_once(cfg, epochs=2)
        assert a == b

    def test_per_example_noise_step_matches_noise_per_example_oracle(self):
        # The step that train_epoch takes is the accumulated mean of clip ->
        # noise_per_example on each example's (seed, step, position) stream, to
        # 1e-12 relative; its noise total is exactly the in-order sum of the draws.
        spec, params, ds = self.setup_problem(dtype=np.float64)
        reference = models.ParamSet(params.flat.copy(), params.layouts, spec)
        cfg = DpConfig(clip_norm=0.5, noise_multiplier=1.3, grad_acc_count=4, seed=5)
        batch = data.sample_batches(ds, 4, 11, 0)[0]
        state = OptimizerState(np.zeros(params.dim), momentum=0.0, step=3)
        params, _, records = engine.train_epoch(
            spec, params, ds.examples, ds.labels, [batch], cfg, 1.0, state,
        )
        noised, noise_sum = [], np.zeros(params.dim)
        for position, index in enumerate(batch):
            grad = models.per_example_gradient(spec, reference, ds.examples[index], ds.labels[index])[1]
            clipped = engine.clip_gradient(grad, cfg)
            noised.append(engine.noise_per_example(clipped, cfg, engine.noise_stream(5, 3, position)))
            noise_sum += engine.sample_noise(
                engine.noise_stream(5, 3, position), params.dim, params.flat.dtype,
                cfg.noise_multiplier * cfg.clip_norm / math.sqrt(cfg.effective_batch),
            )
        want = engine.accumulate(iter(noised), 4).values
        taken = reference.flat - params.flat
        assert np.linalg.norm(taken - want) <= 1e-12 * np.linalg.norm(want)
        assert records[0].noise_norm == float(np.linalg.norm(noise_sum))
        assert records[0].step == 4 and state.step == 4

    def test_split_epoch_continues_from_the_state_step(self):
        # The batches of one epoch, run in two calls that share one
        # OptimizerState, take the same steps and write the same records as
        # one call: the state's step keys the noise, numbers the records and
        # is what the accountant hook is asked to price.
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5)
        runs = []
        for cut in (3, 1, 2):
            spec, params, ds = self.setup_problem()
            state = OptimizerState(np.zeros(params.dim, dtype=np.float32), 0.9)
            batches = data.sample_batches(ds, 4, 11, 0)
            records = []
            for part in (batches[:cut], batches[cut:]):
                params, state, recs = engine.train_epoch(
                    spec, params, ds.examples, ds.labels, part, cfg, 0.1, state,
                    accountant_hook=lambda step: step / 8,
                )
                records.extend(recs)
            runs.append((params.flat.copy(), state.step, records))
        whole_flat, whole_step, whole_records = runs[0]
        assert whole_step == 3
        assert [(r.step, r.epsilon) for r in whole_records] == [(1, 0.125), (2, 0.25), (3, 0.375)]
        for flat, step, records in runs[1:]:
            assert np.array_equal(flat, whole_flat)
            assert step == whole_step and records == whole_records

    def test_degenerate_dp_equals_non_private_trajectory_bitwise(self):
        private = DpConfig(clip_norm=1e9, noise_multiplier=0.0, grad_acc_count=4, seed=5)
        off = DpConfig(clip_norm=float("inf"), noise_multiplier=0.0, grad_acc_count=4, seed=5)
        params_a, recs_a = self.run_once(private, epochs=2)
        params_b, recs_b = self.run_once(off, epochs=2)
        assert np.array_equal(params_a.flat, params_b.flat)
        assert recs_a == recs_b

    def test_batch_noise_placement_runs_and_differs_from_per_example(self):
        per_ex = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5)
        batch = DpConfig(
            clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5,
            noise_placement="batch",
        )
        _, a = self.run_once(per_ex)
        _, b = self.run_once(batch)
        assert a != b
        assert all(r.noise_norm > 0 for r in b)

    @pytest.mark.parametrize("placement", ["per_example", "batch"])
    def test_module_attribute_hooks_see_every_step_and_draw(self, placement, monkeypatch):
        # The benchmark times steps and counts draws by replacing these module
        # attributes, so train_epoch must look each one up when it calls it.
        calls = dict.fromkeys(("sgd_step", "_reused_noise_stream", "sample_noise", "draws"), 0)
        for name in ("sgd_step", "_reused_noise_stream", "sample_noise"):
            def counted(*args, _fn=getattr(engine, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name == "sample_noise":
                    calls["draws"] += int(args[1])
                return _fn(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, noise_placement=placement, seed=5)
        params, records = self.run_once(cfg)
        streams_per_step = 4 if placement == "per_example" else 1
        assert len(records) == 3
        assert calls["sgd_step"] == 3
        assert calls["_reused_noise_stream"] == calls["sample_noise"] == 3 * streams_per_step
        assert calls["draws"] == 3 * streams_per_step * params.dim

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_example_run_bytes_do_not_depend_on_drawing_threads(self, dtype, monkeypatch):
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5)
        runs = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(engine, "drawing_threads", lambda streams, n=threads: min(n, streams))
            params, records = self.run_once(cfg, epochs=2, dtype=dtype)
            runs[threads] = (params.flat.tobytes(), records)
        assert runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_replaced_draw_functions_see_every_draw_at_any_thread_count(self, threads, monkeypatch):
        # Helpers never call a replaced draw function: while one is replaced,
        # the caller draws every row itself.
        monkeypatch.setattr(engine, "drawing_threads", lambda streams: min(threads, streams))
        seen = []
        sample_noise = engine.sample_noise

        def counted(*args, **kwargs):
            seen.append(threading.current_thread())
            return sample_noise(*args, **kwargs)

        monkeypatch.setattr(engine, "sample_noise", counted)
        _, records = self.run_once(DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=4, seed=5))
        assert len(seen) == 4 * len(records) and set(seen) == {threading.current_thread()}

    def test_wrong_batch_size_is_protocol_error(self):
        spec, params, ds = self.setup_problem()
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=0.0, grad_acc_count=5, seed=1)
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), 0.9)
        with pytest.raises(ProtocolError, match="effective batch"):
            engine.train_epoch(
                spec, params, ds.examples, ds.labels, [np.arange(4)], cfg, 0.1, state, epoch=0,
            )

    def test_per_stage_mode_trains_and_respects_budget(self):
        spec, params, ds = self.setup_problem()
        cfg = DpConfig(
            clip_norm=1.0, noise_multiplier=0.0, grad_acc_count=4, seed=2, mode="per_stage",
            num_stages=2,
        )
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), 0.9)
        batches = data.sample_batches(ds, 4, 11, 0)
        _, _, records = engine.train_epoch(
            spec, params, ds.examples, ds.labels, batches, cfg, 0.1, state, epoch=0,
        )
        # sum of clipped gradients is at most |B| * C
        assert all(r.grad_norm <= 4 * 1.0 * (1 + 1e-6) for r in records)


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestBatchedPath:
    """The chunked, batched training step against one-example-at-a-time oracles."""

    B = 7

    def problem(self, which, dtype=np.float64):
        spec = models.mlp_spec(6, [16, 8], 3) if which == "mlp" else tiny_cnn_spec()
        params = models.build_model(spec, seed=21, dtype=dtype)
        rng = np.random.default_rng(21)
        examples = rng.standard_normal((self.B, *spec.input_shape)).astype(dtype)
        labels = rng.integers(0, spec.num_classes, size=self.B)
        return spec, params, examples, labels

    def step(self, spec, params, examples, labels, cfg, monkeypatch=None):
        """Run one step at lr 1 without momentum; return the step taken, the record,
        and the clipped and noise totals record_step received."""
        seen = {}
        if monkeypatch is not None:
            record_step = metrics.record_step

            def spy(sum_clipped, noise_total, **kwargs):
                seen.update(sum_clipped=sum_clipped.copy(), noise_total=noise_total.copy())
                return record_step(sum_clipped, noise_total, **kwargs)

            monkeypatch.setattr(metrics, "record_step", spy)
        before = params.flat.copy()
        state = OptimizerState(np.zeros(params.dim, dtype=params.flat.dtype), momentum=0.0)
        params, _, records = engine.train_epoch(
            spec, params, examples, labels, [np.arange(self.B)], cfg, 1.0, state,
        )
        return before - params.flat, records[0], seen

    @pytest.mark.parametrize("placement", ["per_example", "batch"])
    @pytest.mark.parametrize("mode", ["global", "per_layer", "per_stage"])
    @pytest.mark.parametrize("which", ["mlp", "cnn"])
    def test_step_matches_per_example_clip_oracle(self, which, mode, placement, monkeypatch):
        spec, params, examples, labels = self.problem(which)
        reference = models.ParamSet(params.flat.copy(), params.layouts, spec)
        oracle = [models.per_example_gradient(spec, reference, x, y) for x, y in zip(examples, labels)]
        partition = engine.build_stage_partition(params.layer_extents, 2)
        # C at which each example starts to be clipped; their median clips some but not all.
        slices = {"global": ((0, params.dim),), "per_layer": params.layer_extents, "per_stage": partition}[mode]
        onsets = [
            np.sqrt(len(slices)) * max(np.linalg.norm(g.values[o : o + n]) for o, n in slices) for _, g in oracle
        ]
        clip_norm = float(np.median(onsets))
        cfg = DpConfig(
            clip_norm=clip_norm, noise_multiplier=1.1, mode=mode, num_stages=2,
            grad_acc_count=self.B, noise_placement=placement, seed=4,
        )
        clipped = [engine.clip_gradient(replace(g, stage_partition=partition), cfg).values for _, g in oracle]
        scaled = [not np.array_equal(c, g.values) for c, (_, g) in zip(clipped, oracle)]
        assert any(scaled) and not all(scaled)

        taken, record, seen = self.step(spec, params, examples, labels, cfg, monkeypatch)
        want_sum = np.sum(clipped, axis=0)
        assert relative_error(seen["sum_clipped"], want_sum) <= 1e-12
        assert record.loss == pytest.approx(np.mean([loss for loss, _ in oracle]), rel=1e-12)

        dtype = params.flat.dtype
        if placement == "per_example":
            want_noise = np.zeros(params.dim)
            for position in range(self.B):
                want_noise += engine.sample_noise(
                    engine.noise_stream(4, 0, position), params.dim, dtype, 1.1 * clip_norm / math.sqrt(self.B)
                )
        else:
            want_noise = engine.sample_noise(
                engine.noise_stream(4, 0, 0xFFFFFFFF), params.dim, dtype, 1.1 * clip_norm
            )
        assert np.array_equal(seen["noise_total"], want_noise)
        assert relative_error(taken, (want_sum + want_noise) / self.B) <= 1e-12

    @pytest.mark.parametrize("which", ["mlp", "cnn"])
    def test_no_leakage_across_examples_of_a_batch(self, which):
        # Scaling example j by 100 leaves every other example's per-layer squared
        # norms and clip factor bit-identical.
        spec, params, examples, labels = self.problem(which, dtype=np.float32)

        def norms_and_factors(xs):
            _, grads = models.example_gradients(spec, params, xs, labels)
            sq_norms = np.stack([g.sq_norms() for g in grads], axis=1)
            return sq_norms, engine.clip_factors(sq_norms.sum(axis=1), 0.5, np.float32)

        sq_before, factors_before = norms_and_factors(examples)
        for j in (0, 3, self.B - 1):
            poked = examples.copy()
            poked[j] *= 100.0
            sq_after, factors_after = norms_and_factors(poked)
            others = np.arange(self.B) != j
            assert np.array_equal(sq_before[others], sq_after[others])
            assert np.array_equal(factors_before[others], factors_after[others])
            assert not np.array_equal(sq_before[j], sq_after[j])

    @pytest.mark.parametrize("which", ["mlp", "cnn"])
    def test_chunk_size_does_not_move_the_step(self, which, monkeypatch):
        spec, params, examples, labels = self.problem(which)
        cfg = DpConfig(clip_norm=0.3, noise_multiplier=0.7, mode="per_layer", grad_acc_count=self.B, seed=9)
        steps = {}
        for chunk in (1, 3, self.B):
            monkeypatch.setattr(models, "CHUNK_BYTES", chunk * params.example_bytes)
            assert models.chunk_size(params) == chunk
            run = models.ParamSet(params.flat.copy(), params.layouts, spec, params.example_bytes)
            steps[chunk] = self.step(spec, run, examples, labels, cfg)[0]
        for chunk in (1, 3):
            assert relative_error(steps[chunk], steps[self.B]) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_non_finite_example_named_by_batch_position(self, chunk, monkeypatch):
        spec, params, examples, labels = self.problem("mlp", dtype=np.float32)
        monkeypatch.setattr(models, "CHUNK_BYTES", chunk * params.example_bytes)
        examples[2, 1] = np.nan
        before = params.flat.copy()
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), momentum=0.9, step=5)
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=self.B, seed=1)
        with pytest.raises(NonFiniteGradientError, match=r"step 5, batch position 2, layer 0 \(offset 0"):
            engine.train_epoch(spec, params, examples, labels, [np.arange(self.B)], cfg, 0.1, state)
        assert np.array_equal(params.flat, before)
        assert state.step == 5 and not state.velocity.any()

    def test_non_finite_example_while_a_helper_draws_leaves_no_thread(self, monkeypatch):
        # The step fails in its gradient chunks while the helper is still on
        # the step's rows; train_epoch joins the helper before it raises.
        spec, params, examples, labels = self.problem("mlp", dtype=np.float32)
        examples[2, 1] = np.nan
        monkeypatch.setattr(engine, "drawing_threads", lambda streams: min(2, streams))
        helper_rows, check = engine._helper_rows, engine._check_finite_norms
        drawing, finished = threading.Event(), threading.Event()

        def slow_helper(draws, job):
            drawing.set()
            time.sleep(0.1)
            helper_rows(draws, job)
            finished.set()

        def check_once_helper_draws(*args, **kwargs):
            assert drawing.wait(5.0)
            return check(*args, **kwargs)

        monkeypatch.setattr(engine, "_helper_rows", slow_helper)
        monkeypatch.setattr(engine, "_check_finite_norms", check_once_helper_draws)
        before = threading.active_count()
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=self.B, seed=1)
        state = OptimizerState(np.zeros(params.dim, dtype=np.float32), momentum=0.9, step=5)
        with pytest.raises(NonFiniteGradientError, match="step 5, batch position 2"):
            engine.train_epoch(spec, params, examples, labels, [np.arange(self.B)], cfg, 0.1, state)
        assert finished.is_set()
        assert threading.active_count() == before


class TestDpConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            DpConfig(clip_norm=0.0, noise_multiplier=1.0)
        with pytest.raises(ConfigurationError):
            DpConfig(clip_norm=1.0, noise_multiplier=-0.1)
        with pytest.raises(ConfigurationError, match="^noise_multiplier: "):
            DpConfig(clip_norm=1.0, noise_multiplier=float("nan"))
        with pytest.raises(ConfigurationError):
            DpConfig(clip_norm=1.0, noise_multiplier=1.0, mode="chunky")
        with pytest.raises(ConfigurationError):
            DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=0)

    def test_effective_batch_is_replicas_times_accumulation(self):
        cfg = DpConfig(clip_norm=1.0, noise_multiplier=1.0, grad_acc_count=8, replicas=3)
        assert cfg.effective_batch == 24

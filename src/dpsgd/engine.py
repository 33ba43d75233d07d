"""Clip, noise, accumulate, and step: the private training engine.

Every per-example gradient is clipped (globally, per-layer, or per-stage)
and noised with an independent counter-based Gaussian stream. Training runs
each batch in chunks of examples: per-example squared norms, clip factors
and the clipped sum are computed for a whole chunk at once. Noise streams
are Philox-keyed by (seed, step, example index), so no draw depends on the
order in which examples are computed; draws use numpy's standard ziggurat
normal transform.

A step's per-example noise rows are drawn by the calling thread and one
helper thread per further CPU (NoiseDraws). The helpers start on the rows
when the step starts, and the caller joins them once its gradient chunks
are done. The caller adds the rows to the noise total in batch-position
order, so the bytes depend on neither the number of drawing threads nor the
number of BLAS threads.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import metrics, models
from .errors import ConfigurationError, NonFiniteGradientError, ProtocolError

CLIP_MODES = ("global", "per_layer", "per_stage")
NOISE_PLACEMENTS = ("per_example", "batch")

# Stream index reserved for the single whole-batch draw in "batch" placement.
_BATCH_STREAM_INDEX = 0xFFFFFFFF


@dataclass(frozen=True)
class FlatGradient:
    """One gradient flattened to a vector, with its slice bookkeeping.

    layer_extents and stage_partition are (offset, length) pairs that tile
    [0, d) exactly and in order.
    """

    values: np.ndarray
    layer_extents: tuple = ()
    stage_partition: tuple | None = None

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DpConfig:
    """Privacy mechanism settings for one training run.

    Every error message starts with the name of the field at fault.
    """

    clip_norm: float
    noise_multiplier: float
    mode: str = "global"
    num_stages: int = 1
    stage_layers: tuple = ()
    grad_acc_count: int = 1
    replicas: int = 1
    noise_placement: str = "per_example"
    seed: int = 0

    def __post_init__(self):
        if not self.clip_norm > 0:
            raise ConfigurationError(f"clip_norm: must be positive, got {self.clip_norm}")
        if not self.noise_multiplier >= 0:
            raise ConfigurationError(f"noise_multiplier: must be >= 0, got {self.noise_multiplier}")
        if self.mode not in CLIP_MODES:
            raise ConfigurationError(f"mode: must be one of {CLIP_MODES}, got {self.mode!r}")
        for name in ("num_stages", "grad_acc_count", "replicas"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.noise_placement not in NOISE_PLACEMENTS:
            raise ConfigurationError(
                f"noise_placement: must be one of {NOISE_PLACEMENTS}, got {self.noise_placement!r}"
            )
        object.__setattr__(self, "stage_layers", tuple(self.stage_layers))
        if self.stage_layers and (self.mode != "per_stage" or len(self.stage_layers) != self.num_stages
                                  or min(self.stage_layers) < 1):
            raise ConfigurationError(
                f"stage_layers: needs mode 'per_stage' and one count >= 1 for each of the {self.num_stages} "
                f"stages, got {list(self.stage_layers)} with mode {self.mode!r}"
            )

    @property
    def effective_batch(self) -> int:
        return self.replicas * self.grad_acc_count


@dataclass
class OptimizerState:
    velocity: np.ndarray
    momentum: float = 0.9
    step: int = 0


def clip_factors(sq_norms: np.ndarray, bound: float, dtype) -> np.ndarray:
    """Scale factor of each slice from its float64 squared L2 norm.

    1 where the norm is at most bound * (1 + 32 eps of dtype), so that norms
    within a few ulp of the bound count as already clipped and clipping is
    exactly idempotent; bound / norm elsewhere.
    """
    norms = np.sqrt(sq_norms)
    over = norms > bound * (1.0 + 32.0 * np.finfo(dtype).eps)
    return np.divide(bound, norms, out=np.ones_like(norms), where=over)


def slice_clip_factors(unit_sq_norms: np.ndarray, slice_starts, bound: float, dtype) -> np.ndarray:
    """The one clip rule: clip_factors of the slices that begin at slice_starts,
    from float64 squared norms per unit along axis 0. The units are layers in
    training and coordinates in the one-example clip functions."""
    return clip_factors(np.add.reduceat(unit_sq_norms, slice_starts), bound, dtype)


def _clip_extents(gradient: FlatGradient, extents, clip_norm: float, what: str) -> FlatGradient:
    """Clip each of the k (offset, length) extents to L2 norm clip_norm / sqrt(k).

    Returns the input itself if no extent exceeds its bound. The extents must
    tile [0, d) in order. Empty ones are dropped from the sums, as reduceat
    would give them the next coordinate's value."""
    if not clip_norm > 0:
        raise ConfigurationError(f"clip_norm must be positive, got {clip_norm}")
    if not extents:
        raise ConfigurationError(f"{what} missing from gradient")
    bound = clip_norm / np.sqrt(len(extents))
    offsets, lengths = np.array(extents, dtype=np.intp).T
    if (lengths < 0).any() or (offsets != np.cumsum(lengths) - lengths).any():
        raise ConfigurationError(f"{what} do not tile [0, {gradient.dim}) in order: {extents}")
    if lengths.sum() != gradient.dim:
        raise ConfigurationError(f"{what} cover {lengths.sum()} of {gradient.dim} coordinates")
    nonempty = lengths > 0
    dtype = gradient.values.dtype
    wide = gradient.values.astype(np.float64, copy=False)
    factors = slice_clip_factors(wide * wide, offsets[nonempty], bound, dtype)
    if (factors == 1.0).all():
        return gradient
    scale = np.repeat(factors.astype(dtype), lengths[nonempty])
    return FlatGradient(gradient.values * scale, gradient.layer_extents, gradient.stage_partition)


def clip_global(gradient: FlatGradient, clip_norm: float) -> FlatGradient:
    """Scale the whole gradient to L2 norm clip_norm if it exceeds it."""
    return _clip_extents(gradient, ((0, gradient.dim),), clip_norm, "extent")


def clip_per_layer(gradient: FlatGradient, clip_norm: float) -> FlatGradient:
    """Clip each layer slice independently to clip_norm / sqrt(L).

    The per-slice budget makes the total norm at most clip_norm by the
    Pythagorean identity, without any cross-layer norm exchange.
    """
    return _clip_extents(gradient, gradient.layer_extents, clip_norm, "layer extents")


def clip_per_stage(gradient: FlatGradient, clip_norm: float, num_stages: int) -> FlatGradient:
    """Clip each pipeline-stage slice independently to clip_norm / sqrt(M)."""
    if gradient.stage_partition is None:
        raise ConfigurationError("stage partition missing from gradient")
    if len(gradient.stage_partition) != num_stages:
        raise ConfigurationError(
            f"stage partition has {len(gradient.stage_partition)} parts, expected {num_stages}"
        )
    return _clip_extents(gradient, gradient.stage_partition, clip_norm, "stage partition")


def clip_gradient(gradient: FlatGradient, cfg: DpConfig) -> FlatGradient:
    if cfg.mode == "global":
        return clip_global(gradient, cfg.clip_norm)
    if cfg.mode == "per_layer":
        return clip_per_layer(gradient, cfg.clip_norm)
    return clip_per_stage(gradient, cfg.clip_norm, cfg.num_stages)


def _stage_layer_counts(num_layers: int, num_stages: int, stage_layers=()) -> list:
    """Layers in each stage: stage_layers if given, else as even a split as possible."""
    if not stage_layers:
        base, extra = divmod(num_layers, num_stages)
        if base == 0:
            raise ConfigurationError(f"dp.num_stages: cannot split {num_layers} layers into {num_stages} stages")
        stage_layers = [base + (1 if i < extra else 0) for i in range(num_stages)]
    if len(stage_layers) != num_stages or sum(stage_layers) != num_layers or min(stage_layers) < 1:
        raise ConfigurationError(
            f"dp.stage_layers: counts {list(stage_layers)} do not partition {num_layers} layers "
            f"into {num_stages} stages"
        )
    return list(stage_layers)


def build_stage_partition(layer_extents, num_stages: int, stage_layers=()) -> tuple:
    """Merge consecutive layer extents into num_stages contiguous slices.

    stage_layers optionally gives the number of layers per stage; the
    default splits the layer list as evenly as possible.
    """
    partition = []
    cursor = 0
    for count in _stage_layer_counts(len(layer_extents), num_stages, stage_layers):
        chunk = layer_extents[cursor : cursor + count]
        partition.append((chunk[0][0], sum(length for _, length in chunk)))
        cursor += count
    return tuple(partition)


def _stream_key(seed: int, step: int, example_index: int) -> np.ndarray:
    mask = 0xFFFFFFFFFFFFFFFF
    return np.array([seed & mask, ((step << 32) | example_index) & mask], dtype=np.uint64)


def noise_stream(seed: int, step: int, example_index: int) -> np.random.Generator:
    """Independent Gaussian stream for one (step, example) pair.

    Philox keyed by (seed, step * 2^32 + example_index): reordering or
    parallelizing example computations cannot change any draw.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, step, example_index)))


_stream_pool = threading.local()


def _reused_noise_stream(seed: int, step: int, example_index: int) -> np.random.Generator:
    """noise_stream on a per-thread reused bit generator.

    Identical draws to noise_stream, without a fresh bit generator per call.
    Each thread keeps one Philox, a state dict read from it once when fresh,
    and a Generator on it. A call writes the stream key into the dict in place
    and assigns the dict, which also resets the counter to 0, buffer_pos to 4
    (empty buffer) and has_uint32 and uinteger to 0 (no buffered 32-bit half):
    nothing else writes the dict, so it keeps those fresh values. The Philox
    state is never read back. The generator is valid until the next call on
    the same thread, so callers must finish drawing before requesting another.
    """
    kept = getattr(_stream_pool, "kept", None)
    if kept is None:
        bit_gen = np.random.Philox(key=0)
        kept = _stream_pool.kept = (bit_gen, bit_gen.state, np.random.Generator(bit_gen))
    bit_gen, state, generator = kept
    state["state"]["key"][:] = _stream_key(seed, step, example_index)
    bit_gen.state = state
    return generator


def sample_noise(rng: np.random.Generator, dim: int, dtype, scale: float, out=None) -> np.ndarray:
    """dim draws from rng times scale, in dtype; written into out if given."""
    if out is None:
        return rng.standard_normal(dim, dtype=dtype) * dtype.type(scale)
    rng.standard_normal(dim, dtype=dtype, out=out)
    out *= dtype.type(scale)
    return out


# The draw functions as defined here. Helper threads draw through these: the
# module attributes may be replaced by a profiler or test hook, which must
# only ever run on the calling thread.
_IMPORTED_DRAW = (_reused_noise_stream, sample_noise)

# Bytes of drawn per-example noise rows held at once.
DRAW_BLOCK_BYTES = 1 << 20


def noise_per_example(gradient: FlatGradient, cfg: DpConfig, rng: np.random.Generator) -> FlatGradient:
    """Add i.i.d. Gaussian noise with per-coordinate variance
    sigma^2 * C^2 / |B| to an already clipped gradient."""
    if cfg.noise_multiplier == 0.0:
        return gradient
    std = cfg.noise_multiplier * cfg.clip_norm / math.sqrt(cfg.effective_batch)
    noise = sample_noise(rng, gradient.dim, gradient.values.dtype, std)
    return FlatGradient(gradient.values + noise, gradient.layer_extents, gradient.stage_partition)


def drawing_threads(streams: int) -> int:
    """Threads that draw a step's noise streams: the caller and one helper per
    further CPU, at most one per stream."""
    return min(os.cpu_count() or 1, streams)


class NoiseDraws:
    """Draws the per-example noise rows of one train_epoch call's steps.

    The rows go, in blocks of at most DRAW_BLOCK_BYTES and at least one row
    per thread, into one buffer. The caller and drawing_threads(B) - 1
    helpers each take the next batch position from a shared counter; the
    caller adds each block's rows to the total in position order. While
    engine.sample_noise or engine._reused_noise_stream is replaced, the
    caller draws every row, so that the replacement sees every draw. Inert
    when the config draws no per-example noise.
    """

    def __init__(self, cfg: DpConfig, dim: int, dtype):
        self.cfg, self.rows, self.pool, self.helpers = cfg, None, None, []
        if cfg.noise_placement != "per_example" or cfg.noise_multiplier == 0.0:
            return
        batch = cfg.effective_batch
        self.std = cfg.noise_multiplier * cfg.clip_norm / math.sqrt(batch)
        hooked = (_reused_noise_stream, sample_noise) != _IMPORTED_DRAW
        self.threads = 1 if hooked else drawing_threads(batch)
        row_bytes = max(1, dim * np.dtype(dtype).itemsize)
        self.rows = np.empty((min(batch, max(self.threads, DRAW_BLOCK_BYTES // row_bytes)), dim), dtype=dtype)
        if self.threads > 1:
            # Imported here: concurrent.futures loads logging, about 7 ms that
            # runs without helpers need not pay.
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(self.threads - 1, thread_name_prefix="dpsgd-noise")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Join the helpers, also when a step failed while they drew."""
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def begin(self, step: int, first: int = 0) -> None:
        """Hand the block of step's rows from batch position first to the helpers."""
        if self.rows is None:
            return
        end = min(first + len(self.rows), self.cfg.effective_batch)
        self.job = job = (step, first, end, itertools.count(first))
        if self.pool is not None:
            self.helpers = [self.pool.submit(_helper_rows, self, job) for _ in range(self.threads - 1)]

    def draw(self, job, stream, sample) -> None:
        """Draw rows of job's block until its positions run out. Each next()
        on the shared itertools.count is one C call, so under the interpreter
        lock every position goes to exactly one thread."""
        step, first, end, positions = job
        dim, dtype = self.rows.shape[1], self.rows.dtype
        for position in positions:
            if position >= end:
                return
            sample(stream(self.cfg.seed, step, position), dim, dtype, self.std, out=self.rows[position - first])

    def add_rows(self, total: np.ndarray) -> np.ndarray:
        """Add the begun step's rows to total in position order, block by block."""
        while True:
            step, first, end, _ = job = self.job
            self.draw(job, _reused_noise_stream, sample_noise)
            helpers, self.helpers = self.helpers, []
            for helper in helpers:
                try:
                    helper.result()
                except Exception as exc:
                    raise RuntimeError(f"noise draw failed at step {step}: {exc!r}") from exc
            for row in self.rows[: end - first]:
                total += row
            if end == self.cfg.effective_batch:
                return total
            self.begin(step, end)


def _helper_rows(draws: NoiseDraws, job) -> None:
    """A helper thread's rows of job's block, drawn through _IMPORTED_DRAW."""
    draws.draw(job, *_IMPORTED_DRAW)


def step_noise(cfg: DpConfig, step: int, dim: int, dtype, draws: NoiseDraws | None = None) -> np.ndarray:
    """The noise total of one step: k Philox streams of std sigma C / sqrt(k),
    drawn and summed from zeros in stream order, so that it has variance
    sigma^2 C^2 per coordinate. Per-example placement draws streams 0..B-1,
    one per batch position, through draws, the running train_epoch's
    NoiseDraws begun on this step, or else through a NoiseDraws made for this
    call. Batch placement draws the one stream _BATCH_STREAM_INDEX on the
    calling thread. Zeros, with no draws, when sigma = 0. This is the only
    place a training step's noise is drawn."""
    dtype = np.dtype(dtype)
    total = np.zeros(dim, dtype=dtype)
    if cfg.noise_multiplier == 0.0:
        return total
    if cfg.noise_placement == "batch":
        std = cfg.noise_multiplier * cfg.clip_norm
        total += sample_noise(_reused_noise_stream(cfg.seed, step, _BATCH_STREAM_INDEX), dim, dtype, std)
        return total
    if draws is not None:
        return draws.add_rows(total)
    with NoiseDraws(cfg, dim, dtype) as draws:
        draws.begin(step)
        return draws.add_rows(total)


def accumulate(contributions, batch_size: int) -> FlatGradient:
    """Mean of exactly batch_size gradient contributions, in stream order.

    The running sum is divided by batch_size only at the end; a wrong
    contribution count signals a broken training loop.
    """
    total = None
    count = 0
    template = None
    for contribution in contributions:
        count += 1
        if count > batch_size:
            break
        if total is None:
            template = contribution
            total = contribution.values.copy()
        else:
            total += contribution.values
    if count != batch_size or total is None:
        raise ProtocolError(f"accumulate received {count} contributions, expected {batch_size}")
    mean = total / template.values.dtype.type(batch_size)
    return FlatGradient(mean, template.layer_extents, template.stage_partition)


def _first_nonfinite_layer(gradient: FlatGradient) -> str:
    finite = np.isfinite(gradient.values)
    bad = int(np.argmin(finite))
    for i, (offset, length) in enumerate(gradient.layer_extents or ()):
        if offset <= bad < offset + length:
            return f"layer {i} (offset {offset}, length {length})"
    return f"coordinate {bad}"


def sgd_step(params: models.ParamSet, gradient: FlatGradient, lr: float, state: OptimizerState):
    """Momentum SGD update: v <- mu v + g; theta <- theta - lr v."""
    if gradient.dim != params.dim or state.velocity.size != params.dim:
        raise ConfigurationError(
            f"dimension mismatch: params {params.dim}, gradient {gradient.dim}, "
            f"velocity {state.velocity.size}"
        )
    if not np.isfinite(gradient.values).all():
        raise NonFiniteGradientError(
            f"non-finite gradient at step {state.step} in {_first_nonfinite_layer(gradient)}"
        )
    if state.momentum != 0.0:
        state.velocity *= state.velocity.dtype.type(state.momentum)
        state.velocity += gradient.values
    else:
        state.velocity[:] = gradient.values
    params.flat -= params.flat.dtype.type(lr) * state.velocity
    state.step += 1
    return params, state


def lr_schedule(
    epoch: int,
    base_lr: float,
    grad_acc_count: int,
    decay_epochs=(),
    decay_factor: float = 0.1,
    scaling: bool = True,
) -> float:
    """Stepped decay, optionally scaling the initial rate by the
    accumulation count."""
    if not base_lr > 0:
        raise ConfigurationError(f"base_lr must be positive, got {base_lr}")
    lr = base_lr * grad_acc_count if scaling else base_lr
    for boundary in decay_epochs:
        if epoch >= boundary:
            lr *= decay_factor
    return lr


def _clip_slices(cfg: DpConfig, num_layers: int) -> tuple:
    """The clip slice of each parameterised layer, and the bound on each slice."""
    if cfg.mode == "global":
        return np.zeros(num_layers, dtype=np.intp), cfg.clip_norm
    if cfg.mode == "per_layer":
        return np.arange(num_layers), cfg.clip_norm / np.sqrt(num_layers)
    counts = _stage_layer_counts(num_layers, cfg.num_stages, cfg.stage_layers)
    return np.repeat(np.arange(cfg.num_stages), counts), cfg.clip_norm / np.sqrt(cfg.num_stages)


def _check_finite_norms(sq_norms: np.ndarray, step: int, first_position: int, layer_extents) -> None:
    """Raise for the first example, and its first layer, whose squared norm
    in sq_norms (layers, examples) is not finite."""
    if np.isfinite(sq_norms).all():
        return
    row, layer = np.argwhere(~np.isfinite(sq_norms.T))[0]
    offset, length = layer_extents[layer]
    raise NonFiniteGradientError(
        f"non-finite gradient at step {step}, batch position {first_position + row}, "
        f"layer {layer} (offset {offset}, length {length})"
    )


def train_epoch(
    spec: models.ModelSpec,
    params: models.ParamSet,
    examples: np.ndarray,
    labels: np.ndarray,
    batches,
    cfg: DpConfig,
    lr: float,
    opt_state: OptimizerState,
    *,
    epoch: int = 0,
    accountant_hook=None,
    metrics_hook=None,
):
    """One pass over the given batches of example indices.

    Each effective batch runs in chunks of models.chunk_size examples. For a
    chunk: per-example gradients and their float64 squared norms per layer,
    one clip factor per example and slice, and the factor-weighted sum added
    to the batch total. Then step_noise adds up the step's noise total, the
    mean takes one sgd step, and the accountant and metrics hooks fire
    once. Helper threads start on the step's per-example noise rows when the
    step starts and are joined when the call returns or raises. The step is
    opt_state.step, which sgd_step advances: it keys the noise, and the
    record and the accountant hook read it after the update.
    Returns the RunRecords for the epoch; a failed step leaves params at the
    last completed step. A non-finite per-example norm raises
    NonFiniteGradientError naming the step, the batch position and the layer.
    """
    slice_of_layer, bound = _clip_slices(cfg, len(params.layouts))
    slice_starts = np.flatnonzero(np.diff(slice_of_layer, prepend=-1))
    chunk = models.chunk_size(params)
    extents = params.layer_extents
    dtype = params.flat.dtype
    sum_clipped = np.empty(params.dim, dtype=dtype)
    clipped_views = models.gradient_views(params, sum_clipped)

    records = []
    batch_size = dtype.type(cfg.effective_batch)
    with NoiseDraws(cfg, params.dim, dtype) as draws:
        for batch in batches:
            if len(batch) != cfg.effective_batch:
                raise ProtocolError(
                    f"batch of {len(batch)} examples does not match effective batch "
                    f"{cfg.effective_batch}"
                )
            draws.begin(opt_state.step)
            sum_clipped.fill(0)
            loss_sum = 0.0
            for start in range(0, len(batch), chunk):
                rows = batch[start : start + chunk]
                losses, grads = models.example_gradients(spec, params, examples[rows], labels[rows])
                sq_norms = np.array([layer_grads.sq_norms() for layer_grads in grads])
                _check_finite_norms(sq_norms, opt_state.step, start, extents)
                factors = slice_clip_factors(sq_norms, slice_starts, bound, dtype)
                models.add_weighted_sums(clipped_views, grads, factors[slice_of_layer].astype(dtype))
                loss_sum += float(losses.sum())

            noise_total = step_noise(cfg, opt_state.step, params.dim, dtype, draws)
            mean_grad = (sum_clipped + noise_total) / batch_size

            params, opt_state = sgd_step(params, FlatGradient(mean_grad, extents), lr, opt_state)
            epsilon = accountant_hook(opt_state.step) if accountant_hook is not None else float("inf")
            record = metrics.record_step(
                sum_clipped, noise_total,
                step=opt_state.step,
                epoch=epoch,
                lr=lr,
                loss=loss_sum / cfg.effective_batch,
                sigma=cfg.noise_multiplier,
                epsilon=epsilon,
            )
            records.append(record)
            if metrics_hook is not None:
                metrics_hook(record)
    return params, opt_state, records

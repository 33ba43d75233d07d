"""Clip, noise, accumulate, and step: the private training engine.

Every per-example gradient is clipped (globally, per-layer, or per-stage)
and noised with an independent counter-based Gaussian stream. Training runs
each batch in chunks of examples: per-example squared norms, clip factors
and the clipped sum are computed for a whole chunk at once. Noise streams
are Philox-keyed by (seed, step, example index), so no draw depends on the
order in which examples are computed; draws use numpy's standard ziggurat
normal transform.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from . import models
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


def _check_extents(extents, dim: int, what: str) -> None:
    if not extents:
        raise ConfigurationError(f"{what} missing from gradient")
    cursor = 0
    for offset, length in extents:
        if offset != cursor or length < 0:
            raise ConfigurationError(f"{what} do not tile [0, {dim}) in order: {extents}")
        cursor += length
    if cursor != dim:
        raise ConfigurationError(f"{what} cover {cursor} of {dim} coordinates")


@dataclass(frozen=True)
class DpConfig:
    """Privacy mechanism settings for one training run.

    Every error message starts with the name of the field at fault.
    """

    clip_norm: float
    noise_multiplier: float
    mode: str = "global"
    num_stages: int = 1
    grad_acc_count: int = 1
    replicas: int = 1
    noise_placement: str = "per_example"
    seed: int = 0

    def __post_init__(self):
        if not self.clip_norm > 0:
            raise ConfigurationError(f"clip_norm: must be positive, got {self.clip_norm}")
        if self.noise_multiplier < 0:
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


def _clip_slice(values: np.ndarray, bound: float) -> np.ndarray | None:
    """Scaled copy if the slice exceeds the bound, else None (leave as is)."""
    wide = values.astype(np.float64, copy=False)
    factor = clip_factors(np.dot(wide, wide), bound, values.dtype)
    if factor == 1.0:
        return None
    return values * values.dtype.type(factor)


def clip_global(gradient: FlatGradient, clip_norm: float) -> FlatGradient:
    """Scale the whole gradient to L2 norm clip_norm if it exceeds it."""
    if not clip_norm > 0:
        raise ConfigurationError(f"clip_norm must be positive, got {clip_norm}")
    scaled = _clip_slice(gradient.values, clip_norm)
    if scaled is None:
        return gradient
    return replace(gradient, values=scaled)


def _clip_partition(gradient: FlatGradient, extents, bound: float) -> FlatGradient:
    out = None
    for offset, length in extents:
        scaled = _clip_slice(gradient.values[offset : offset + length], bound)
        if scaled is not None:
            if out is None:
                out = gradient.values.copy()
            out[offset : offset + length] = scaled
    if out is None:
        return gradient
    return replace(gradient, values=out)


def clip_per_layer(gradient: FlatGradient, clip_norm: float) -> FlatGradient:
    """Clip each layer slice independently to clip_norm / sqrt(L).

    The per-slice budget makes the total norm at most clip_norm by the
    Pythagorean identity, without any cross-layer norm exchange.
    """
    _check_extents(gradient.layer_extents, gradient.dim, "layer extents")
    num_layers = len(gradient.layer_extents)
    return _clip_partition(gradient, gradient.layer_extents, clip_norm / np.sqrt(num_layers))


def clip_per_stage(gradient: FlatGradient, clip_norm: float, num_stages: int) -> FlatGradient:
    """Clip each pipeline-stage slice independently to clip_norm / sqrt(M)."""
    if gradient.stage_partition is None:
        raise ConfigurationError("stage partition missing from gradient")
    if len(gradient.stage_partition) != num_stages:
        raise ConfigurationError(
            f"stage partition has {len(gradient.stage_partition)} parts, expected {num_stages}"
        )
    _check_extents(gradient.stage_partition, gradient.dim, "stage partition")
    return _clip_partition(gradient, gradient.stage_partition, clip_norm / np.sqrt(num_stages))


def clip_gradient(gradient: FlatGradient, cfg: DpConfig) -> FlatGradient:
    if cfg.mode == "global":
        return clip_global(gradient, cfg.clip_norm)
    if cfg.mode == "per_layer":
        return clip_per_layer(gradient, cfg.clip_norm)
    return clip_per_stage(gradient, cfg.clip_norm, cfg.num_stages)


def _stage_layer_counts(num_layers: int, num_stages: int, stage_layers=None) -> list:
    """Layers in each stage: stage_layers if given, else as even a split as possible."""
    if stage_layers is None:
        base, extra = divmod(num_layers, num_stages)
        if base == 0:
            raise ConfigurationError(f"cannot split {num_layers} layers into {num_stages} stages")
        stage_layers = [base + (1 if i < extra else 0) for i in range(num_stages)]
    if len(stage_layers) != num_stages or sum(stage_layers) != num_layers or min(stage_layers) < 1:
        raise ConfigurationError(
            f"stage layer counts {stage_layers} do not partition {num_layers} layers "
            f"into {num_stages} stages"
        )
    return list(stage_layers)


def build_stage_partition(layer_extents, num_stages: int, stage_layers=None) -> tuple:
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
    Only valid until the next call on the same thread, so callers must
    finish drawing before requesting another stream.
    """
    key = _stream_key(seed, step, example_index)
    bit_gen = getattr(_stream_pool, "bit_gen", None)
    if bit_gen is None:
        bit_gen = _stream_pool.bit_gen = np.random.Philox(key=key)
        return np.random.Generator(bit_gen)
    state = bit_gen.state
    state["state"].update(key=key, counter=np.zeros(4, dtype=np.uint64))
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def sample_noise(rng: np.random.Generator, dim: int, dtype, scale: float) -> np.ndarray:
    return rng.standard_normal(dim, dtype=dtype) * dtype.type(scale)


def _per_example_std(cfg: DpConfig) -> float:
    """Per-coordinate noise std sigma C / sqrt(|B|): |B| such draws sum to variance sigma^2 C^2."""
    return cfg.noise_multiplier * cfg.clip_norm / np.sqrt(cfg.effective_batch)


def noise_per_example(gradient: FlatGradient, cfg: DpConfig, rng: np.random.Generator) -> FlatGradient:
    """Add i.i.d. Gaussian noise with per-coordinate variance
    sigma^2 * C^2 / |B| to an already clipped gradient."""
    if cfg.noise_multiplier == 0.0:
        return gradient
    noise = sample_noise(rng, gradient.dim, gradient.values.dtype, _per_example_std(cfg))
    return replace(gradient, values=gradient.values + noise)


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
    return replace(template, values=total / template.values.dtype.type(batch_size))


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


def _clip_slices(cfg: DpConfig, num_layers: int, stage_layers=None) -> tuple:
    """The clip slice of each parameterised layer, and the bound on each slice."""
    if cfg.mode == "global":
        return np.zeros(num_layers, dtype=np.intp), cfg.clip_norm
    if cfg.mode == "per_layer":
        return np.arange(num_layers), cfg.clip_norm / np.sqrt(num_layers)
    counts = _stage_layer_counts(num_layers, cfg.num_stages, stage_layers)
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
    start_step: int = 0,
    accountant_hook=None,
    metrics_hook=None,
    stage_layers=None,
):
    """One pass over the given batches of example indices.

    Each effective batch runs in chunks of models.chunk_size examples. For a
    chunk: per-example gradients and their float64 squared norms per layer,
    one clip factor per example and slice, and the factor-weighted sum added
    to the batch total. Then each example's noise is drawn in batch order,
    the mean takes one sgd step, and the accountant and metrics hooks fire
    once. Returns the RunRecords for the epoch; a failed step leaves params
    at the last completed step. A non-finite per-example norm raises
    NonFiniteGradientError naming the step, the batch position and the layer.
    """
    from .metrics import record_step

    slice_of_layer, bound = _clip_slices(cfg, len(params.layouts), stage_layers)
    slice_starts = np.flatnonzero(np.diff(slice_of_layer, prepend=-1))
    per_example_noise = cfg.noise_multiplier != 0.0 and cfg.noise_placement == "per_example"
    per_example_std = _per_example_std(cfg)
    batch_noise = cfg.noise_multiplier != 0.0 and cfg.noise_placement == "batch"
    chunk = models.chunk_size(params)
    extents = params.layer_extents
    dtype = params.flat.dtype
    sum_clipped = np.empty(params.dim, dtype=dtype)
    clipped_views = models.gradient_views(params, sum_clipped)

    records = []
    step = start_step
    batch_size = dtype.type(cfg.effective_batch)
    for batch in batches:
        if len(batch) != cfg.effective_batch:
            raise ProtocolError(
                f"batch of {len(batch)} examples does not match effective batch "
                f"{cfg.effective_batch}"
            )
        sum_clipped.fill(0)
        loss_sum = 0.0
        for start in range(0, len(batch), chunk):
            rows = batch[start : start + chunk]
            losses, grads = models.example_gradients(spec, params, examples[rows], labels[rows])
            sq_norms = np.array([layer_grads.sq_norms() for layer_grads in grads])
            _check_finite_norms(sq_norms, step, start, extents)
            factors = clip_factors(np.add.reduceat(sq_norms, slice_starts), bound, dtype)
            models.add_weighted_sums(clipped_views, grads, factors[slice_of_layer].astype(dtype))
            loss_sum += float(losses.sum())

        noise_total = np.zeros(params.dim, dtype=dtype)
        if per_example_noise:
            for position in range(len(batch)):
                noise_total += sample_noise(_reused_noise_stream(cfg.seed, step, position),
                                            params.dim, dtype, per_example_std)
        elif batch_noise:
            noise_total += sample_noise(
                _reused_noise_stream(cfg.seed, step, _BATCH_STREAM_INDEX),
                params.dim, dtype, cfg.noise_multiplier * cfg.clip_norm,
            )
        mean_grad = (sum_clipped + noise_total) / batch_size

        params, opt_state = sgd_step(params, FlatGradient(mean_grad, extents), lr, opt_state)
        step += 1
        epsilon = accountant_hook(step) if accountant_hook is not None else float("inf")
        record = record_step(
            FlatGradient(sum_clipped, extents),
            FlatGradient(noise_total, extents),
            step=step,
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

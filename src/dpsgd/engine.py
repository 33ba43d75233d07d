"""Clip, noise, accumulate, and step: the private training engine.

Every per-example gradient is clipped (globally, per-layer, or per-stage)
and noised with an independent counter-based Gaussian stream. Training runs
each batch in chunks of examples: per-example squared norms, clip factors
and the clipped sum are computed for a whole chunk at once. Noise streams
are Philox-keyed by (seed, step, example index), so no draw depends on the
order in which examples are computed; draws use numpy's standard ziggurat
normal transform.

A step's noise is k Philox streams of std sigma C / sqrt(k), summed in
stream order: one per batch position, the one whole-batch stream, or none at
sigma = 0. NoiseDraws draws them on the calling thread and one helper thread
per further CPU. The helpers start when the step starts and draw while the
caller computes; the caller draws what is left and joins them. Each thread
adds the one stream it drew in its turn. experiment.run_experiment holds
OpenBLAS to one thread for the whole run (one_blas_thread), so that the
second CPU goes to the helpers. The bytes depend on neither the number of
drawing threads nor the number of BLAS threads.
"""

from __future__ import annotations

import contextlib
import functools
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
        if not 0.0 <= self.noise_multiplier < math.inf:
            raise ConfigurationError(f"noise_multiplier: must be finite and >= 0, got {self.noise_multiplier}")
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
    """dim draws from rng times scale, in dtype, written into out, which is
    allocated when not given."""
    out = np.empty(dim, dtype=dtype) if out is None else out
    rng.standard_normal(dim, dtype=dtype, out=out)
    out *= dtype.type(scale)
    return out


# The draw functions as defined here. Helper threads draw through these: the
# module attributes may be replaced by a profiler or test hook, which must
# only ever run on the calling thread.
_IMPORTED_DRAW = (_reused_noise_stream, sample_noise)


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
    further CPU this process may run on, at most one per stream."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, streams)


class NoiseDraws:
    """Draws the noise streams of one train_epoch call's steps.

    The streams are the batch positions 0..B-1 in per-example placement, the
    one _BATCH_STREAM_INDEX in batch placement, and none at sigma = 0; each
    has std sigma C / sqrt(k) for k streams, so that a step's total has
    variance sigma^2 C^2 per coordinate. drawing_threads(k) - 1 helpers start
    on a step's streams when the step begins, and the caller draws whatever
    streams are left once its gradient chunks are done. Each thread takes the
    next position in the stream list from a shared counter, draws that stream
    into its own one-row buffer, and adds it to the step's total in its turn,
    once every earlier position is added. So the streams are added in order,
    and each drawing thread holds at most one row. While engine.sample_noise
    or engine._reused_noise_stream is replaced, the caller draws every stream,
    so that the replacement sees every draw.
    """

    def __init__(self, cfg: DpConfig, dim: int, dtype):
        self.cfg, self.dim, self.dtype, self.pool, self.helpers = cfg, dim, np.dtype(dtype), None, []
        if cfg.noise_multiplier == 0.0:
            self.streams = ()
        elif cfg.noise_placement == "per_example":
            self.streams = range(cfg.effective_batch)
        else:
            self.streams = (_BATCH_STREAM_INDEX,)
        self.std = cfg.noise_multiplier * cfg.clip_norm / math.sqrt(max(len(self.streams), 1))
        hooked = (_reused_noise_stream, sample_noise) != _IMPORTED_DRAW
        self.threads = 1 if hooked else drawing_threads(len(self.streams))
        # Signalled when a stream is added, and when the draws stop because a
        # helper failed or the train_epoch call is leaving.
        self.changed, self.stopped = threading.Condition(), False
        if self.threads > 1:
            # Imported here: concurrent.futures loads logging, about 7 ms that
            # runs without helpers need not pay.
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(self.threads - 1, thread_name_prefix="dpsgd-noise")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Stop and join the helpers, also when a step failed while they drew."""
        if self.pool is not None:
            self.stop()
            self.pool.shutdown(wait=True, cancel_futures=True)

    def stop(self) -> None:
        """Release every thread that draws or waits for its turn."""
        with self.changed:
            self.stopped = True
            self.changed.notify_all()

    def begin(self, step: int) -> None:
        """Start step's streams from a zero total and position 0, and hand them to the helpers."""
        self.step, self.total = step, np.zeros(self.dim, dtype=self.dtype)
        self.positions, self.added = itertools.count(), 0
        if self.pool is not None:
            self.helpers = [self.pool.submit(self.helper, step) for _ in range(self.threads - 1)]

    def helper(self, step: int) -> None:
        """One helper's streams of step. A failure stops the other threads before
        it propagates, so none of them waits for a row that will not come."""
        try:
            _helper_rows(self, step)
        except BaseException:
            self.stop()
            raise

    def draw(self, step: int, stream, sample) -> None:
        """Draw and add streams of step until the positions run out or the draws
        stop. Each next() on the shared itertools.count is one C call, so under
        the interpreter lock every position goes to exactly one thread."""
        row = np.empty(self.dim, dtype=self.dtype)
        while not self.stopped and (position := next(self.positions)) < len(self.streams):
            sample(stream(self.cfg.seed, step, self.streams[position]), self.dim, self.dtype, self.std, out=row)
            with self.changed:
                self.changed.wait_for(lambda: self.added == position or self.stopped)
                if self.stopped:
                    return
                self.total += row
                self.added += 1
                self.changed.notify_all()

    def total_noise(self) -> np.ndarray:
        """The begun step's noise total: the caller draws the streams left,
        waits until the last one is added and joins the helpers."""
        step = self.step
        self.draw(step, _reused_noise_stream, sample_noise)
        with self.changed:
            self.changed.wait_for(lambda: self.added == len(self.streams) or self.stopped)
        helpers, self.helpers = self.helpers, []
        for helper in helpers:
            try:
                helper.result()
            except Exception as exc:
                raise RuntimeError(f"noise draw failed at step {step}: {exc!r}") from exc
        return self.total


def _helper_rows(draws: NoiseDraws, step: int) -> None:
    """A helper thread's streams of step, drawn through _IMPORTED_DRAW."""
    draws.draw(step, *_IMPORTED_DRAW)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None if numpy did not load OpenBLAS. Found once, on first use,
    from the libraries mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                                   ("openblas_get_num_threads", "openblas_set_num_threads")):
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread, and restore the count it had on exit,
    also when the body raises. Without OpenBLAS, nothing is held."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def step_noise(cfg: DpConfig, step: int, dim: int, dtype) -> np.ndarray:
    """The noise total of one step, drawn by a NoiseDraws made for this call."""
    with NoiseDraws(cfg, dim, dtype) as draws:
        draws.begin(step)
        return draws.total_noise()


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


def _first_nonfinite_layer(values: np.ndarray, layer_extents) -> str:
    bad = int(np.argmin(np.isfinite(values)))
    for i, (offset, length) in enumerate(layer_extents):
        if offset <= bad < offset + length:
            return f"layer {i} (offset {offset}, length {length})"
    return f"coordinate {bad}"


def sgd_step(params: models.ParamSet, mean_grad: np.ndarray, lr: float, state: OptimizerState):
    """Momentum SGD update with the flat mean gradient g: v <- mu v + g; theta <- theta - lr v."""
    if mean_grad.size != params.dim or state.velocity.size != params.dim:
        raise ConfigurationError(
            f"dimension mismatch: params {params.dim}, gradient {mean_grad.size}, "
            f"velocity {state.velocity.size}"
        )
    if not np.isfinite(mean_grad).all():
        where = _first_nonfinite_layer(mean_grad, params.layer_extents)
        raise NonFiniteGradientError(f"non-finite gradient at step {state.step} in {where}")
    if state.momentum != 0.0:
        state.velocity *= state.velocity.dtype.type(state.momentum)
        state.velocity += mean_grad
    else:
        state.velocity[:] = mean_grad
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
    if not 0.0 < base_lr < math.inf:
        raise ConfigurationError(f"base_lr must be finite and positive, got {base_lr}")
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
):
    """One pass over the given batches of example indices.

    Each effective batch runs in chunks of models.chunk_size examples. For a
    chunk: per-example gradients and their float64 squared norms per layer,
    one clip factor per example and slice, and the factor-weighted sum added
    to the batch total. Then NoiseDraws adds up the step's noise total, the
    mean takes one sgd step, and the step's record is made. Helper threads
    start on the step's noise streams when the step starts and are joined
    when the call returns or raises. The step is opt_state.step, which
    sgd_step advances: it keys the noise, and the record reads it after the
    update. Returns the RunRecords for the epoch, with epsilon and accuracy
    not set: experiment.run_experiment prices and evaluates them. A failed
    step leaves params at the last completed step. A non-finite per-example
    norm raises NonFiniteGradientError naming the step, the batch position
    and the layer.
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

            noise_total = draws.total_noise()
            mean_grad = (sum_clipped + noise_total) / batch_size

            params, opt_state = sgd_step(params, mean_grad, lr, opt_state)
            records.append(metrics.record_step(
                sum_clipped, noise_total,
                step=opt_state.step,
                epoch=epoch,
                lr=lr,
                loss=loss_sum / cfg.effective_batch,
                sigma=cfg.noise_multiplier,
            ))
    return params, opt_state, records

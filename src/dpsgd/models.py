"""Desk-scale model definitions with batched per-example forward/backward.

A ModelSpec is an ordered list of layer descriptors; build_model turns it
into a ParamSet whose parameters live in one flat vector so the privacy
engine can clip and noise gradients as plain vectors. Every layer runs a
batch at once, but per-example gradients share no state: the gradient of
example x never depends on any other example in its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigurationError, PrivacyViolationError, ShapeError


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_features: int = 0
    out_channels: int = 0
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    groups: int = 32
    size: int = 2


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple
    input_shape: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))


def mlp_spec(input_dim: int, hidden: list[int], num_classes: int) -> ModelSpec:
    """Fully connected net: hidden linear+relu blocks, then a linear head.

    An empty hidden list gives a plain softmax-regression model.
    """
    layers = []
    for width in hidden:
        layers.append(LayerSpec("linear", out_features=width))
        layers.append(LayerSpec("relu"))
    layers.append(LayerSpec("linear", out_features=num_classes))
    return ModelSpec(tuple(layers), (input_dim,), num_classes)


def cnn_spec(
    input_shape: tuple,
    channels: tuple = (32, 32, 64, 64),
    groups: int = 32,
    num_classes: int = 10,
) -> ModelSpec:
    """Four conv -> group_norm -> relu blocks with two pooling stages."""
    layers = []
    for i, ch in enumerate(channels):
        layers.append(LayerSpec("conv2d", out_channels=ch, kernel=3, stride=1, padding=1))
        layers.append(LayerSpec("group_norm", groups=min(groups, ch)))
        layers.append(LayerSpec("relu"))
        if i in (1, len(channels) - 1):
            layers.append(LayerSpec("max_pool", size=2))
    layers.append(LayerSpec("flatten"))
    layers.append(LayerSpec("linear", out_features=num_classes))
    return ModelSpec(tuple(layers), tuple(input_shape), num_classes)


@dataclass(frozen=True)
class ParamLayout:
    """Where one parameterized layer's tensors live inside the flat vector."""

    layer_index: int
    offset: int
    length: int
    params: tuple  # of (name, shape, offset-within-flat, size)


@dataclass
class ParamSet:
    """All model parameters as one flat vector plus its layout."""

    flat: np.ndarray
    layouts: tuple
    spec: ModelSpec
    # Bytes one example holds in tapes and parameter gradients (build_model
    # measures it); 0 if unknown, which runs every batch as one chunk.
    example_bytes: int = 0

    def __post_init__(self):
        self._layout_by_layer = {lay.layer_index: lay for lay in self.layouts}

    @property
    def dim(self) -> int:
        return self.flat.size

    @property
    def layer_extents(self) -> tuple:
        return tuple((lay.offset, lay.length) for lay in self.layouts)

    def layout_for(self, layer_index: int) -> ParamLayout:
        return self._layout_by_layer[layer_index]

    def views(self, layout: ParamLayout, flat: np.ndarray | None = None) -> dict:
        """Name -> shaped view of one layer's parameters in flat (default: self.flat)."""
        flat = self.flat if flat is None else flat
        return {
            name: flat[offset : offset + size].reshape(shape)
            for name, shape, offset, size in layout.params
        }


def _no_params(layer, in_shape):
    return []


# kind -> (parameter shapes given one example's input shape, forward of a
# batch). The ops forward returns a tape holding the layer's backward, which
# ops.backward_layer runs. Forwards look their ops function up at call time,
# so wrappers set on ops (a tracer, a test) see every call.
LAYER_KINDS = {
    "linear": (
        lambda layer, s: [("weight", (layer.out_features, s[0])), ("bias", (layer.out_features,))],
        lambda layer, x, p: ops.linear_forward(x, p["weight"], p["bias"]),
    ),
    "conv2d": (
        lambda layer, s: [
            ("weight", (layer.out_channels, s[0], layer.kernel, layer.kernel)),
            ("bias", (layer.out_channels,)),
        ],
        lambda layer, x, p: ops.conv2d_forward(x, p["weight"], p["bias"], layer.stride, layer.padding),
    ),
    "group_norm": (
        lambda layer, s: [("gamma", (s[0],)), ("beta", (s[0],))],
        lambda layer, x, p: ops.group_norm_forward(x, p["gamma"], p["beta"], layer.groups),
    ),
    "relu": (_no_params, lambda layer, x, p: ops.relu_forward(x)),
    "max_pool": (_no_params, lambda layer, x, p: ops.max_pool_forward(x, layer.size)),
    "flatten": (_no_params, lambda layer, x, p: ops.flatten_forward(x)),
}

# Bytes of tapes and per-example gradients one chunk of a batch may hold:
# small enough that a 3x32x32 CNN runs one example per chunk, large enough
# that an MLP runs a batch of hundreds as one chunk.
CHUNK_BYTES = 2 << 20
# Rows per evaluation forward, at most. The MLP's (32, 64) x (64, 64) product
# stays below OpenBLAS's two-thread size (m n k over 262,144), whose idle
# worker would otherwise spin on the second CPU through the next epoch.
EVAL_ROWS = 32


def _layer_kind(idx: int, layer: LayerSpec) -> tuple:
    if layer.kind in ("batch_norm", "batchnorm"):
        raise PrivacyViolationError(
            f"layer {idx}: batch normalization mixes samples within a batch "
            "and is not allowed in a per-example-privacy model"
        )
    if layer.kind not in LAYER_KINDS:
        raise ConfigurationError(f"layer {idx}: unknown layer kind {layer.kind!r}")
    return LAYER_KINDS[layer.kind]


def build_model(spec: ModelSpec, seed: int, dtype=np.float32) -> ParamSet:
    """Initialize parameters: He fan-in scaling for weights, zeros for
    biases, gamma=1 / beta=0 for norms. Deterministic given the seed.
    Shapes, and the bytes one example holds, come from running each
    layer's forward once on a batch of one zero example."""
    rng = np.random.default_rng([int(seed), 1])
    layouts = []
    chunks = []
    offset = 0
    example_bytes = 0
    x = np.zeros((1, *spec.input_shape), dtype=dtype)
    for idx, layer in enumerate(spec.layers):
        param_shapes, forward = _layer_kind(idx, layer)
        entries = []
        start = offset
        for name, shape in param_shapes(layer, x.shape[1:]):
            size = int(np.prod(shape))
            if name == "weight":
                fan_in = int(np.prod(shape[1:]))
                values = rng.standard_normal(size) * np.sqrt(2.0 / fan_in)
            elif name == "gamma":
                values = np.ones(size)
            else:
                values = np.zeros(size)
            chunks.append(values.astype(dtype))
            entries.append((name, shape, offset, size))
            offset += size
        if entries:
            layouts.append(ParamLayout(idx, start, offset - start, tuple(entries)))
        try:
            x, tape = forward(layer, x, {name: np.zeros(shape, dtype) for name, shape, _, _ in entries})
        except (ConfigurationError, ShapeError) as exc:
            raise type(exc)(f"layer {idx}: {exc}") from exc
        example_bytes += tape.example_nbytes
    if x.shape != (1, spec.num_classes):
        raise ShapeError(f"model output shape {x.shape[1:]} does not match num_classes {spec.num_classes}")
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)
    return ParamSet(flat=flat, layouts=tuple(layouts), spec=spec, example_bytes=example_bytes)


def chunk_size(params: ParamSet) -> int:
    """Examples per chunk: as many as CHUNK_BYTES holds, at least one."""
    return max(1, CHUNK_BYTES // max(1, params.example_bytes))


def _forward(spec: ModelSpec, params: ParamSet, examples: np.ndarray):
    if tuple(examples.shape[1:]) != spec.input_shape:
        raise ShapeError(f"example shape {examples.shape[1:]} does not match model input {spec.input_shape}")
    x = examples.astype(params.flat.dtype, copy=False)
    tapes = []
    for idx, layer in enumerate(spec.layers):
        layout = params._layout_by_layer.get(idx)
        views = params.views(layout) if layout is not None else {}
        _, forward = _layer_kind(idx, layer)
        x, tape = forward(layer, x, views)
        tapes.append(tape)
    return x, tapes


def forward_logits(spec: ModelSpec, params: ParamSet, example: np.ndarray) -> np.ndarray:
    logits, _ = _forward(spec, params, example[None])
    return logits[0]


def example_gradients(spec: ModelSpec, params: ParamSet, examples: np.ndarray, labels: np.ndarray):
    """Per-example losses and parameter gradients of a batch.

    Returns (losses, grads): losses is float64 (b,), and grads holds one
    ops.LinearGrads or ops.StackedGrads per entry of params.layouts, in
    order. No value in example i's row depends on another example.
    """
    labels = np.asarray(labels)
    if labels.size and not (0 <= labels.min() and labels.max() < spec.num_classes):
        raise ValueError(f"label out of range [0, {spec.num_classes}): {labels}")
    logits, tapes = _forward(spec, params, examples)
    losses, upstream = ops.softmax_cross_entropy(logits, labels)
    grads = []
    for index in reversed(range(len(tapes))):
        # Layer 0's input is the data, which needs no gradient.
        upstream, layer_grads = ops.backward_layer(tapes[index], upstream, input_grad=index > 0)
        if layer_grads is not None:
            grads.append(layer_grads)
    return losses, grads[::-1]


def gradient_views(params: ParamSet, flat: np.ndarray) -> list:
    """For each entry of params.layouts, shaped views of flat (laid out like
    params.flat) for each of the layer's parameters."""
    return [list(params.views(layout, flat).values()) for layout in params.layouts]


def add_weighted_sums(views: list, grads: list, factors: np.ndarray) -> None:
    """views[l] += sum_i factors[l, i] * (example i's gradient of layer l)."""
    for layer_views, layer_grads, layer_factors in zip(views, grads, factors):
        for view, total in zip(layer_views, layer_grads.weighted_sum(layer_factors)):
            view += total


def per_example_gradient(spec: ModelSpec, params: ParamSet, example: np.ndarray, label: int):
    """Loss and flattened gradient of the single-example loss: a batch of
    one through example_gradients.

    The flattening order is identical to the ParamSet layout; per-layer
    extents are recorded so the gradient can be clipped layer- or
    stage-wise later.
    """
    losses, grads = example_gradients(spec, params, example[None], np.array([label]))
    grad = np.zeros(params.dim, dtype=params.flat.dtype)
    add_weighted_sums(gradient_views(params, grad), grads, np.ones((len(grads), 1), dtype=grad.dtype))
    from .engine import FlatGradient

    return float(losses[0]), FlatGradient(values=grad, layer_extents=params.layer_extents)


def evaluate_accuracy(spec: ModelSpec, params: ParamSet, examples: np.ndarray, labels: np.ndarray) -> float:
    """Share of examples whose argmax logit is the label, forwarded in chunks
    of at most EVAL_ROWS rows."""
    step = min(chunk_size(params), EVAL_ROWS)
    correct = 0
    for start in range(0, len(labels), step):
        logits, _ = _forward(spec, params, examples[start : start + step])
        correct += int(np.count_nonzero(logits.argmax(axis=1) == labels[start : start + step]))
    return correct / len(labels)

"""Desk-scale model definitions with per-example forward/backward.

A ModelSpec is an ordered list of layer descriptors; build_model turns it
into a ParamSet whose parameters live in one flat vector so the privacy
engine can clip and noise gradients as plain vectors. Per-example
gradients share no state across calls: the gradient of example x never
depends on any other example.
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

    def views(self, layout: ParamLayout) -> dict:
        flat = self.flat
        return {
            name: flat[offset : offset + size].reshape(shape)
            for name, shape, offset, size in layout.params
        }


def _group_norm_forward(layer: LayerSpec, x: np.ndarray, p: dict):
    # ops.group_norm_forward takes a batch: give it a batch of one.
    y, tape = ops.group_norm_forward(x[None], p["gamma"], p["beta"], layer.groups)
    return y[0], tape


def _no_params(layer, in_shape):
    return []


# kind -> (parameter shapes given the input shape, forward of one example).
# ops.backward_layer runs the backward. Forwards look their ops function up
# at call time, so wrappers set on ops (a tracer, a test) see every call.
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
    "group_norm": (lambda layer, s: [("gamma", (s[0],)), ("beta", (s[0],))], _group_norm_forward),
    "relu": (_no_params, lambda layer, x, p: ops.relu_forward(x)),
    "max_pool": (_no_params, lambda layer, x, p: ops.max_pool_forward(x, layer.size)),
    "flatten": (_no_params, lambda layer, x, p: ops.flatten_forward(x)),
}


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
    Shapes come from running each layer's forward once on zeros."""
    rng = np.random.default_rng([int(seed), 1])
    layouts = []
    chunks = []
    offset = 0
    x = np.zeros(spec.input_shape, dtype=dtype)
    for idx, layer in enumerate(spec.layers):
        param_shapes, forward = _layer_kind(idx, layer)
        entries = []
        start = offset
        for name, shape in param_shapes(layer, x.shape):
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
            x, _ = forward(layer, x, {name: np.zeros(shape, dtype) for name, shape, _, _ in entries})
        except (ConfigurationError, ShapeError) as exc:
            raise type(exc)(f"layer {idx}: {exc}") from exc
    if x.shape != (spec.num_classes,):
        raise ShapeError(f"model output shape {x.shape} does not match num_classes {spec.num_classes}")
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)
    return ParamSet(flat=flat, layouts=tuple(layouts), spec=spec)


def _forward(spec: ModelSpec, params: ParamSet, example: np.ndarray):
    if tuple(example.shape) != spec.input_shape:
        raise ShapeError(f"example shape {example.shape} does not match model input {spec.input_shape}")
    x = example.astype(params.flat.dtype, copy=False)
    tapes = []
    for idx, layer in enumerate(spec.layers):
        layout = params._layout_by_layer.get(idx)
        views = params.views(layout) if layout is not None else {}
        _, forward = _layer_kind(idx, layer)
        x, tape = forward(layer, x, views)
        tapes.append(tape)
    return x, tapes


def forward_logits(spec: ModelSpec, params: ParamSet, example: np.ndarray) -> np.ndarray:
    logits, _ = _forward(spec, params, example)
    return logits


def per_example_gradient(spec: ModelSpec, params: ParamSet, example: np.ndarray, label: int):
    """Loss and flattened gradient of the single-example loss.

    The flattening order is identical to the ParamSet layout; per-layer
    extents are recorded so the gradient can be clipped layer- or
    stage-wise later.
    """
    if not 0 <= int(label) < spec.num_classes:
        raise ValueError(f"label {label} out of range [0, {spec.num_classes})")
    logits, tapes = _forward(spec, params, example)
    loss, upstream = ops.softmax_cross_entropy(logits, int(label))
    grad = np.zeros(params.dim, dtype=params.flat.dtype)
    for idx, tape in reversed(list(enumerate(tapes))):
        # Group norm's tape has a batch axis of one: match each tape's shape.
        upstream, param_grads = ops.backward_layer(tape, upstream.reshape(tape.output_shape))
        layout = params._layout_by_layer.get(idx)
        if layout is not None:
            for (name, shape, offset, size), g in zip(layout.params, param_grads):
                grad[offset : offset + size] = g.reshape(-1)
    from .engine import FlatGradient

    return loss, FlatGradient(values=grad, layer_extents=params.layer_extents)


def evaluate_accuracy(spec: ModelSpec, params: ParamSet, examples: np.ndarray, labels: np.ndarray) -> float:
    correct = 0
    for x, y in zip(examples, labels):
        logits = forward_logits(spec, params, x)
        correct += int(np.argmax(logits)) == int(y)
    return correct / len(labels)

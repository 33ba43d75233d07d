"""Experiment configuration: a flat key = value file with dotted keys.

Example:

    model.kind = mlp
    model.input_shape = 64
    model.hidden = 64
    model.classes = 10

    data.source = synth
    data.per_class = 1000
    data.spread = 0.3

    dp.clip_norm = 1.0
    dp.noise_multiplier = 1.0
    dp.grad_acc_count = 32

    train.epochs = 3
    train.seed = 7
    train.output_dir = runs/demo

Lines starting with '#' are comments; ' #' starts an inline comment.
Lists are comma separated. Every parse failure names the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import models
from .engine import DpConfig
from .errors import ConfigurationError


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(text: str, element):
    text = text.strip()
    if not text:
        return []
    return [element(part.strip()) for part in text.split(",")]


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "int_list": lambda t: _parse_list(t, int),
    "float_list": lambda t: _parse_list(t, float),
}

# key -> (type tag, default); required keys carry the REQUIRED sentinel.
REQUIRED = object()

SCHEMA = {
    "model.kind": ("str", "mlp"),
    "model.input_shape": ("int_list", [64]),
    "model.hidden": ("int_list", [64]),
    "model.channels": ("int_list", [32, 32, 64, 64]),
    "model.classes": ("int", 10),
    "model.groups": ("int", 32),
    "data.source": ("str", "synth"),
    "data.per_class": ("int", 100),
    "data.eval_per_class": ("int", 0),
    "data.spread": ("float", 0.3),
    "data.seed": ("int", 1),
    "data.images": ("str", ""),
    "data.labels": ("str", ""),
    "data.eval_images": ("str", ""),
    "data.eval_labels": ("str", ""),
    "data.path": ("str", ""),
    "data.eval_path": ("str", ""),
    "dp.enabled": ("bool", True),
    "dp.clip_norm": ("float", 1.0),
    "dp.noise_multiplier": ("float", 1.0),
    "dp.mode": ("str", "global"),
    "dp.num_stages": ("int", 1),
    "dp.stage_layers": ("int_list", []),
    "dp.grad_acc_count": ("int", 1),
    "dp.replicas": ("int", 1),
    "dp.noise_placement": ("str", "per_example"),
    "optimizer.momentum": ("float", 0.9),
    "optimizer.base_lr": ("float", 0.01),
    "optimizer.lr_scaling": ("bool", True),
    "optimizer.decay_epochs": ("int_list", []),
    "optimizer.decay_factor": ("float", 0.1),
    "train.epochs": ("int", REQUIRED),
    "train.delta": ("float", 1e-5),
    "train.seed": ("int", 0),
    "train.workers": ("int", 1),  # no effect; kept so that existing configs parse
    "train.precision": ("str", "f32"),
    "train.output_dir": ("str", REQUIRED),
    "sweep.grad_acc_count": ("int_list", []),
    "sweep.noise_multiplier": ("float_list", []),
    "sweep.clip_norm": ("float_list", []),
}


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def with_overrides(self, **dotted) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in dotted.items():
            merged[key.replace("__", ".")] = value
        return ExperimentConfig(merged)


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    raw = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{origin}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split(" #", 1)[0].strip()
        if key not in SCHEMA:
            raise ConfigurationError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigurationError(f"{origin}:{line_no}: duplicate key {key!r}")
        raw[key] = (value, line_no)

    values = {}
    for key, (tag, default) in SCHEMA.items():
        if key in raw:
            text_value, line_no = raw[key]
            try:
                values[key] = _PARSERS[tag](text_value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{origin}:{line_no}: bad value for {key!r}: {exc}"
                ) from exc
        elif default is REQUIRED:
            raise ConfigurationError(f"{origin}: missing required key {key!r}")
        else:
            values[key] = default.copy() if isinstance(default, list) else default

    config = ExperimentConfig(values)
    _validate(config, origin)
    return config


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


# DpConfig fields read from the dp.* key of the same name.
_DP_FIELDS = (
    "clip_norm", "noise_multiplier", "mode", "num_stages", "stage_layers", "grad_acc_count", "replicas",
    "noise_placement",
)


def _validate(config: ExperimentConfig, origin: str) -> None:
    def fail(key, message):
        raise ConfigurationError(f"{origin}: {key}: {message}")

    if config["model.kind"] not in ("mlp", "cnn"):
        fail("model.kind", f"must be 'mlp' or 'cnn', got {config['model.kind']!r}")
    source = config["data.source"]
    if source not in ("synth", "idx", "csv"):
        fail("data.source", f"must be one of synth, idx, csv; got {source!r}")
    if source == "idx" and (not config["data.images"] or not config["data.labels"]):
        fail("data.images", "idx source needs data.images and data.labels")
    if source == "csv" and not config["data.path"]:
        fail("data.path", "csv source needs data.path")
    for key in ("model.input_shape", "model.hidden", "model.channels"):
        if min(config[key], default=1) < 1:
            fail(key, f"entries must be >= 1, got {config[key]}")
    for key in ("model.groups", "model.classes", "data.per_class"):
        if config[key] < 1:
            fail(key, f"must be >= 1, got {config[key]}")
    if source == "synth" and math.prod(config["model.input_shape"]) < config["model.classes"]:
        fail("model.input_shape", f"synthetic data needs at least {config['model.classes']} values (model.classes) "
                                  f"per example, got {config['model.input_shape']}")
    length, what = (1, "a single dimension") if config["model.kind"] == "mlp" else (3, "c,h,w")
    if len(config["model.input_shape"]) != length:
        fail("model.input_shape", f"{config['model.kind']} needs {what}, got {config['model.input_shape']}")
    # A sweep runs train.seed + i at its i-th point, and the noise keys take seeds modulo 2**64.
    points = math.prod(len(config[key]) or 1 for key in ("sweep.grad_acc_count", "sweep.noise_multiplier",
                                                          "sweep.clip_norm"))
    if not 0 <= config["train.seed"] <= 2**64 - points:
        fail("train.seed", f"must lie in [0, 2**64 - {points}], so that each of the {points} run seeds "
                           f"is below 2**64; got {config['train.seed']}")
    if not 0.0 <= config["data.spread"] < math.inf:
        fail("data.spread", f"must be finite and >= 0, got {config['data.spread']}")
    for key in ("data.eval_per_class", "data.seed"):
        if config[key] < 0:
            fail(key, f"must be >= 0, got {config[key]}")
    try:
        DpConfig(**{field: config[f"dp.{field}"] for field in _DP_FIELDS})
    except ConfigurationError as exc:
        raise ConfigurationError(f"{origin}: dp.{exc}") from exc
    if config["dp.enabled"] and not math.isfinite(config["dp.clip_norm"]):
        fail("dp.clip_norm", f"must be finite with dp.enabled on, got {config['dp.clip_norm']}")
    if config["train.epochs"] < 0:
        fail("train.epochs", "must be >= 0")
    if not 0.0 < config["train.delta"] < 1.0:
        fail("train.delta", "must lie in (0, 1)")
    if config["train.workers"] < 1:
        fail("train.workers", "must be >= 1")
    if config["train.precision"] not in ("f32", "f64"):
        fail("train.precision", f"must be f32 or f64, got {config['train.precision']!r}")
    if not 0.0 < config["optimizer.base_lr"] < math.inf:
        fail("optimizer.base_lr", f"must be finite and > 0, got {config['optimizer.base_lr']}")
    if not 0.0 <= config["optimizer.momentum"] < 1.0:
        fail("optimizer.momentum", "must lie in [0, 1)")
    if not 0.0 < config["optimizer.decay_factor"] < math.inf:
        fail("optimizer.decay_factor", f"must be finite and > 0, got {config['optimizer.decay_factor']}")


def build_model_spec(config: ExperimentConfig) -> models.ModelSpec:
    shape, classes = config["model.input_shape"], config["model.classes"]
    if config["model.kind"] == "mlp":
        return models.mlp_spec(shape[0], config["model.hidden"], classes)
    return models.cnn_spec(tuple(shape), tuple(config["model.channels"]), config["model.groups"], classes)


def build_datasets(config: ExperimentConfig):
    """Train and eval datasets per the configured source, each label in [0, model.classes)."""
    source = config["data.source"]
    classes = config["model.classes"]
    if source == "synth":
        shape = tuple(config["model.input_shape"])
        train = data_mod.synth_blobs(
            classes, config["data.per_class"], shape, config["data.spread"], config["data.seed"],
        )
        eval_per_class = config["data.eval_per_class"] or max(config["data.per_class"] // 5, 1)
        evaluation = data_mod.synth_blobs(
            classes, eval_per_class, shape, config["data.spread"], config["data.seed"] + 1,
            split="eval",
        )
        datasets = train, evaluation
    elif source == "idx":
        loaded = data_mod.load_idx(config["data.images"], config["data.labels"])
        if config["data.eval_images"]:
            datasets = loaded, data_mod.load_idx(config["data.eval_images"], config["data.eval_labels"], "eval")
        else:
            datasets = split_holdout(loaded)
    else:
        loaded = data_mod.load_labeled_csv(config["data.path"])
        if config["data.eval_path"]:
            datasets = loaded, data_mod.load_labeled_csv(config["data.eval_path"], "eval")
        else:
            datasets = split_holdout(loaded)
    for dataset in datasets:
        bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels >= classes))
        if bad.size:
            raise ConfigurationError(f"model.classes: {dataset.source}, {dataset.split} split, row {bad[0]} "
                                     f"(from 0): label {dataset.labels[bad[0]]} is outside [0, {classes})")
    return datasets


def split_holdout(loaded: data_mod.Dataset, fraction: float = 0.1):
    """Split off the trailing fraction as a disjoint evaluation set."""
    cut = max(int(loaded.size * fraction), 1)
    if cut >= loaded.size:
        raise ConfigurationError(f"dataset of {loaded.size} examples is too small to split")
    train = data_mod.Dataset(
        loaded.examples[:-cut], loaded.labels[:-cut], split="train", source=loaded.source
    )
    evaluation = data_mod.Dataset(
        loaded.examples[-cut:], loaded.labels[-cut:], split="eval", source=loaded.source
    )
    return train, evaluation


def build_dp_config(config: ExperimentConfig) -> DpConfig:
    values = {field: config[f"dp.{field}"] for field in _DP_FIELDS}
    if not config["dp.enabled"]:
        values.update(clip_norm=float("inf"), noise_multiplier=0.0, mode="global", stage_layers=())
    return DpConfig(**values, seed=config["train.seed"])


def dtype_for(config: ExperimentConfig):
    return np.float64 if config["train.precision"] == "f64" else np.float32

"""Dataset loading and batch sampling.

Sources: IDX image/label file pairs, labeled CSV, and synthetic Gaussian
blob generators sized for fast deterministic experiments. Datasets are
immutable after load; batch sampling is pure given (seed, epoch).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    examples: np.ndarray
    labels: np.ndarray
    split: str = "train"
    source: str = ""

    def __post_init__(self):
        if len(self.examples) != len(self.labels):
            raise DataFormatError(
                f"{len(self.examples)} examples but {len(self.labels)} labels"
            )
        if len(self.examples) < 1:
            raise DataFormatError(f"{self.source or 'dataset'}, {self.split} split: dataset is empty")

    @property
    def size(self) -> int:
        return len(self.labels)


def _read_be32(handle, path, what):
    raw = handle.read(4)
    if len(raw) != 4:
        raise DataFormatError(f"{path}: truncated while reading {what} at byte {handle.tell() - len(raw)}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled to [0, 1].

    Image files carry big-endian magic 0x00000803, label files 0x00000801.
    """
    with open(images_path, "rb") as handle:
        magic = _read_be32(handle, images_path, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: expected image magic {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x} at byte 0"
            )
        count = _read_be32(handle, images_path, "image count")
        rows = _read_be32(handle, images_path, "row count")
        cols = _read_be32(handle, images_path, "column count")
        payload = handle.read()
        expected = count * rows * cols
        if len(payload) != expected:
            raise DataFormatError(
                f"{images_path}: expected {expected} pixel bytes after byte 16, got {len(payload)}"
            )
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, 1, rows, cols)
    with open(labels_path, "rb") as handle:
        magic = _read_be32(handle, labels_path, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: expected label magic {IDX_LABEL_MAGIC:#010x}, got {magic:#010x} at byte 0"
            )
        label_count = _read_be32(handle, labels_path, "label count")
        payload = handle.read()
        if len(payload) != label_count:
            raise DataFormatError(
                f"{labels_path}: expected {label_count} label bytes after byte 8, got {len(payload)}"
            )
        labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise DataFormatError(
            f"image count {count} ({images_path}) does not match label count {label_count} ({labels_path})"
        )
    examples = images.astype(np.float32) / np.float32(255.0)
    return Dataset(examples, labels, split=split, source=f"idx:{images_path}")


def load_labeled_csv(path, split: str = "train") -> Dataset:
    """Load `label,f0,f1,...` rows into a float vector dataset."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise DataFormatError(f"{path}: first header column must be 'label', got {header}")
        width = len(header) - 1
        labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise DataFormatError(f"{path}: line {line_no} has {len(row)} fields, expected {width + 1}")
            try:
                labels.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {line_no}: {exc}") from exc
    with np.errstate(over="ignore"):  # a value past the float32 range becomes inf, rejected below
        examples = np.asarray(rows, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(examples))
    if bad.size:
        row, column = bad[0]
        raise DataFormatError(f"{path}: line {row + 2}: feature {column} is not finite in float32: "
                              f"{rows[row][column]}")
    return Dataset(
        examples,
        np.asarray(labels, dtype=np.int64),
        split=split,
        source=f"csv:{path}",
    )


def synth_blobs(num_classes: int, per_class: int, shape, spread: float, seed: int,
                split: str = "train") -> Dataset:
    """Gaussian clusters with unit-separated means, deterministic per seed.

    shape may be an int (vector data) or an image shape tuple; its flat
    dimension must be at least num_classes so every class gets its own
    axis-aligned mean.
    """
    if per_class < 1:
        raise ConfigurationError(f"per_class must be >= 1, got {per_class}")
    dims = (int(shape),) if np.isscalar(shape) else tuple(int(v) for v in shape)
    dim = int(np.prod(dims))
    if dim < num_classes:
        raise ConfigurationError(f"flat dimension {dim} is smaller than num_classes {num_classes}")
    rng = np.random.default_rng([int(seed), 3])
    # Means on scaled one-hot axes: distance between any two is exactly 1.
    means = np.zeros((num_classes, dim), dtype=np.float64)
    for k in range(num_classes):
        means[k, k] = 1.0 / np.sqrt(2.0)
    labels = np.repeat(np.arange(num_classes), per_class)
    points = means[labels] + spread * rng.standard_normal((labels.size, dim))
    examples = points.astype(np.float32).reshape(labels.size, *dims)
    return Dataset(examples, labels.astype(np.int64), split=split, source=f"synth:{seed}")


def sample_batches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Shuffle then partition into floor(N / batch) batches of exactly
    batch_size indices; the remainder is dropped."""
    if batch_size > dataset.size:
        raise ConfigurationError(
            f"batch size {batch_size} exceeds dataset size {dataset.size}"
        )
    rng = np.random.default_rng([int(seed), 2, int(epoch)])
    permutation = rng.permutation(dataset.size)
    num_batches = dataset.size // batch_size
    return [permutation[i * batch_size : (i + 1) * batch_size] for i in range(num_batches)]

"""Per-step training instrumentation and its CSV schema.

Norms are always computed in 64-bit regardless of the training precision.
The logged gradient norm is the norm of the *summed* clipped per-example
gradients (not divided by the batch size), and the noise norm is the norm
of the step's total injected noise; their ratio is the step's
signal-to-noise value. With noise disabled the ratio is left absent
rather than forced to a number.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError

CSV_FIELDS = ("step", "epoch", "lr", "loss", "accuracy", "grad_norm", "noise_norm", "snr", "epsilon")


@dataclass
class RunRecord:
    step: int
    epoch: int
    lr: float
    loss: float
    accuracy: float | None
    grad_norm: float
    noise_norm: float
    snr: float | None
    epsilon: float | None = None


def record_step(sum_clipped: np.ndarray, noise_total: np.ndarray, *, step: int, epoch: int,
                lr: float, loss: float, sigma: float) -> RunRecord:
    """Build the metrics row for one optimizer step from the flat summed clipped
    gradient and noise total; the run fills in epsilon, and accuracy per epoch."""
    if sum_clipped.size != noise_total.size:
        raise ShapeError(
            f"gradient and noise dimensions differ: {sum_clipped.size} vs {noise_total.size}"
        )
    grad_norm = float(np.linalg.norm(sum_clipped.astype(np.float64, copy=False)))
    noise_norm = float(np.linalg.norm(noise_total.astype(np.float64, copy=False)))
    if sigma == 0.0:
        snr = None
    elif noise_norm == 0.0:
        snr = math.inf
    else:
        snr = grad_norm / noise_norm
    return RunRecord(step=step, epoch=epoch, lr=lr, loss=loss, accuracy=None, grad_norm=grad_norm,
                     noise_norm=noise_norm, snr=snr)


def format_float(value: float) -> str:
    """Nine significant digits; infinities spelled as 'inf'."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.9g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format_float(float(value))


@contextlib.contextmanager
def replacing(path, binary: bool = False):
    """A new file that replaces path only once the body returns: written as a
    temporary file in path's directory, then renamed over path. If the body
    raises, the temporary file is removed and path keeps its old bytes."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") if binary else open(temporary, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_csv(records, path) -> None:
    """Write header plus one row per record (UTF-8, LF line endings), replacing path whole."""
    try:
        with replacing(path) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            for record in records:
                writer.writerow([_cell(getattr(record, name)) for name in CSV_FIELDS])
    except OSError as exc:
        raise RuntimeError(f"could not write metrics CSV at {path}: {exc}") from exc


def read_csv(path):
    """Parse a metrics CSV back into RunRecords (floats at printed precision)."""

    def _opt(text):
        if text == "":
            return None
        return math.inf if text == "inf" else float(text)

    records = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append(
                RunRecord(
                    step=int(row["step"]),
                    epoch=int(row["epoch"]),
                    lr=float(row["lr"]),
                    loss=float(row["loss"]),
                    accuracy=_opt(row["accuracy"]),
                    grad_norm=float(row["grad_norm"]),
                    noise_norm=float(row["noise_norm"]),
                    snr=_opt(row["snr"]),
                    epsilon=_opt(row["epsilon"]) if row["epsilon"] else math.inf,
                )
            )
    return records

"""Run orchestration: single runs, sweeps, and accountant queries.

A run is fully determined by its config: data, init, shuffles and noise
all derive from the configured seeds, so re-running a config reproduces
its CSV byte for byte. Sweep grid point i runs with train.seed + i, and
can be re-run alone with train.seed set to that derived seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accounting, config as config_mod, data as data_mod, engine, metrics, models
from .errors import ConfigurationError

FRONTIER_FIELDS = ("grad_acc", "sigma", "clip", "best_accuracy", "best_epoch", "epsilon_at_best", "status")


@dataclass
class RunResult:
    run_id: str
    csv_path: Path
    params_path: Path
    final_accuracy: float
    final_epsilon: float
    best_accuracy: float
    best_epoch: int
    epsilon_at_best: float
    wall_clock: float
    records: list


def _num(value: float) -> str:
    return f"{value:g}"


def run_id_for(cfg: config_mod.ExperimentConfig) -> str:
    dp = cfg["dp.enabled"]
    tag = (
        f"ga{cfg['dp.grad_acc_count'] * cfg['dp.replicas']}"
        f"_sig{_num(cfg['dp.noise_multiplier']) if dp else 'off'}"
        f"_clip{_num(cfg['dp.clip_norm']) if dp else 'off'}"
    )
    return f"{tag}_seed{cfg['train.seed']}"


def _make_accountant_hook(dataset_size: int, dp_cfg: engine.DpConfig, delta: float):
    """Epsilon after a given number of steps, from one per-step curve; inf when sigma = 0."""
    if dp_cfg.noise_multiplier == 0.0:
        return lambda step: math.inf
    ratio = dp_cfg.effective_batch / dataset_size
    step_curve = accounting.per_step_curve(ratio, dp_cfg.noise_multiplier)
    return lambda step: accounting.epsilon_after(step_curve, step, delta)[0]


def run_experiment(cfg: config_mod.ExperimentConfig) -> RunResult:
    """Train per the config, price each record's step, and write `<run_id>.csv` plus a params blob."""
    start = time.monotonic()
    seed = cfg["train.seed"]

    spec = config_mod.build_model_spec(cfg)
    train_set, eval_set = config_mod.build_datasets(cfg)
    dp_cfg = config_mod.build_dp_config(cfg)
    dtype = config_mod.dtype_for(cfg)
    if dp_cfg.effective_batch > train_set.size:
        raise ConfigurationError(
            f"dp.grad_acc_count: effective batch {dp_cfg.effective_batch} (dp.grad_acc_count x dp.replicas) "
            f"exceeds dataset size {train_set.size}"
        )

    # One OpenBLAS thread for the whole run: the second CPU goes to the noise helpers.
    with engine.one_blas_thread():
        params = models.build_model(spec, seed, dtype=dtype)
        opt_state = engine.OptimizerState(
            velocity=np.zeros(params.dim, dtype=dtype),
            momentum=cfg["optimizer.momentum"],
        )
        price = _make_accountant_hook(train_set.size, dp_cfg, cfg["train.delta"])

        records: list[metrics.RunRecord] = []
        for epoch in range(cfg["train.epochs"]):
            lr = engine.lr_schedule(
                epoch,
                cfg["optimizer.base_lr"],
                dp_cfg.grad_acc_count,
                cfg["optimizer.decay_epochs"],
                cfg["optimizer.decay_factor"],
                cfg["optimizer.lr_scaling"],
            )
            batches = data_mod.sample_batches(train_set, dp_cfg.effective_batch, seed, epoch)
            params, opt_state, epoch_records = engine.train_epoch(
                spec, params, train_set.examples, train_set.labels, batches, dp_cfg, lr, opt_state,
                epoch=epoch,
            )
            for record in epoch_records:
                record.epsilon = price(record.step)
            epoch_records[-1].accuracy = models.evaluate_accuracy(spec, params, eval_set.examples, eval_set.labels)
            records.extend(epoch_records)
        # An epoch's (accuracy, epsilon) is its last record's, the one that was evaluated.
        per_epoch = [(r.accuracy, r.epsilon) for r in records if r.accuracy is not None]
        if not per_epoch:  # zero epochs: the untrained model, and no privacy spent
            per_epoch.append((models.evaluate_accuracy(spec, params, eval_set.examples, eval_set.labels), 0.0))

    # Made only now, so that a run that fails leaves no empty output directory.
    out_dir = Path(cfg["train.output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = run_id_for(cfg)
    csv_path = out_dir / f"{run_id}.csv"
    metrics.emit_csv(records, csv_path)
    params_path = out_dir / f"{run_id}_params.npz"
    with metrics.replacing(params_path, binary=True) as handle:
        np.savez(handle, flat=params.flat, seed=seed, dim=params.dim)

    best_epoch = int(np.argmax([accuracy for accuracy, _ in per_epoch]))
    return RunResult(
        run_id=run_id,
        csv_path=csv_path,
        params_path=params_path,
        final_accuracy=per_epoch[-1][0],
        final_epsilon=per_epoch[-1][1],
        best_accuracy=per_epoch[best_epoch][0],
        best_epoch=best_epoch,
        epsilon_at_best=per_epoch[best_epoch][1],
        wall_clock=time.monotonic() - start,
        records=records,
    )


def summary_line(result: RunResult) -> str:
    return (
        f"run={result.run_id} final_accuracy={result.final_accuracy:.4f} "
        f"final_epsilon={metrics.format_float(result.final_epsilon)} "
        f"wall_clock_s={result.wall_clock:.2f}"
    )


def sweep_points(cfg: config_mod.ExperimentConfig):
    """Cartesian product of the configured sweep axes, scalar fallbacks."""
    ga_axis = cfg["sweep.grad_acc_count"] or [cfg["dp.grad_acc_count"]]
    sigma_axis = cfg["sweep.noise_multiplier"] or [cfg["dp.noise_multiplier"]]
    clip_axis = cfg["sweep.clip_norm"] or [cfg["dp.clip_norm"]]
    return list(itertools.product(ga_axis, sigma_axis, clip_axis))


def run_sweep(cfg: config_mod.ExperimentConfig):
    """One run per grid point plus a combined frontier CSV.

    A failed point becomes a frontier row with its error in the status
    column; the sweep continues.
    """
    points = sweep_points(cfg)
    if not points:
        raise ConfigurationError("sweep invoked with empty axes")
    out_dir = Path(cfg["train.output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = cfg["train.seed"]

    rows = []
    results = []
    for index, (grad_acc, sigma, clip) in enumerate(points):
        point_cfg = cfg.with_overrides(
            dp__grad_acc_count=int(grad_acc),
            dp__noise_multiplier=float(sigma),
            dp__clip_norm=float(clip),
            train__seed=base_seed + index,
        )
        try:
            result = run_experiment(point_cfg)
            results.append(result)
            rows.append((
                str(grad_acc), _num(sigma), _num(clip),
                metrics.format_float(result.best_accuracy),
                str(result.best_epoch),
                metrics.format_float(result.epsilon_at_best),
                "ok",
            ))
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            rows.append((str(grad_acc), _num(sigma), _num(clip), "", "", "", f"failed: {exc}"))

    frontier_path = out_dir / "frontier.csv"
    with metrics.replacing(frontier_path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FRONTIER_FIELDS)
        writer.writerows(rows)
    return frontier_path, results


def account_row(dataset_size: int, batch: int, sigma: float, epochs: int, delta: float) -> str:
    """CSV row `q,T,epsilon,best_order` for one accountant query."""
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    report = accounting.epsilon_for_training(dataset_size, batch, sigma, epochs, delta)
    best = "" if report.best_order is None else str(report.best_order)
    return (
        f"{metrics.format_float(report.sampling_ratio)},{report.steps},"
        f"{metrics.format_float(report.epsilon)},{best}"
    )

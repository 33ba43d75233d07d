"""The four workloads: what each hands to the program, generated from the seed.

A workload is a fixed unit of work (one `run`, one `sweep`, or a block of
`account` queries) that every repeat performs identically. The seed only
changes the data, the initialisation, the noise streams and the accountant
grid, never the amount of work, so the cost of a repeat does not depend on
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DELTA = 1e-5
MLP_HIDDEN = (64,)
MLP_INPUT = 64
CNN_INPUT = (3, 32, 32)
CNN_CHANNELS = (32, 32, 64, 64)
CNN_GROUPS = 32
CLASSES = 10
# Account rows recomputed in mpmath; the rest are checked for q and T only.
ACCOUNT_SAMPLE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # run | sweep | account
    settings: dict  # config keys and values; seeds and output_dir are added per repeat
    grad_acc: tuple = ()  # effective batch of each operation (one per run or sweep point)
    queries: int = 0  # account queries per repeat


WORKLOADS = {
    w.name: w
    for w in (
        # NanoBatch as the paper runs it: B = 32 assembled one example at a
        # time, every example noised with its own Philox stream.
        Workload(
            "mlp_pe_b32",
            "run",
            {
                "model.kind": "mlp",
                "data.per_class": 160,
                "data.eval_per_class": 40,
                "dp.mode": "global",
                "dp.grad_acc_count": 32,
                "dp.noise_placement": "per_example",
                "optimizer.base_lr": 0.01,
                "train.epochs": 6,
            },
            grad_acc=(32,),
        ),
        # Conv forward and backward dominate; per-layer clipping; few steps.
        Workload(
            "cnn_layerclip_b8",
            "run",
            {
                "model.kind": "cnn",
                "data.per_class": 10,
                "data.eval_per_class": 2,
                "dp.mode": "per_layer",
                "dp.grad_acc_count": 8,
                "dp.noise_placement": "per_example",
                "optimizer.base_lr": 0.01,
                "train.epochs": 1,
            },
            grad_acc=(8,),
        ),
        # The batch-size study: whole-batch noise, two pipeline stages, and a
        # sweep whose steps are mostly B = 1, so per-step costs show.
        Workload(
            "batch_study",
            "sweep",
            {
                "model.kind": "mlp",
                "data.per_class": 100,
                "data.eval_per_class": 20,
                "dp.mode": "per_stage",
                "dp.num_stages": 2,
                "dp.noise_placement": "batch",
                "optimizer.base_lr": 0.002,
                "train.epochs": 3,
                "sweep.grad_acc_count": "1,16,256",
            },
            grad_acc=(1, 16, 256),
        ),
        # Accountant queries only: no training at all.
        Workload("account_grid", "account", {}, queries=600),
    )
}

COMMON = {
    "model.classes": CLASSES,
    "model.groups": CNN_GROUPS,
    "data.source": "synth",
    "data.spread": 0.3,
    "dp.enabled": "true",
    "dp.clip_norm": 1.0,
    "dp.noise_multiplier": 1.0,
    "dp.replicas": 1,
    "optimizer.momentum": 0.9,
    "optimizer.lr_scaling": "true",
    "train.delta": DELTA,
    "train.workers": 1,
    "train.precision": "f32",
}


def model_settings(kind: str) -> dict:
    if kind == "mlp":
        return {"model.input_shape": MLP_INPUT, "model.hidden": ",".join(map(str, MLP_HIDDEN))}
    return {
        "model.input_shape": ",".join(map(str, CNN_INPUT)),
        "model.channels": ",".join(map(str, CNN_CHANNELS)),
    }


def config_values(workload: Workload, seed: int, output_dir: str) -> dict:
    """Every config key the program receives for one repeat."""
    values = dict(COMMON)
    values.update(model_settings(workload.settings["model.kind"]))
    values.update(workload.settings)
    values.update({"data.seed": seed, "train.seed": seed, "train.output_dir": output_dir})
    return values


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def account_queries(seed: int, count: int) -> list[tuple]:
    """(N, B, sigma, epochs) per query: B < N, so q < 1 and every order is summed."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        n = rng.randrange(10_000, 60_001)
        batch = rng.choice((16, 64, 256, 512, 1024, 4096))
        sigma = round(rng.uniform(0.6, 3.0), 3)
        epochs = rng.randrange(1, 61)
        queries.append((n, batch, sigma, epochs))
    return queries


def account_argv(query: tuple) -> list[str]:
    n, batch, sigma, epochs = query
    return [
        "account", "--n", str(n), "--batch", str(batch), "--sigma", f"{sigma:.3f}",
        "--epochs", str(epochs), "--delta", repr(DELTA),
    ]


def param_count(kind: str) -> int:
    """Dimension d of the flat parameter vector, from the architecture alone."""
    if kind == "mlp":
        d, width = 0, MLP_INPUT
        for out in MLP_HIDDEN + (CLASSES,):
            d += out * width + out
            width = out
        return d
    c, h, w = CNN_INPUT
    d = 0
    for i, ch in enumerate(CNN_CHANNELS):
        d += ch * c * 9 + ch + 2 * ch
        c = ch
        if i in (1, len(CNN_CHANNELS) - 1):
            h, w = h // 2, w // 2
    return d + CLASSES * c * h * w + CLASSES

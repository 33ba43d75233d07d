"""One repeat of one workload, in a fresh process.

Usage: python3 worker.py JOB.json

The job file names the source tree, the command lines to pass to
`dpsgd.cli.main`, and the monotonic time at which the parent started this
process. The worker imports the package, sets up once (config, data,
model), then runs the timed part: every command line through
`dpsgd.cli.main`, in this process. It writes a JSON report next to the
job file and, when asked, the trace spans and the gradient-check inputs.

Untraced, only `engine.train_epoch` and `engine.sgd_step` are wrapped, with
one timestamp per call. Traced, every function in TRACED is wrapped and
records a span (name, start, end, parent) in memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> functions wrapped in a traced repeat. ops.backward_layer spans are
# named by layer kind, e.g. ops.backward_layer.conv2d.
TRACED = {
    "ops": (
        "conv2d_forward", "group_norm_forward", "max_pool_forward", "relu_forward",
        "linear_forward", "softmax_cross_entropy", "backward_layer",
    ),
    "models": ("per_example_gradient", "evaluate_accuracy", "build_model"),
    "engine": (
        "sample_noise", "_reused_noise_stream", "noise_stream", "clip_gradient",
        "accumulate", "train_epoch", "sgd_step",
    ),
    "metrics": ("record_step", "emit_csv"),
    "accounting": ("compose", "to_epsilon", "per_step_curve", "epsilon_for_training"),
    "experiment": ("account_row", "run_experiment", "run_sweep"),
    "cli": ("main",),
    "config": ("parse_config", "build_datasets"),
    "data": ("synth_blobs", "sample_batches"),
}


class Tracer:
    """Spans kept in flat arrays; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.noise_draws = 0

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, qualname: str, fn):
        clock = time.perf_counter
        stack, names, starts, ends, parents = self.stack, self.name, self.start, self.end, self.parent
        fixed_id = self.name_id(qualname)
        by_kind = qualname == "ops.backward_layer"
        counts_draws = qualname == "engine.sample_noise"
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(tracer.name_id(f"{qualname}.{args[0].kind}") if by_kind else fixed_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            if counts_draws:
                tracer.noise_draws += int(args[1])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), name=np.asarray(self.name, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int64))


def install_tracer(package) -> Tracer:
    tracer = Tracer()
    for module_name, functions in TRACED.items():
        module = getattr(package, module_name)
        for fn_name in functions:
            setattr(module, fn_name, tracer.wrap(f"{module_name}.{fn_name}", getattr(module, fn_name)))
    return tracer


class StepClock:
    """Time inside engine.train_epoch, its example count, and one stamp per sgd_step."""

    def __init__(self, engine):
        self.epoch_s = 0.0
        self.examples = 0
        self.step_ms: list[float] = []
        self._last = 0.0
        train_epoch, sgd_step = engine.train_epoch, engine.sgd_step

        def timed_train_epoch(spec, params, examples, labels, batches, *args, **kwargs):
            self.examples += sum(len(batch) for batch in batches)
            begin = self._last = time.perf_counter()
            try:
                return train_epoch(spec, params, examples, labels, batches, *args, **kwargs)
            finally:
                self.epoch_s += time.perf_counter() - begin

        def timed_sgd_step(*args, **kwargs):
            result = sgd_step(*args, **kwargs)
            now = time.perf_counter()
            self.step_ms.append((now - self._last) * 1e3)
            self._last = now
            return result

        engine.train_epoch = timed_train_epoch
        engine.sgd_step = timed_sgd_step


def gradient_check_inputs(config_path: str, out_path: Path) -> None:
    """The program's f64 loss and gradient for the first training example."""
    from dpsgd import config as config_mod, models

    cfg = config_mod.parse_config(config_path)
    spec = config_mod.build_model_spec(cfg)
    train_set, _ = config_mod.build_datasets(cfg)
    params = models.build_model(spec, cfg["train.seed"], dtype=np.float64)
    example = train_set.examples[0].astype(np.float64)
    label = int(train_set.labels[0])
    loss, grad = models.per_example_gradient(spec, params, example, label)
    np.savez(out_path, params=params.flat, example=example, label=label, loss=loss, grad=grad.values)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    out_dir = Path(job["out_dir"])
    sys.path.insert(0, job["src"])
    import dpsgd
    from dpsgd import cli, config as config_mod, engine, models

    if not Path(dpsgd.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"imported dpsgd from {dpsgd.__file__}, not from {job['src']}")

    if job["config"]:
        cfg = config_mod.parse_config(job["config"])
        spec = config_mod.build_model_spec(cfg)
        config_mod.build_datasets(cfg)
        models.build_model(spec, cfg["train.seed"], dtype=config_mod.dtype_for(cfg))

    tracer = install_tracer(dpsgd) if job["trace"] else None
    clock = None if tracer else StepClock(engine)

    outputs, codes, call_ms = [], [], []
    cpu0 = os.times()
    t0 = time.monotonic()
    setup_s = t0 - job["spawned"]
    last = time.perf_counter()
    for argv in job["calls"]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            codes.append(cli.main(argv))
        now = time.perf_counter()
        call_ms.append((now - last) * 1e3)
        last = now
        outputs.append(buffer.getvalue())
    run_s = time.monotonic() - t0
    cpu1 = os.times()

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (cpu1.user + cpu1.system + cpu1.children_user + cpu1.children_system)
        - (cpu0.user + cpu0.system + cpu0.children_user + cpu0.children_system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "outputs": outputs,
        "call_ms": call_ms,
    }
    if clock is not None:
        report.update(epoch_s=clock.epoch_s, examples=clock.examples, step_ms=clock.step_ms)
    if tracer is not None:
        tracer.save(out_dir / "spans.npz")
        report["noise_draws"] = tracer.noise_draws
    if job["grad_check"]:
        gradient_check_inputs(job["config"], out_dir / "grad_check.npz")
    (out_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Benchmark of the dpsgd engine: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload mlp_pe_b32 --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --compare BASE.jsonl NEW.jsonl
    python3 benchmarks/run.py --self-test

Run from the root of a checkout. A run repeats the workload in fresh worker
processes (benchmarks/worker.py) until `--seconds` of timed work is done,
checks every output apart from the program, and prints one JSON object as
its last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates traced and untraced repeats and reports the per-layer metrics.
Each result, with the machine facts, is appended to .bench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import machine
import workloads
from worker import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "items_per_s": "1/s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
WALL_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 120.0


def layer_names() -> list[str]:
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            if module == "ops" and fn == "backward_layer":
                names += [f"ops.backward_layer.{kind}" for kind in ("conv2d", "group_norm", "max_pool", "relu", "linear")]
            else:
                names.append(f"{module}.{fn}")
    return names


def per_layer_units() -> dict:
    units = {}
    for name in layer_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["engine.sample_noise.draws_per_s"] = "1/s"
    units["trace.coverage_pct"] = "%"
    units["trace.overhead_s"] = "s"
    return units


# ---- one repeat ----


def launch(workload, seed: int, rep_dir: Path, traced: bool, grad_check: bool) -> dict:
    """Run one repeat in a fresh process and return its report."""
    rep_dir.mkdir(parents=True)
    job = {
        "src": str(SRC),
        "out_dir": str(rep_dir),
        "trace": traced,
        "grad_check": grad_check and workload.command != "account",
        "config": "",
        "calls": [],
    }
    if workload.command == "account":
        job["calls"] = [workloads.account_argv(q) for q in workloads.account_queries(seed, workload.queries)]
    else:
        values = workloads.config_values(workload, seed, str(rep_dir / "out"))
        job["config"] = str(rep_dir / "workload.cfg")
        Path(job["config"]).write_text(workloads.config_text(values), encoding="utf-8")
        job["calls"] = [[workload.command, job["config"]]]
    job_path = rep_dir / "job.json"
    job["spawned"] = time.monotonic()
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    report_path = rep_dir / "report.json"
    if proc.returncode != 0 or not report_path.exists():
        raise RuntimeError(f"worker for {workload.name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["traced"] = traced
    report["dir"] = str(rep_dir)
    return report


# ---- correctness ----


class Checker:
    """Expected values for one workload and seed; charges failures to operations."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.digests: dict | None = None
        if workload.command == "account":
            self.queries = workloads.account_queries(seed, workload.queries)
            self.sample = {
                i: checks.mp_epsilon(b / n, s, e * (n // b), workloads.DELTA)
                for i, (n, b, s, e) in enumerate(self.queries[: workloads.ACCOUNT_SAMPLE])
            }
            self.rows: list | None = None
        else:
            self.values = workloads.config_values(workload, seed, "")
            self.kind = self.values["model.kind"]
            self.n = workloads.CLASSES * self.values["data.per_class"]
            self.dim = workloads.param_count(self.kind)
            self.expected_eps = {
                b: checks.mp_epsilon(b / self.n, self.values["dp.noise_multiplier"],
                                     self.values["train.epochs"] * (self.n // b), workloads.DELTA)
                for b in workload.grad_acc
            }

    @property
    def operations(self) -> int:
        return self.workload.queries or len(self.workload.grad_acc)

    def failures(self, report: dict) -> dict:
        """operation index -> failure messages for one repeat."""
        if self.workload.command == "account":
            return self._account_failures(report)
        return self._training_failures(report)

    def _account_failures(self, report: dict) -> dict:
        failed = {}
        rows = report["outputs"]
        for i, ((n, b, s, e), code, row) in enumerate(zip(self.queries, report["codes"], rows)):
            messages = [f"exit code {code}: {row.strip()}"] if code else checks.check_account_row(row, n, b, e)
            if not messages and i in self.sample:
                messages = checks.check_epsilon(float(row.split(",")[2]), self.sample[i], f"query {i}")
            if self.rows is not None and row != self.rows[i]:
                messages.append(f"query {i} printed {row.strip()!r}, first repeat printed {self.rows[i].strip()!r}")
            if messages:
                failed[i] = messages
        if self.rows is None:
            self.rows = rows
        return failed

    def _training_failures(self, report: dict) -> dict:
        v = self.values
        out = Path(report["dir"]) / "out"
        failed: dict[int, list] = {}
        if report["codes"][0] != 0:
            return {i: [f"exit code {report['codes'][0]}: {report['outputs'][0][-500:]}"] for i in range(self.operations)}
        digests = {}
        frontier = None
        if self.workload.command == "sweep":
            frontier = checks.read_rows(out / "frontier.csv")
            digests["frontier.csv"] = checks.digest(out / "frontier.csv")
        best = 0.0
        for i, batch in enumerate(self.workload.grad_acc):
            messages = []
            csvs = sorted(out.glob(f"ga{batch}_*_seed{self.seed + i}.csv"))
            if len(csvs) != 1:
                failed[i] = [f"expected one metrics CSV for B={batch}, found {len(csvs)}"]
                continue
            rows = checks.read_rows(csvs[0])
            digests[csvs[0].name] = checks.digest(csvs[0])
            steps = v["train.epochs"] * (self.n // batch)
            if len(rows) != steps:
                messages.append(f"B={batch}: {len(rows)} rows, expected {steps}")
            sigma, clip = v["dp.noise_multiplier"], v["dp.clip_norm"]
            messages += checks.check_clip(rows, batch, clip)
            messages += checks.check_noise([float(r["noise_norm"]) for r in rows], sigma, clip, self.dim)
            if rows:
                messages += checks.check_epsilon(float(rows[-1]["epsilon"]), self.expected_eps[batch], f"B={batch}")
            best = max([best] + [float(r["accuracy"]) for r in rows if r["accuracy"]])
            if frontier is not None and (i >= len(frontier) or frontier[i]["status"] != "ok"):
                messages.append(f"frontier row {i} is not ok")
            if messages:
                failed[i] = messages
        # One figure per MLP workload: a B = 1 point alone is too noisy to beat chance every time.
        if self.kind == "mlp" and not best > 1.0 / workloads.CLASSES:
            for i in range(self.operations):
                failed.setdefault(i, []).append(f"best held-out accuracy {best} is not above chance")
        if frontier is not None and len(frontier) != len(self.workload.grad_acc):
            failed.setdefault(0, []).append(f"frontier.csv has {len(frontier)} rows")
        grad_path = Path(report["dir"]) / "grad_check.npz"
        if grad_path.exists():
            with np.load(grad_path) as g:
                messages = checks.check_gradient(self.kind, g["params"], g["example"], int(g["label"]),
                                                 float(g["loss"]), g["grad"], self.seed)
            if messages:
                failed.setdefault(0, []).extend(messages)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            failed.setdefault(0, []).append("CSV digests differ from the first repeat with this seed")
        return failed


# ---- metrics ----


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    """Medians over repeats; step (or query) times pooled over repeats."""
    if reports[0].get("examples"):
        rates = [r["examples"] / r["epoch_s"] for r in reports]
        steps = [ms for r in reports for ms in r["step_ms"]]
    else:
        rates = [len(r["call_ms"]) / (sum(r["call_ms"]) / 1e3) for r in reports]
        steps = [ms for r in reports for ms in r["call_ms"]]
    values = {
        "items_per_s": statistics.median(rates),
        "run_s": statistics.median(r["run_s"] for r in reports),
        "step_ms_p50": statistics.median(steps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    p90 = statistics.quantiles(steps, n=10)[8] if len(steps) >= 2 else steps[0]
    return values, {"step_ms_p90": p90, "step_count": len(steps)}


def span_totals(path: Path) -> tuple[dict, float]:
    """Self seconds and calls per span name, and the seconds inside top-level spans."""
    with np.load(path) as s:
        names, name, start, end, parent = list(s["names"]), s["name"], s["start"], s["end"], s["parent"]
    duration = end - start
    children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=duration.size)
    self_time = np.bincount(name, weights=duration - children, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    totals = {n: (float(self_time[i]), int(calls[i])) for i, n in enumerate(names)}
    return totals, float(duration[parent < 0].sum())


def per_layer(reports: list[dict]) -> dict:
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    samples: dict[str, list] = {name: [] for name in per_layer_units()}
    for report in traced:
        totals, top = span_totals(Path(report["dir"]) / "spans.npz")
        for name in layer_names():
            self_s, calls = totals.get(name, (0.0, 0))
            samples[f"{name}.self_s"].append(self_s)
            samples[f"{name}.calls"].append(calls)
        noise_s = totals.get("engine.sample_noise", (0.0, 0))[0]
        samples["engine.sample_noise.draws_per_s"].append(report["noise_draws"] / noise_s if noise_s else 0.0)
        samples["trace.coverage_pct"].append(100.0 * top / report["run_s"])
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain))
    return values


# ---- a run ----


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = OUT / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    facts = machine.facts()
    checker = Checker(workload, seed)
    ticks = machine.cpu_ticks()
    started = time.monotonic()
    reports, failures = [], {}
    timed = 0.0
    try:
        while True:
            k = len(reports)
            enough = k >= (2 * MIN_TRACED_REPEATS if trace else MIN_REPEATS) and timed >= seconds
            if enough or (k >= 2 and time.monotonic() - started > WALL_LIMIT_S):
                break
            report = launch(workload, seed, run_dir / f"rep{k}", traced=trace and k % 2 == 0, grad_check=k == 0)
            timed += report["run_s"]
            for op, messages in checker.failures(report).items():
                failures[(k, op)] = messages
            reports.append(report)
        if trace:
            metrics = per_layer(reports)
            units = per_layer_units()
        else:
            metrics, extra = end_to_end(reports)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts["steal_pct"] = machine.steal_pct(ticks, machine.cpu_ticks())
    attempted = len(reports) * checker.operations
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repeats": len(reports),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"repeat {k} op {op}: {'; '.join(m)}" for (k, op), m in sorted(failures.items())][:20],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
        "raw": [{key: r[key] for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "traced")} for r in reports],
        "machine": facts,
    }
    if not trace:
        result["extra"] = extra
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(result) + "\n")
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} repeats={result['repeats']} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']['name']} "
          f"{m['blas']['version']} threads={m['blas']['threads']} "
          f"rng_floor={m['rng_floor_draws_per_s']:.4g}/s gemm_floor={m['gemm_floor_gflop_per_s']:.4g}GFLOP/s "
          f"steal={m['steal_pct']:.2f}%")
    for name, metric in result["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in result.get("extra", {}).items():
        print(f"#   {key} = {value:.6g}")
    for line in result["failures"]:
        print(f"# FAILED {line}")
    print(f"# attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")


# ---- compare ----


def compare(base_path: Path, new_path: Path) -> None:
    def load(path):
        groups: dict = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                r = json.loads(line)
                for metric, v in r["metrics"].items():
                    groups.setdefault((r["workload"], metric), []).append(v["value"])
        return groups

    def quartiles(values):
        q = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
        return q[0], statistics.median(values), q[2]

    base, new = load(base_path), load(new_path)
    print(f"{'workload':18} {'metric':44} {'base q1/median/q3':>32} {'new q1/median/q3':>32} {'new/base':>9}")
    for key in sorted(base.keys() & new.keys()):
        b, n = quartiles(base[key]), quartiles(new[key])
        ratio = n[1] / b[1] if b[1] else math.nan
        cells = ["{:.4g}/{:.4g}/{:.4g}".format(*q) for q in (b, n)]
        print(f"{key[0]:18} {key[1]:44} {cells[0]:>32} {cells[1]:>32} {ratio:9.4f}  (n={len(base[key])}/{len(new[key])})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl", help="JSONL file results are appended to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.self_test:
        return checks.self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "dpsgd" / "__init__.py").is_file():
        print(f"error: no dpsgd sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.results)
        print_result(result)
        results.append(result)
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

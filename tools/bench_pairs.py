"""Interleaved benchmark pairs of two checkouts, written as a BENCH_<n>.json.

Usage: python3 tools/bench_pairs.py BASE NEW --workloads W [W ...] --seeds 701 702 ...
           [--tier1 TIMES.json] [--parent COMMIT] [--out BENCH_n.json]

For each workload and seed it runs

    python3 benchmarks/run.py --workload W --seed S --trace 0

once in the root of each checkout, at run.py's own run length, base first
at the 1st, 3rd, ... seed and new first at the others, so that drift in the
machine's speed falls on both sides alike. Each pair records both sides'
end-to-end metrics, repeats, failed and attempted operations, correctness,
host steal and wall time. Per
workload and metric it then gives the quartiles [q1, median, q3] of each
side (statistics.quantiles, n=4, as `benchmarks/run.py --compare` computes
them), the ratio new median / base median, the pairs the new side won, and
whether the new median stays within the metric's bound in the new
checkout's BENCHMARK.json, and per side the failed and attempted
operations summed over the pairs. The file is replaced whole after every
pair (written beside it, then renamed over it), so an interrupted run keeps
its whole pairs. `--tier1` embeds the JSON list that
tools/tier1_times.py printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One `benchmarks/run.py` run in checkout: its full result record and wall time."""
    with tempfile.TemporaryDirectory() as scratch:
        results = Path(scratch) / "results.jsonl"
        command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                   "--trace", "0", "--results", str(results)]
        begin = time.monotonic()
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
        wall_s = time.monotonic() - begin
        if done.returncode != 0 or not results.exists():
            raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {done.returncode}:\n{done.stderr[-4000:]}")
        result = json.loads(results.read_text(encoding="utf-8").splitlines()[-1])
    result["wall_s"] = round(wall_s, 1)
    return result


def pair(checkouts: dict, workload: str, seed: int, base_first: bool) -> tuple[dict, dict]:
    """One pair: the per-side record that BENCH files list, and the machine facts of the new side."""
    order = ("base", "new") if base_first else ("new", "base")
    results = {side: run_side(checkouts[side], workload, seed) for side in order}
    record = {"seed": seed, "run_order": list(order)}
    for metric in results["new"]["metrics"]:
        record[metric] = {side: results[side]["metrics"][metric]["value"] for side in ("base", "new")}
    for key in ("repeats", "failed", "attempted", "correct"):
        record[key] = {side: results[side][key] for side in ("base", "new")}
    record["steal_pct"] = {side: results[side]["machine"]["steal_pct"] for side in ("base", "new")}
    record["wall_s"] = {side: results[side]["wall_s"] for side in ("base", "new")}
    return record, results["new"]["machine"]


def quartiles(values: list) -> list:
    """[q1, median, q3]: the rule of `quartiles` inside `compare` in benchmarks/run.py,
    which cannot be imported from there; keep the two alike."""
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return [q[0], statistics.median(values), q[2]]


def summary(pairs: list, end_to_end: dict) -> dict:
    """Per metric: both sides' quartiles, the median ratio, the new side's wins and the bound check."""
    out = {}
    for metric, spec in end_to_end.items():
        base = [p[metric]["base"] for p in pairs]
        new = [p[metric]["new"] for p in pairs]
        base_q, new_q = quartiles(base), quartiles(new)
        higher = spec["better"] == "higher"
        wins = sum(n > b if higher else n < b for b, n in zip(base, new))
        limit = base_q[1] * (1 - spec["bound"] if higher else 1 + spec["bound"])
        out[metric] = {
            "base_q": base_q,
            "new_q": new_q,
            "ratio": round(new_q[1] / base_q[1], 4) if base_q[1] else None,
            "new_wins": wins,
            "n": len(pairs),
            "within_bound": new_q[1] >= limit if higher else new_q[1] <= limit,
        }
    return out


def operations(pairs: list) -> dict:
    """Per side: the failed and attempted operations, summed over the pairs."""
    return {side: {key: sum(p[key][side] for p in pairs) for key in ("failed", "attempted")}
            for side in ("base", "new")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("new", type=Path, help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True, help="benchmark workload names")
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed and workload")
    parser.add_argument("--tier1", type=Path, help="JSON list printed by tools/tier1_times.py")
    parser.add_argument("--parent", default=None, help="commit of the base checkout")
    parser.add_argument("--out", type=Path, help="JSON file written after every pair")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "new": args.new.resolve()}
    benchmark = json.loads((checkouts["new"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    report = {
        "description": (
            "Interleaved base/new pairs of `python3 benchmarks/run.py --workload W --seed S "
            "--trace 0`, written by tools/bench_pairs.py: base first at odd-numbered pairs, new "
            "first at the others."),
        "parent": args.parent,
        "machine": None,
        "workloads": {},
    }
    if args.tier1 is not None:
        report["tier1"] = json.loads(args.tier1.read_text(encoding="utf-8"))
    text = ""
    for workload in args.workloads:
        pairs = []
        for index, seed in enumerate(args.seeds):
            record, machine = pair(checkouts, workload, seed, base_first=index % 2 == 0)
            print(json.dumps({"workload": workload, **record}), file=sys.stderr, flush=True)
            pairs.append(record)
            blas = machine["blas"]
            report["machine"] = {
                "nproc": machine["nproc"], "python": machine["python"], "numpy": machine["numpy"],
                "blas": f"{blas['name']} {blas['version']} threads={blas['threads']}",
            }
            report["workloads"][workload] = {
                "pairs": pairs, "metrics": summary(pairs, end_to_end), "operations": operations(pairs),
            }
            text = json.dumps(report, indent=1)
            if args.out is not None:
                partial = args.out.with_name(f".{args.out.name}.tmp")
                partial.write_text(text + "\n", encoding="utf-8")
                os.replace(partial, args.out)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

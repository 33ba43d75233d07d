"""SHA-256 of every output the benchmark workloads write, at given seeds.

Usage: python3 tools/output_digests.py [--seeds 1 2 3]

Runs `mlp_pe_b32` (also at B = 256, so that each drawing thread draws many
rows of a step, with `dp.enabled = false`, which draws no noise, and with
`train.epochs = 0`, which reports the untrained model),
`cnn_layerclip_b8` (in f32 and in f64) and `batch_study` (in f32 and in f64)
through `dpsgd.cli.main`, with the config keys that
`benchmarks/workloads.config_values` gives each seed, and the `account_grid`
queries of each seed. It prints one line per output:

    <workload> <seed> <file> <sha256>

for every metrics CSV, `frontier.csv` and `_params.npz`, for what each
training call prints (as `stdout`, with its `wall_clock_s=` fields removed and
the scratch directory's path replaced by `<work>`), and for the `account`
rows of `account_grid` (all 600, joined in query order). The
package is imported from the `src/` next to this file, so running the same
script in two checkouts and diffing what they print shows whether a change
moved any bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from dpsgd import cli  # noqa: E402

# (label, workload name, config keys changed from the workload's own)
TRAINING = (
    ("mlp_pe_b32", "mlp_pe_b32", {}),
    ("mlp_pe_b256", "mlp_pe_b32", {"dp.grad_acc_count": 256}),
    ("mlp_nodp", "mlp_pe_b32", {"dp.enabled": "false"}),
    ("mlp_epochs0", "mlp_pe_b32", {"train.epochs": 0}),
    ("cnn_layerclip_b8", "cnn_layerclip_b8", {}),
    ("cnn_layerclip_b8_f64", "cnn_layerclip_b8", {"train.precision": "f64"}),
    ("batch_study", "batch_study", {}),
    ("batch_study_f64", "batch_study", {"train.precision": "f64"}),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def training_digests(label: str, name: str, changes: dict, seed: int, work: Path):
    """Run one training workload and yield (file name, digest) per output file, then
    ("stdout", digest) of what it printed, without its wall-clock times."""
    workload = workloads.WORKLOADS[name]
    out_dir = work / f"{label}_seed{seed}"
    values = workloads.config_values(workload, seed, str(out_dir))
    values.update(changes)
    config = work / f"{label}_seed{seed}.cfg"
    config.write_text(workloads.config_text(values), encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([workload.command, str(config)])
    if code != 0:
        raise SystemExit(f"{label} at seed {seed} exited {code}")
    for path in sorted(out_dir.iterdir()):
        yield path.name, sha256(path.read_bytes())
    stdout = re.sub(r" wall_clock_s=\S+", "", printed.getvalue()).replace(str(work), "<work>")
    yield "stdout", sha256(stdout.encode("utf-8"))


def account_digest(seed: int) -> str:
    """Digest of the account rows of one account_grid repeat, in query order."""
    workload = workloads.WORKLOADS["account_grid"]
    rows = io.StringIO()
    for query in workloads.account_queries(seed, workload.queries):
        with contextlib.redirect_stdout(rows):
            code = cli.main(workloads.account_argv(query))
        if code != 0:
            raise SystemExit(f"account query {query} at seed {seed} exited {code}")
    return sha256(rows.getvalue().encode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for label, name, changes in TRAINING:
                for file_name, digest in training_digests(label, name, changes, seed, work):
                    print(f"{label} {seed} {file_name} {digest}", flush=True)
            print(f"account_grid {seed} rows {account_digest(seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

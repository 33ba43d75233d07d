"""Tier-1 wall time of two checkouts, from interleaved runs.

Usage: python3 tools/tier1_times.py BASE NEW [--pairs 2] [--out times.json]

Runs the tier-1 command

    python -m pytest -q --continue-on-collection-errors --durations=0

with `PYTHONPATH=src` in the root of each checkout, in the order base, new,
new, base, base, new, ... so that drift in the machine's speed falls on both
sides alike. For each run it records the wall time, the user CPU of the
pytest process and its children, pytest's summary line, and the call times
of the acceptance tests `test_03`, `test_08` and `test_09`. It prints the
runs as one JSON list, and writes the list to `--out` if given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

COMMAND = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0")
TIMED = ("test_03", "test_08", "test_09")
# One line of pytest's durations table: "108.26s call     tests/...::test_08_name".
DURATION = re.compile(r"^\s*([0-9.]+)s\s+call\s+\S+::(\w+)")
SUMMARY = re.compile(r"\b(passed|failed|error)\b.* in [0-9.]+s")


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run in checkout: wall time, user CPU, summary and the timed tests' call times."""
    env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + os.environ["PYTHONPATH"] if "PYTHONPATH" in os.environ else ""))
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    begin = time.monotonic()
    done = subprocess.run(COMMAND, cwd=checkout, env=env, capture_output=True, text=True)
    wall_s = time.monotonic() - begin
    user_cpu_s = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - cpu_before
    lines = done.stdout.splitlines()
    durations = {}
    for line in lines:
        match = DURATION.match(line)
        if match and match.group(2).startswith(TIMED):
            durations[match.group(2)] = float(match.group(1))
    summary = next((line.strip("= ") for line in reversed(lines) if SUMMARY.search(line)), "")
    return {
        "wall_s": round(wall_s, 1),
        "user_cpu_s": round(user_cpu_s, 1),
        "exit_code": done.returncode,
        "summary": summary,
        "durations_s": dict(sorted(durations.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("new", type=Path, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=2, help="runs of each checkout")
    parser.add_argument("--out", type=Path, help="JSON file the runs are written to")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "new": args.new.resolve()}
    runs = []
    for pair in range(args.pairs):
        for side in ("base", "new") if pair % 2 == 0 else ("new", "base"):
            run = {"pair": pair, "side": side, **run_tier1(checkouts[side])}
            print(json.dumps(run), file=sys.stderr, flush=True)
            runs.append(run)
    text = json.dumps(runs, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

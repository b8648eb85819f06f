"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-ivf-ingest --runs 10

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — the
figure a metric's ``bound`` in ``BENCHMARK.json`` must stay above.  Runs
are sequential; seeds are ``--first-seed`` onwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-4000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()),
            flush=True)
    print(f"\n{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name:32s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

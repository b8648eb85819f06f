"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 8 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` installs the
layer wrappers and prints every per-layer metric instead.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full report (run envelope, ladder rungs, checks,
set-up samples) goes to ``.perfbench/results/``.  A failed correctness
check still prints the result line, then exits 1; any other failure
exits non-zero without a result line.  ``--smoke`` shrinks every size
for a seconds-long check of the benchmark itself (never a measurement).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline", "serve-ivf-ingest")

#: Tracing overhead figures (per-layer) and the end-to-end metric each
#: compares between a traced run and the untraced run of the same seed.
OVERHEAD_OF = {
    "trace.overhead_setup": "setup_s",
    "trace.overhead_train": "train_triples_per_s",
    "trace.overhead_eval": "eval_queries_per_s",
    "trace.overhead_serve_p50": "serve_p50_ms",
    "trace.overhead_ingest": "ingest_delta_s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; not a measurement")
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Unwind through main's finally, which stops the daemon it started.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Metric names and units are the ones BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import settings

    # Pin BLAS threads before numpy loads; the daemon inherits them.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(min(settings.BLAS_THREADS, os.cpu_count() or 1))

    from perfbench.common import WORK, cpu_jiffies, envelope, log, steal_share
    from perfbench.loadgen import Daemon

    sizes = settings.SMOKE if args.smoke else settings.FULL
    work = WORK / f"run-{args.workload}-{os.getpid()}"
    traces, results = WORK / "traces", WORK / "results"
    for directory in (work, traces, results):
        directory.mkdir(parents=True, exist_ok=True)
    started, jiffies = time.perf_counter(), cpu_jiffies()
    try:
        if args.workload == "offline":
            from perfbench import offline

            outcome = offline.run(args.seed, args.seconds, bool(args.trace), sizes, work, traces)
        else:
            from perfbench import serve

            outcome = serve.run(args.seed, args.seconds, bool(args.trace), sizes, work, traces)
    except Exception:  # noqa: BLE001 - reported, then a non-zero exit
        traceback.print_exc()
        return 1
    finally:
        Daemon.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        untraced_path = results / f"{tag}-trace0.json"
        untraced = (
            json.loads(untraced_path.read_text())["e2e"] if untraced_path.exists() else None
        )
        for name, metric in OVERHEAD_OF.items():
            base, traced = (untraced or {}).get(metric), outcome["e2e"].get(metric)
            outcome["layers"][name] = traced / base - 1.0 if base and traced else 0.0
    table = declared["per_layer" if args.trace else "end_to_end"]
    values = outcome["layers"] if args.trace else outcome["e2e"]
    metrics = {}
    for entry in table:
        value = values.get(entry["name"])
        metrics[entry["name"]] = {
            "value": float(value) if value is not None else 0.0,
            "unit": entry["unit"],
        }
    correct = all(outcome["checks"].values())
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "wall_s": time.perf_counter() - started,
        "envelope": {**envelope(), "steal_share": steal_share(jiffies, cpu_jiffies())},
        "checks": outcome["checks"],
        "e2e": outcome["e2e"],
        "layers": outcome["layers"],
        "details": outcome["details"],
        "result": result,
    }
    (results / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
    )
    for name, ok in outcome["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for rung in outcome["details"].get("rungs", []):
        print("rung " + json.dumps(rung))
    print(f"host steal share {report['envelope']['steal_share']}")
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    if not correct:
        log("a correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

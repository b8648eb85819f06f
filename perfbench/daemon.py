"""Launch the serving daemon for the benchmark (run as ``python -m perfbench.daemon``).

Starts :func:`repro.serving.serve_forever` on a stored run directory
and its stored IVF index (``index="auto"``), exactly as ``repro serve``
does.  With ``--trace 1`` the layer wrappers
of :mod:`perfbench.tracing` are installed first, inside this process.
When the daemon stops it prints one ``PERFBENCH-DAEMON {...}`` line
with its peak RSS and, when traced, the span summary; the full span list
goes to ``--spans`` if given.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.common import self_peak_rss_mb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--max-batch", type=int, required=True)
    parser.add_argument("--max-wait-ms", type=float, required=True)
    parser.add_argument("--queue-depth", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from perfbench.tracing import Recorder

        recorder = Recorder()
        recorder.install()

    from repro.serving import serve_forever

    serve_forever(
        args.run_dir,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        index="auto",
    )
    report = {"peak_rss_mb": self_peak_rss_mb()}
    if recorder is not None:
        report["spans"] = recorder.summary()
        if args.spans:
            from pathlib import Path

            recorder.write(Path(args.spans))
    print("PERFBENCH-DAEMON " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark: one workload (or all three), checked, with metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload tpcw-shopping --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

``--trace 0`` measures the end-to-end metrics (untraced); ``--trace 1``
makes the separate traced run that gives the per-layer metrics.  Each
metric is printed as ``name value unit n=<samples>``; the last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed correctness check prints the
workload and seed, reports no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall-clock seconds to measure (sets the episode count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default with --workload all: both)")
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in its own interpreter (so peak RSS is per run)."""
    from perfbench.workloads import WORKLOADS

    status = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in WORKLOADS:
        for trace in traces:
            completed = subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ])
            status = status or completed.returncode
    return status


def _print(spec, seed: int, metrics: dict, extra: dict) -> None:
    print(f"# {spec.name} seed={seed}: {spec.why}")
    for name, metric in {**metrics, **extra}.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"{name:40s} {metric.value:14.6g} {metric.unit:9s} n={metric.samples}{note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"error: the program's source ({SOURCE}/repro) is missing", file=sys.stderr)
        return 2
    for path in (str(SOURCE), str(REPO_ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return _run_all(args)

    from perfbench.bench import run_plain, run_traced
    from perfbench.episode import BenchmarkFailure
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, refused = run_traced(spec, args.seed)
            extra = {}
        else:
            metrics, extra, attempted, refused = run_plain(spec, args.seed, args.seconds)
    except BenchmarkFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        print(f"FAIL: {failure}")
        return 1
    _print(spec, args.seed, metrics, extra)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": refused,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

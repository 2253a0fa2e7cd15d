"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_n200 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once with per-layer wrappers installed and once without, and
prints every per-layer metric.  Each metric is printed as one
``name value unit`` line; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every operation and output check
passed, 1 when one failed, and 2 when the program under test cannot be
found (no ``src/`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: program sources not found at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import (
        END_TO_END,
        INFO,
        PER_LAYER,
        WORKLOADS,
        run_workload,
    )

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in result.metrics.items():
        print(f"{name:<34} {value:>14.6g} {units[name]}")
    for name, value in result.info.items():
        print(f"{name:<34} {value:>14.6g} {INFO[name]} (info)")
    print(f"{'error_rate':<34} {result.error_rate:>14.6g} share (info)")
    for target in result.missing_layers:
        print(f"missing layer: {target}", file=sys.stderr)
    for failure in result.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    if len(result.failures) > 20:
        print(f"... and {len(result.failures) - 20} more", file=sys.stderr)
    correct = result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

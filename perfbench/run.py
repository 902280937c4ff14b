"""Benchmark of the Q-Pilot compile stack: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-100q --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object.  The exit
code is nonzero when any output fails its correctness check, and when
the program's sources (``src/repro``) are not next to this directory.
See ``perfbench/NOTES.md`` for the workloads and the metric map.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cold-100q", "warm-zipf-100q", "dse-grid-100q")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (used for repeated set-up timing)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from qpbench import harness

    return harness.run(args, STARTED, ROOT / ".perfbench")


if __name__ == "__main__":
    sys.exit(main())

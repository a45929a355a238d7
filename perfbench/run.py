"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study|store|serving --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs the workload once untraced
and once with the probes of ``perfbench/probes.py`` installed, and
prints every per-layer metric plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
under test is imported from ``src/`` next to this directory and nowhere
else: without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("study", "store", "serving")


def _require_program() -> None:
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"perfbench: repro imported from {origin}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _require_program()

    from perfbench import workloads

    runner = workloads.traced if args.trace else workloads.measured
    runner(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

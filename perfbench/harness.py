"""Shared plumbing: set-up timing, repetition pacing and the result line."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import failed_fraction, median

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave trace dumps and scratch spill directories.
OUT = ROOT / "perfbench" / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def import_seconds(modules: Sequence[str], repeats: int = SETUP_REPEATS) -> float:
    """Median wall time to import ``modules`` in a fresh interpreter.

    Imports happen once per process, so each repeat is a child
    interpreter; interpreter start-up itself is not counted.
    """
    statements = "; ".join(f"import {name}" for name in modules)
    code = (
        "import time; t = time.perf_counter(); "
        f"{statements}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def timed_setups(build: Callable[[], Any], repeats: int = SETUP_REPEATS) -> Tuple[float, Any]:
    """Run ``build`` ``repeats`` times; returns (median seconds, last result)."""
    samples = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous inputs go before building again
        start = perf_counter()
        result = build()
        samples.append(perf_counter() - start)
    return median(samples), result


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paced(seconds: float, job: Callable[[int], Optional[float]], min_reps: int = 2) -> List[float]:
    """Repeat ``job(rep)`` (which returns its own wall time) within ``seconds``.

    ``min_reps`` repetitions always run, so a job as long as half the
    budget is still a median of two; after those another starts only
    when the slowest so far would still finish inside the budget.  A
    job returning ``None`` failed and ends the run.
    """
    walls: List[float] = []
    start = perf_counter()
    while True:
        wall = job(len(walls))
        if wall is None:
            return walls
        walls.append(wall)
        if len(walls) >= min_reps and perf_counter() - start + max(walls) > seconds:
            return walls


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason for every failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def passed(self, count: int) -> None:
        """Record ``count`` operations that succeeded."""
        self.attempted += count

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def emit(outcome: Outcome, metrics: Dict[str, Tuple[float, str]], lines: Sequence[str]) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    for line in lines:
        print(line)
    attempted = max(outcome.attempted, 1)
    print(f"failed_frac: {failed_fraction(attempted, outcome.failed):.6f} ratio "
          f"({outcome.failed} of {attempted} operations)")
    for reason in outcome.failures[:20]:
        print(f"  failed: {reason}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))


def end_to_end(setup_s: float, job_s: float, rate_per_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports (see BENCHMARK.json)."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "job_s": (job_s, "s"),
        "rate_per_s": (rate_per_s, "1/s"),
    }

"""Summary statistics the benchmark reports.

Every timing is reported as a median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples above it, together with
the sample count, so a tail figure is never read off one or two
outliers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10

#: Percentiles tried from the highest down (nearest-rank definition).
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # Exact decimal arithmetic: 99.9 / 100 * 10000 is 9990.000000000002
    # in binary floating point, which would round the rank up.
    return max(math.ceil(Fraction(str(pct)) * count / 100), 1)


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` nearest rank."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ≥ ``MIN_BEYOND`` samples beyond it."""
    for pct in PERCENTILE_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the qualifying tail percentile (or None) and the count."""
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_pct": pct,
        "tail": percentile(values, pct) if pct is not None else None,
    }


def describe(label: str, values: Sequence[float], unit: str, scale: float = 1.0) -> str:
    """One human-readable line: median, tail percentile and sample count."""
    if not values:
        return f"{label}: no samples"
    summary = summarize([v * scale for v in values])
    line = f"{label}: p50 {summary['p50']:.4f} {unit}"
    if summary["tail_pct"] is not None:
        line += f", p{summary['tail_pct']:g} {summary['tail']:.4f} {unit}"
    return line + f" (n={summary['n']})"


def failed_fraction(attempted: int, failed: int) -> float:
    """Operations that failed ÷ operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Sequence[Tuple[int, Optional[int], float, float, float]]
) -> Dict[int, float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end, leaf_seconds)``
    rows.  Children may nest, sit back to back, or overlap each other
    (children running on other threads); the covered part is the union
    of their intervals clipped to the parent, so no instant is
    subtracted twice.  ``leaf_seconds`` is time in untraced-as-span
    leaf calls made directly under the span, subtracted as well.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, start, end, _leaf in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for sid, _parent, start, end, leaf in spans:
        covered = _covered(children.get(sid, ()), start, end)
        result[sid] = max(end - start - covered - leaf, 0.0)
    return result

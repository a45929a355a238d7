"""Banjori-style DGA.

Banjori is unusual: instead of generating fresh labels it *mutates a
seed domain*, rewriting only the first four characters with a rolling
arithmetic over the previous name.  Successive domains therefore share
a long constant tail — a fingerprint no entropy feature catches, which
is why detectors need more than randomness scores.

Each step's checksum is ``(ord-sum of the label + seed + step) & 0xFFFF``
and it picks the four new head letters.  Only the head changes, so the
label's ord-sum is a constant tail sum plus the head's sum, and the
head's sum is a function of the checksum alone.  The chain therefore
runs on one integer: skipped steps build no strings, and only the
emitted labels are spelled out.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from repro.dga.base import DgaFamily

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
#: Length of the mutated head; the rest of the seed label never changes.
_HEAD = 4
#: ord-sum of an all-``a`` head: every head sum is this plus the offsets.
_HEAD_BASE = _HEAD * ord("a")


@lru_cache(maxsize=None)
def _head_offsets() -> bytes:
    """Head ord-sum minus :data:`_HEAD_BASE`, for every 16-bit checksum.

    Built on first use rather than at import (4 ms); every offset is at
    most 4 × 25, so it fits a byte.
    """
    c = np.arange(0x10000)
    offsets = c % 26 + (c >> 3) % 26 + (c >> 5) % 26 + (c >> 7) % 26
    return offsets.astype(np.uint8).tobytes()


class Banjori(DgaFamily):
    name = "banjori"
    tlds = ("com",)
    domains_per_day = 40

    #: Mutated seed label (the real malware shipped one per campaign).
    seed_label = "earnestnessbiophysicalohax"

    def generate_labels(self, day_index: int, count: int) -> List[str]:
        # Advance the rolling mutation day_index*domains_per_day steps so
        # each day picks up where the previous left off, like the malware.
        offsets = _head_offsets()
        tail = self.seed_label[_HEAD:]
        # checksum = (tail sum + head sum + seed + step) & 0xFFFF.  The
        # head sum is kept as its offset above _HEAD_BASE, and k runs
        # over origin + step, so each checksum is (k + offset) & 0xFFFF.
        origin = sum(map(ord, tail)) + _HEAD_BASE + self.seed
        offset = sum(map(ord, self.seed_label[:_HEAD])) - _HEAD_BASE
        first = origin + day_index * self.domains_per_day
        for k in range(origin, first):
            offset = offsets[(k + offset) & 0xFFFF]
        labels = []
        for k in range(first, first + count):
            checksum = (k + offset) & 0xFFFF
            labels.append(
                _LETTERS[checksum % 26]
                + _LETTERS[(checksum >> 3) % 26]
                + _LETTERS[(checksum >> 5) % 26]
                + _LETTERS[(checksum >> 7) % 26]
                + tail
            )
            offset = offsets[checksum]
        return labels

"""Bitsquatting: domains one memory bit-flip away from a target.

Nikiforakis et al. (WWW '13) showed that hardware bit errors in DNS
queries deliver real traffic to domains whose name differs from a
popular domain by exactly one flipped bit.  The variant space is tiny
(8 flips per character, most yielding invalid labels), matching the
paper's small bitsquatting count (313) relative to typo/combo.
"""

from __future__ import annotations

from typing import List, Set

from repro.dns.name import DomainName
from repro.errors import DomainNameError

_VALID_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


def _flip_variants(label: str) -> Set[str]:
    variants: Set[str] = set()
    for index, char in enumerate(label):
        code = ord(char)
        for bit in range(8):
            flipped = chr(code ^ (1 << bit))
            lowered = flipped.lower()
            if lowered == char or lowered not in _VALID_LABEL_CHARS:
                continue
            candidate = label[:index] + lowered + label[index + 1 :]
            if candidate.startswith("-") or candidate.endswith("-"):
                continue
            variants.add(candidate)
    variants.discard(label)
    return variants


def bitsquat_variants(target: DomainName) -> List[DomainName]:
    """All valid single-bit-flip domains for ``target`` (same TLD)."""
    target = target.registered_domain()
    results = []
    for label in sorted(_flip_variants(target.sld)):
        try:
            results.append(DomainName(f"{label}.{target.tld}"))
        except DomainNameError:
            continue
    return results


def is_bitsquat(candidate: DomainName, target: DomainName) -> bool:
    """True when the candidate's SLD is one bit-flip from the target's.

    Requires equal length, same TLD, and exactly one differing
    character whose codes differ in exactly one bit.
    """
    candidate = candidate.registered_domain()
    target = target.registered_domain()
    if candidate.tld != target.tld or candidate == target:
        return False
    return _one_bit_apart(candidate.sld, target.sld)


def _one_bit_apart(a: str, b: str) -> bool:
    """True when equal-length labels differ in one character by one bit."""
    if len(a) != len(b):
        return False
    differing = [(x, y) for x, y in zip(a, b) if x != y]
    if len(differing) != 1:
        return False
    x, y = differing[0]
    xor = ord(x) ^ ord(y)
    # One bit flip, possibly observed after ASCII case folding (bit 5).
    return xor != 0 and (xor & (xor - 1)) == 0
